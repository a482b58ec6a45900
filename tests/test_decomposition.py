import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab import decomposition, symbols
from focklab.decomposition import (Decomposition, InvalidProfileError,
                                   PartitionOfUnity, build_partition,
                                   decompose, verify_controls)
from focklab.lattice import Window, build_lattice, near_support_circle
from focklab.quadrature import ball_rule


@pytest.fixture(scope="module")
def lattice():
    return build_lattice(0.0, 0.5, Window.square(3.0))


@pytest.fixture(scope="module")
def partition(lattice):
    return build_partition(lattice)


def test_partition_sums_to_one(partition):
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    total = np.sum(partition.members(z)[-1], axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_partition_dbar_sums_to_zero(partition):
    rng = np.random.default_rng(6)
    z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    total = np.sum(partition.members_dbar(z)[-1], axis=0)
    assert np.max(np.abs(total)) < 1e-10


def test_sum_is_exact(partition):
    rng = np.random.default_rng(7)
    z = rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)
    for fam, kw in [("conj-linear", {}), ("bump", {"radius": 2.0}),
                    ("step", {"radius": 2.0})]:
        f = symbols.make(fam, **kw)
        D = decompose(f, partition, 2.0, 6)
        assert np.max(np.abs(D.f1(z) + D.f2(z) - f(z))) < 1e-12


def test_holomorphic_symbol_trivial(partition):
    f = symbols.make("holo-poly", coeffs=[1.0, 0.5, -0.25])
    D = decompose(f, partition, 2.0, 6)
    rng = np.random.default_rng(8)
    z = rng.uniform(-1.5, 1.5, 25) + 1j * rng.uniform(-1.5, 1.5, 25)
    assert np.max(np.abs(D.f2(z))) < 1e-8
    assert np.max(np.abs(D.dbar_f1(z))) < 1e-8


def test_dbar_f1_matches_finite_differences(partition):
    f = symbols.make("conj-gaussian", beta=1.0)
    D = decompose(f, partition, 2.0, 6)
    rng = np.random.default_rng(9)
    z = rng.uniform(-1.5, 1.5, 20) + 1j * rng.uniform(-1.5, 1.5, 20)
    h = 1e-5
    fd = ((D.f1(z + h) - D.f1(z - h)) / (2 * h)
          + 1j * (D.f1(z + 1j * h) - D.f1(z - 1j * h)) / (2 * h)) / 2
    assert np.max(np.abs(fd - D.dbar_f1(z))) < 1e-5


def test_controls_bounded(partition):
    f = symbols.make("mixed", radius=2.0)
    D = decompose(f, partition, 2.0, 6)
    rng = np.random.default_rng(10)
    probes = rng.uniform(-1.5, 1.5, 20) + 1j * rng.uniform(-1.5, 1.5, 20)
    rep, = verify_controls([D], probes, 0.5, 2.0)
    assert np.isfinite(rep.max_ratio_dbar)
    assert np.isfinite(rep.max_ratio_m)
    assert rep.sup_dbar_f1 < 20.0
    assert rep.sup_m_f2 < 20.0


def test_tight_support_factor_rejected(lattice):
    with pytest.raises(InvalidProfileError):
        build_partition(lattice, support_factor=0.9)


def test_partition_outside_coverage_raises(partition):
    # the bumps vanish identically far outside the window
    with pytest.raises(InvalidProfileError):
        partition.members(np.array([100.0 + 100.0j]))


def _dense_members(P, z):
    """The definition: every bump of the lattice at every point, (N, nz)."""
    z = np.asarray(z, dtype=complex).ravel()
    a = P.lattice.points
    u = z[None, :] - a[:, None]
    s = np.abs(u) ** 2 / P.support_radius ** 2
    inside = s < 1.0
    b = np.where(inside, (1.0 - s) ** 2, 0.0)
    db = np.where(inside, -2.0 * (1.0 - s) * u / P.support_radius ** 2, 0.0)
    total = b.sum(axis=0)
    if np.any(total <= 0):
        raise InvalidProfileError("partition denominator vanishes")
    return b / total, (db * total - b * db.sum(axis=0)) / total ** 2


def _dense_glue(D, z, weights):
    """sum_j h_j(z) w_j(z) over every centre, one polyval per centre."""
    centres = D.partition.lattice.points
    h = np.stack([np.polynomial.polynomial.polyval(z - c, coeffs)
                  for c, coeffs in zip(centres, D.coeffs)])
    return np.sum(h * weights, axis=0)


def _scatter(block, n):
    idx, _, vals = block
    out = np.zeros((n, idx.shape[1]), dtype=vals.dtype)
    np.add.at(out, (idx, np.arange(idx.shape[1])[None, :]), vals)
    return out


_FRACTION = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))


@given(data=st.data(), base_re=st.floats(-0.5, 0.5),
       base_im=st.floats(-0.5, 0.5),
       r=st.one_of(st.sampled_from([0.3, 0.7, 1.1]), st.floats(0.3, 1.5)),
       support_factor=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
       degree=st.integers(0, 4), seed=st.integers(0, 2 ** 16),
       block=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_local_partition_equals_dense_definition(data, base_re, base_im, r,
                                                 support_factor, degree,
                                                 seed, block):
    # spacings such as 0.3 make lattice arithmetic inexact, so that some
    # node-to-node distance rounds to just inside the support radius
    L = build_lattice(complex(base_re, base_im), r, Window.square(2.0))
    P = build_partition(L, support_factor)
    (m_lo, s_lo), (m_hi, s_hi) = L.ms[0], L.ms[-1]
    # cells inside the lattice, the ring of boundary cells just outside
    # it, and (fraction 0) the grid lines and nodes between cells, which
    # lie near a support circle, in point blocks of `block` points: at
    # least three blocks, some with points of both block shapes
    cells = data.draw(st.lists(
        st.tuples(st.integers(m_lo - 1, m_hi), st.integers(s_lo - 1, s_hi),
                  _FRACTION, _FRACTION), min_size=2 * block + 1,
        max_size=4 * block + 4))
    z = np.array([L.base + L.step * ((m + fx) + 1j * (s + fy))
                  for m, s, fx, fy in cells])
    rng = np.random.default_rng(seed)
    n = len(L.points)
    D = Decomposition(symbol=symbols.make("conj-linear"), partition=P,
                      coeffs=rng.normal(size=(n, degree + 1))
                      + 1j * rng.normal(size=(n, degree + 1)),
                      degree=degree)
    psi, dpsi = _dense_members(P, z)
    assert np.array_equal(_scatter(P.members(z), n), psi)
    assert np.array_equal(_scatter(P.members_dbar(z), n), dpsi)
    # both blocks carry the offsets z - a_j that the glue's Horner sum uses
    for idx, u, _ in (P.members(z), P.members_dbar(z)):
        assert np.array_equal(u, z[None, :] - L.points[idx])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "POINT_BLOCK", block)
        assert np.array_equal(D.f1(z), _dense_glue(D, z, psi))
        assert np.array_equal(D.dbar_f1(z), _dense_glue(D, z, dpsi))


def _mixed_points(L, count, seed):
    """Generic points, lattice nodes and grid-line points, shuffled."""
    rng = np.random.default_rng(seed)
    generic = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
    nodes = L.points[rng.integers(0, len(L.points), count // 8)]
    lines = nodes + L.step * rng.uniform(0, 1, nodes.size)
    return rng.permutation(np.concatenate([generic, nodes, lines]))


def test_off_circle_points_get_the_narrow_block(monkeypatch, partition):
    # W = ceil(2 rho) = 4 at the default support 2r: 16 cells a point,
    # also when other points of the same call need the 25-cell block
    L = partition.lattice
    z = _mixed_points(L, 200, 3)
    near = near_support_circle(L, z, partition.support_radius)
    assert 0 < near.sum() < z.size
    served = []
    members = PartitionOfUnity.members

    def counted(self, zs):
        block = members(self, zs)
        served.append((len(block[0]), zs))
        return block

    monkeypatch.setattr(PartitionOfUnity, "members", counted)
    D = decompose(symbols.make("conj-gaussian", beta=1.0), partition)
    f1 = D.f1(z)
    cells = {p: rows for rows, zs in served for p in zs}
    assert len(cells) == len(set(z))
    assert [cells[p] for p in z] == [25 if wide else 16 for wide in near]
    # a point's value does not depend on the points evaluated with it
    for k in range(0, z.size, 7):
        assert D.f1(z[k:k + 1])[0] == f1[k]


def test_partition_peak_memory_is_a_few_point_blocks(partition):
    D = decompose(symbols.make("conj-gaussian", beta=1.0), partition)
    z = _mixed_points(partition.lattice, 27_000, 4)
    assert z.size > 10 * decomposition.POINT_BLOCK
    block_bytes = 16 * 25 * decomposition.POINT_BLOCK
    tracemalloc.start()
    try:
        D.f1(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result and a few blocks' (cells, points) arrays
    assert peak <= z.nbytes + 4 * block_bytes


@pytest.mark.parametrize("window,z", [
    (Window.square(3.0), np.array([0.0, 100.0 + 100.0j])),
    (Window(0.1, 0.2, 0.1, 0.2), np.array([0.15 + 0.15j, 0.0])),  # no points
])
def test_local_and_dense_both_reject_uncovered_points(window, z):
    P = build_partition(build_lattice(0.0, 1.0, window))
    with pytest.raises(InvalidProfileError):
        _dense_members(P, z)
    with pytest.raises(InvalidProfileError):
        P.members(z)
    with pytest.raises(InvalidProfileError):
        P.members_dbar(z)


THM11_SYMBOLS = [("conj-linear", {}), ("conj-gaussian", {"beta": 1.0}),
                 ("bump", {"radius": 1.0}), ("mixed", {"radius": 1.0})]


def test_family_glue_equals_one_member_glue():
    # the thm11-report lattice at functional.shells=2.0,3.0 (spacing 0.5,
    # half-width 3 + 1 + 2 r at r = 1) and the ball-rule nodes about the 8
    # probes of its outer shell, where verify_controls glues f2; lattice
    # nodes and grid-line points (near a support circle), and points in
    # the ring of cells just outside the lattice
    L = build_lattice(0.0, 0.5, Window.square(6.0))
    P = build_partition(L)
    family = [decompose(symbols.make(fam, **kw), P) for fam, kw in
              THM11_SYMBOLS]
    probes = 3.0 * np.exp(2j * np.pi * np.arange(8) / 8)
    balls = (ball_rule(0.0, 1.0).nodes[:, None] + probes[None, :]).ravel()
    rng = np.random.default_rng(12)
    nodes = L.points[rng.integers(0, len(L.points), 40)]
    outside = (6.0 + 0.5 * rng.uniform(0, 1, 20)
               + 1j * rng.uniform(-6, 6, 20))
    z = np.concatenate([balls, nodes, nodes + 0.25, outside])
    assert np.all(np.abs(outside.real) > np.max(L.points.real))
    near = near_support_circle(L, z, P.support_radius)
    assert 0 < near.sum() < z.size
    f1 = decomposition._glue(family, z, dbar=False)
    dbar_f1 = decomposition._glue(family, z, dbar=True)
    f2 = decomposition._f2(family, z)
    assert f1.shape == dbar_f1.shape == f2.shape == (len(family), z.size)
    for D, a, b, c in zip(family, f1, dbar_f1, f2):
        assert np.array_equal(a, D.f1(z))
        assert np.array_equal(b, D.dbar_f1(z))
        assert np.array_equal(c, D.f2(z))
        assert np.array_equal(c, D.symbol(z) - D.f1(z))
    # and so each member's control report is its one-member report
    for D, rep in zip(family, verify_controls(family, probes, 1.0, 2.0)):
        one, = verify_controls([D], probes, 1.0, 2.0)
        for field in fields(rep):
            assert np.array_equal(getattr(rep, field.name),
                                  getattr(one, field.name))


def test_family_glue_needs_one_partition(partition, lattice):
    f = symbols.make("conj-linear")
    family = [decompose(f, partition), decompose(f, build_partition(lattice))]
    with pytest.raises(ValueError, match="one partition"):
        decomposition._glue(family, np.zeros(1), dbar=False)
