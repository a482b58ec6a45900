import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab import symbols
from focklab.decomposition import (Decomposition, InvalidProfileError,
                                   build_partition, decompose,
                                   verify_controls)
from focklab.lattice import Window, build_lattice


@pytest.fixture(scope="module")
def lattice():
    return build_lattice(0.0, 0.5, Window.square(3.0))


@pytest.fixture(scope="module")
def partition(lattice):
    return build_partition(lattice)


def test_partition_sums_to_one(partition):
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    total = np.sum(partition.members(z)[1], axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_partition_dbar_sums_to_zero(partition):
    rng = np.random.default_rng(6)
    z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    total = np.sum(partition.members_dbar(z)[1], axis=0)
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
    rep = verify_controls(D, probes, 0.5, 2.0)
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
    h = np.stack([np.polynomial.polynomial.polyval(z - c, coeffs)
                  for c, coeffs in zip(D.centres, D.coeffs)])
    return np.sum(h * weights, axis=0)


def _scatter(block, n):
    idx, vals = block
    out = np.zeros((n, idx.shape[1]), dtype=vals.dtype)
    np.add.at(out, (idx, np.arange(idx.shape[1])[None, :]), vals)
    return out


_FRACTION = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))


@given(data=st.data(), base_re=st.floats(-0.5, 0.5),
       base_im=st.floats(-0.5, 0.5),
       r=st.one_of(st.sampled_from([0.3, 0.7, 1.1]), st.floats(0.3, 1.5)),
       support_factor=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
       degree=st.integers(0, 4), seed=st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_local_partition_equals_dense_definition(data, base_re, base_im, r,
                                                 support_factor, degree,
                                                 seed):
    # spacings such as 0.3 make lattice arithmetic inexact, so that some
    # node-to-node distance rounds to just inside the support radius
    L = build_lattice(complex(base_re, base_im), r, Window.square(2.0))
    P = build_partition(L, support_factor)
    (m_lo, s_lo), (m_hi, s_hi) = L.ms[0], L.ms[-1]
    # cells inside the lattice, the ring of boundary cells just outside
    # it, and (fraction 0) the grid lines and nodes between cells
    cells = data.draw(st.lists(
        st.tuples(st.integers(m_lo - 1, m_hi), st.integers(s_lo - 1, s_hi),
                  _FRACTION, _FRACTION), min_size=2, max_size=12))
    z = np.array([L.base + L.step * ((m + fx) + 1j * (s + fy))
                  for m, s, fx, fy in cells])
    rng = np.random.default_rng(seed)
    n = len(L.points)
    D = Decomposition(symbol=symbols.make("conj-linear"), partition=P,
                      centres=L.points,
                      coeffs=rng.normal(size=(n, degree + 1))
                      + 1j * rng.normal(size=(n, degree + 1)),
                      q=2.0, degree=degree)
    psi, dpsi = _dense_members(P, z)
    assert np.array_equal(_scatter(P.members(z), n), psi)
    assert np.array_equal(_scatter(P.members_dbar(z), n), dpsi)
    assert np.array_equal(D.f1(z), _dense_glue(D, z, psi))
    assert np.array_equal(D.dbar_f1(z), _dense_glue(D, z, dpsi))


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
