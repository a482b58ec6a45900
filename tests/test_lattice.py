import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from checks import WindowError, covering_multiplicity, nearest_distance
from focklab.lattice import (Window, build_lattice, export_points_csv,
                             split_sublattices)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_covering_and_separation(r):
    L = build_lattice(0.0, r, Window.square(5.0))
    # covering: every point of a fine interior grid is within r of a node
    g = np.linspace(-3.5, 3.5, 41)
    probes = (g[:, None] + 1j * g[None, :]).ravel()
    assert np.max(nearest_distance(L, probes)) <= r + 1e-12
    # separation: distinct nodes are at least r apart
    pts = L.points
    d = np.abs(pts[:, None] - pts[None, :])
    d[np.diag_indices_from(d)] = np.inf
    assert d.min() >= r - 1e-12


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_sublattice_partition(r, K):
    L = build_lattice(0.0, r, Window.square(5.0))
    subs = split_sublattices(L, K)
    assert len(subs) == K * K
    union = np.concatenate([s.points for s in subs])
    assert len(union) == len(L.points)
    assert set(map(tuple, np.stack([union.real, union.imag], axis=1))) == \
        set(map(tuple, np.stack([L.points.real, L.points.imag], axis=1)))


def test_covering_multiplicity_unit_lattice():
    L = build_lattice(0.0, 1.0, Window.square(5.0))
    assert covering_multiplicity(L, 0.0, 2.0) == 9


def test_multiplicity_outside_window():
    L = build_lattice(0.0, 1.0, Window.square(3.0))
    with pytest.raises(WindowError):
        covering_multiplicity(L, 10.0 + 10.0j, 2.0)


def test_point_ordering_deterministic():
    a = build_lattice(0.0, 0.5, Window.square(2.0)).points
    b = build_lattice(0.0, 0.5, Window.square(2.0)).points
    assert np.array_equal(a, b)


def test_export_rows_match_points():
    L = build_lattice(0.25 + 0.25j, 1.0, Window.square(3.0))
    rows = export_points_csv(L, K=2)
    assert len(rows) == len(L.points)
    ids = {row[3] for row in rows}
    assert ids <= set(range(1, 5))


@given(re=st.floats(-0.4, 0.4), im=st.floats(-0.4, 0.4))
@settings(max_examples=15, deadline=None)
def test_base_shift_translates_points(re, im):
    base = complex(re, im)
    L1 = build_lattice(base, 1.0, Window.square(2.0))
    # shifted points stay on the translated integer grid base + Z + iZ
    frac = (L1.points - base)
    assert np.max(np.abs(frac - np.round(frac.real) -
                         1j * np.round(frac.imag))) < 1e-12
    assert all(L1.window.contains(p) for p in L1.points)


@pytest.mark.parametrize("base,r,half", [
    (0.0, 1.0, 5.0), (0.3 - 0.7j, 1.0, 5.0), (-1.25 + 2.5j, 0.37, 3.3),
    (0.5 + 0.5j, 1.0, 0.2)])     # the last window holds no point
def test_points_are_the_per_point_definition(base, r, half):
    # base + r (m + i s) point by point, (s, m) lexicographic: the same
    # bits, signed zeros included, and the same dtypes and empty shapes
    L = build_lattice(base, r, Window.square(half))
    xs = np.arange(-100, 101)
    m = xs[(base.real + r * xs >= -half) & (base.real + r * xs <= half)]
    s = xs[(base.imag + r * xs >= -half) & (base.imag + r * xs <= half)]
    ms = [(int(a), int(b)) for b in s for a in m]
    pts = np.array([base + r * (a + 1j * b) for a, b in ms], dtype=complex)
    assert L.ms.dtype == np.int64 and L.ms.shape == (len(ms), 2)
    assert L.ms.tolist() == [list(p) for p in ms]
    assert L.points.dtype == complex and L.points.shape == pts.shape
    assert L.points.tobytes() == pts.tobytes()
