"""Square r-lattices on C, their K-step sublattices, and covering checks.

In dimension n = 1 the fundamental lattice is w1 + r*(m + i*s) for
integers m, s; the balls B(., r/2) are pairwise disjoint and the balls
B(., r) cover the plane.  Lattices are materialized over finite windows.
"""

from dataclasses import dataclass

import numpy as np

POINT_CAP = 200_000


class WindowError(ValueError):
    """Query point outside the safe (margin-shrunk) window."""


@dataclass(frozen=True)
class Window:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("window is degenerate")

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (self.xmin + margin <= z.real <= self.xmax - margin
                and self.ymin + margin <= z.imag <= self.ymax - margin)

    @staticmethod
    def square(half: float) -> "Window":
        return Window(-half, half, -half, half)


@dataclass(frozen=True)
class Lattice:
    base: complex
    r: float
    window: Window
    points: np.ndarray         # complex, lexicographic in (s, m)
    ms: np.ndarray             # integer pairs (m, s), same order

    @property
    def step(self) -> float:
        return self.r          # r / sqrt(n) with n = 1

    @property
    def cell_area(self) -> float:
        return self.step ** 2


@dataclass(frozen=True)
class Sublattice:
    parent: Lattice
    modulus: int
    index: int                 # 1 .. K^2
    representative: complex
    points: np.ndarray


def build_lattice(base: complex, r: float, window: Window) -> Lattice:
    if r <= 0:
        raise ValueError("spacing r must be positive")
    step = r
    m_lo = int(np.ceil((window.xmin - base.real) / step))
    m_hi = int(np.floor((window.xmax - base.real) / step))
    s_lo = int(np.ceil((window.ymin - base.imag) / step))
    s_hi = int(np.floor((window.ymax - base.imag) / step))
    count = max(0, m_hi - m_lo + 1) * max(0, s_hi - s_lo + 1)
    if count > POINT_CAP:
        raise ValueError(f"window would enumerate {count} points "
                         f"(cap {POINT_CAP})")
    pts, ms = [], []
    for s in range(s_lo, s_hi + 1):
        for m in range(m_lo, m_hi + 1):
            pts.append(base + step * (m + 1j * s))
            ms.append((m, s))
    return Lattice(base=complex(base), r=float(r), window=window,
                   points=np.asarray(pts, dtype=complex),
                   ms=np.asarray(ms, dtype=int).reshape(-1, 2))


def covering_multiplicity(L: Lattice, z: complex, factor: float) -> int:
    """Number of lattice points a with |z - a| < factor * r."""
    radius = factor * L.r
    if not L.window.contains(complex(z), margin=radius):
        raise WindowError(f"point {z} too close to the window boundary "
                          f"for radius {radius}")
    return int(np.count_nonzero(np.abs(L.points - z) < radius))


def split_sublattices(L: Lattice, K: int) -> list[Sublattice]:
    """Partition into K^2 residue-class sublattices (eq-style residues)."""
    if K < 1:
        raise ValueError("modulus K must be >= 1")
    subs = []
    index = 1
    for s0 in range(K):
        for m0 in range(K):
            mask = (np.mod(L.ms[:, 0], K) == m0) & (np.mod(L.ms[:, 1], K) == s0)
            rep = L.base + L.step * (m0 + 1j * s0)
            subs.append(Sublattice(parent=L, modulus=K, index=index,
                                   representative=rep, points=L.points[mask]))
            index += 1
    return subs


def _grid_coords(L: Lattice, z: np.ndarray):
    """(x, y) with z = base + step * (x + i y)."""
    return ((z.real - L.base.real) / L.step,
            (z.imag - L.base.imag) / L.step)


def cell_index(L: Lattice, m, s):
    """Index into L.points of the integer cells (m, s), and the mask of
    those on the lattice.

    The points fill the window rectangle in (s, m) lexicographic order,
    so the index is arithmetic; an off-lattice cell gets the index of
    the lattice cell nearest to it.  m and s are float arrays of whole
    numbers (a far query point must not overflow an integer cast); they
    broadcast, so per-axis arrays give the index of the whole block.
    """
    if len(L.ms) == 0:
        shape = np.broadcast_shapes(np.shape(m), np.shape(s))
        return np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=bool)
    (m_lo, s_lo), (m_hi, s_hi) = L.ms[0], L.ms[-1]
    on = ((m >= m_lo) & (m <= m_hi)) & ((s >= s_lo) & (s <= s_hi))
    row = (np.clip(s, s_lo, s_hi) - s_lo).astype(np.intp)
    col = (np.clip(m, m_lo, m_hi) - m_lo).astype(np.intp)
    return row * (m_hi - m_lo + 1) + col, on


def neighbour_cells(L: Lattice, z, radius: float):
    """Indices of the lattice cells that can lie within `radius` of z.

    With rho = radius / step, the open disk around a query point meets at
    most W = ceil(2 rho) grid lines per axis, the first one just past
    x - rho; each point gets that W x W block.  When some point of the
    batch is so close to a support circle that rounding could put a
    lattice point on either side of it, every point gets a block one cell
    wider and centred on it instead, which leaves out only cells at least
    half a cell past the radius.  Returns (index, on-lattice mask), both
    of shape (cells, nz), each column in lattice order.
    """
    z = np.asarray(z, dtype=complex).ravel()
    rho = radius / L.step
    width = int(np.ceil(2.0 * rho))
    x, y = _grid_coords(L, z)
    lo = np.stack([x - rho, y - rho])
    start = np.floor(lo) + 1.0
    # the cells start - 1 and start + width lie this many cells past rho
    below = lo - (start - 1.0)
    above = start + width - lo - 2.0 * rho
    if lo.size and min(below.min(), above.min()) < 1e-9:
        width += 1
        start = np.floor(lo + 0.5)
    offsets = np.arange(width, dtype=float)
    m = start[0][None, None, :] + offsets[None, :, None]
    s = start[1][None, None, :] + offsets[:, None, None]
    idx, on = cell_index(L, m, s)
    return idx.reshape(-1, z.size), on.reshape(-1, z.size)


def nearest_distance(L: Lattice, z) -> np.ndarray:
    """Distance from each query point to the nearest lattice point.

    On a rectangular grid the nearest point rounds each coordinate to the
    nearest grid line, clamped to the window (as cell_index does).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if len(L.points) == 0:
        raise ValueError("lattice has no points")
    idx, _ = cell_index(L, *map(np.rint, _grid_coords(L, z)))
    return np.abs(z - L.points[idx])


def export_points_csv(L: Lattice, K: int = 1) -> list[tuple]:
    """Rows (index, re, im, sublattice_id) in enumeration order."""
    sub_id = np.mod(L.ms[:, 1], K) * K + np.mod(L.ms[:, 0], K) + 1
    return [(i, p.real, p.imag, int(sub_id[i]))
            for i, p in enumerate(L.points)]
