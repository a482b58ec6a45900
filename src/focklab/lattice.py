"""Square r-lattices on C, their K-step sublattices and cell indexing.

In dimension n = 1 the fundamental lattice is w1 + r*(m + i*s) for
integers m, s; the balls B(., r/2) are pairwise disjoint and the balls
B(., r) cover the plane.  A lattice is materialized over a finite window
from one np.mgrid of its (s, m) pairs, so a cell's index is arithmetic.
"""

from dataclasses import dataclass

import numpy as np

POINT_CAP = 200_000


@dataclass(frozen=True)
class Window:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("window is degenerate")

    def contains(self, z, margin: float = 0.0):
        """Whether z lies in the window less margin; elementwise on arrays."""
        x, y = np.real(z), np.imag(z)
        return ((self.xmin + margin <= x) & (x <= self.xmax - margin)
                & (self.ymin + margin <= y) & (y <= self.ymax - margin))

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
    s, m = (a.ravel() for a in np.mgrid[s_lo:s_hi + 1, m_lo:m_hi + 1])
    return Lattice(base=complex(base), r=float(r), window=window,
                   points=base + step * (m + 1j * s),
                   ms=np.column_stack([m, s]))


def sublattice_ids(L: Lattice, K: int) -> np.ndarray:
    """Sublattice id (1 .. K^2) of each point: the residue class of its
    (m, s) modulo K, numbered s-major."""
    return np.mod(L.ms[:, 1], K) * K + np.mod(L.ms[:, 0], K) + 1


def split_sublattices(L: Lattice, K: int) -> list[Sublattice]:
    """Partition into the K^2 residue-class sublattices, each in lattice
    order, from one id per point: O(points + K^2), not a mask per class."""
    if K < 1:
        raise ValueError("modulus K must be >= 1")
    ids = sublattice_ids(L, K)
    counts = np.bincount(ids, minlength=K * K + 1)[1:]
    parts = np.split(L.points[np.argsort(ids, kind="stable")],
                     np.cumsum(counts)[:-1])
    return [Sublattice(index=i + 1, points=pts, representative=L.base
                       + L.step * (i % K + 1j * (i // K)))
            for i, pts in enumerate(parts)]


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
    (m_lo, s_lo), (m_hi, s_hi) = L.ms[0], L.ms[-1]
    on = ((m >= m_lo) & (m <= m_hi)) & ((s >= s_lo) & (s <= s_hi))
    row = (np.clip(s, s_lo, s_hi) - s_lo).astype(np.intp)
    col = (np.clip(m, m_lo, m_hi) - m_lo).astype(np.intp)
    return row * (m_hi - m_lo + 1) + col, on


def _cell_origin(L: Lattice, z: np.ndarray, radius: float):
    """The W x W block of cells of each point: W = ceil(2 rho) with
    rho = radius / step, the lower disk corner lo = (x, y) - rho and the
    first cell `start` = floor(lo) + 1 per axis, in grid units.  Also
    whether the point lies within rounding of a support circle: whether
    the cells start - 1 or start + W, just outside its block, lie under
    1e-9 cells past rho, so that rounding could put them inside."""
    rho = radius / L.step
    width = int(np.ceil(2.0 * rho))
    x, y = _grid_coords(L, z)
    lo = np.stack([x - rho, y - rho])
    start = np.floor(lo) + 1.0
    below = lo - (start - 1.0)
    above = start + width - lo - 2.0 * rho
    near = np.minimum(below, above).min(axis=0) < 1e-9
    return lo, start, width, near


def near_support_circle(L: Lattice, z, radius: float) -> np.ndarray:
    """Whether each point of z lies within rounding of a support circle,
    and so needs the wider block of neighbour_cells."""
    z = np.asarray(z, dtype=complex).ravel()
    return _cell_origin(L, z, radius)[-1]


def neighbour_cells(L: Lattice, z, radius: float):
    """Indices of the lattice cells that can lie within `radius` of z.

    With rho = radius / step, the open disk around a query point meets at
    most W = ceil(2 rho) grid lines per axis, the first one just past
    x - rho; a point gets that W x W block (4 x 4 at the default support
    2r).  A point so close to a support circle that rounding could put a
    lattice point on either side of it (near_support_circle) gets a block
    one cell wider and centred on it instead, which leaves out only cells
    at least half a cell past the radius.  The points of z share one
    block shape, the wider one if any point needs it: a caller that
    splits its points by near_support_circle gives each point its own.
    Returns (index, on-lattice mask), both of shape (cells, nz), each
    column in lattice order; the W x W block is a sub-block of the wider
    one, in the same order.
    """
    z = np.asarray(z, dtype=complex).ravel()
    lo, start, width, near = _cell_origin(L, z, radius)
    if near.any():
        width += 1
        start = np.floor(lo + 0.5)
    offsets = np.arange(width, dtype=float)
    m = start[0][None, None, :] + offsets[None, :, None]
    s = start[1][None, None, :] + offsets[:, None, None]
    idx, on = cell_index(L, m, s)
    return idx.reshape(-1, z.size), on.reshape(-1, z.size)


def export_points_csv(L: Lattice, K: int = 1) -> list[tuple]:
    """Rows (index, re, im, sublattice_id) in enumeration order."""
    sub_id = sublattice_ids(L, K)
    return [(i, p.real, p.imag, int(sub_id[i]))
            for i, p in enumerate(L.points)]
