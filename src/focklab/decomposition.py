"""Lattice-subordinate partition of unity and the f = f1 + f2 splitting.

Each lattice point a_j carries a radial quartic bump supported in
B(a_j, 2r); the normalized bumps psi_j sum to one on the window interior.
f1 glues the local least-squares holomorphic approximants h_j (fitted on
B(a_j, 2r)) through the partition, and f2 = f - f1.  Since each h_j is
holomorphic, dbar f1 = sum_j h_j dbar psi_j in closed form.

The covering has bounded overlap: a point z sees only the bumps of the
lattice cells next to it, a block of W^2 = ceil(2 rho)^2 cells with
rho = support radius / step (16 at the default support 2r) however large
the window; only a point within rounding of a support circle gets the
(W+1)^2 block centred on it (see lattice.neighbour_cells).  f1 and
dbar f1 are evaluated POINT_BLOCK points at a time, each block split into
the points of either block shape.  Bumps, psi_j, dbar psi_j and the h_j
(stored as one (N, d+1) coefficient array and summed by Horner's rule)
are evaluated on a point's cells only, and summed over them in lattice
order; the other terms of each sum are exact zeros, so the values are
those of the sum over every centre, to the bit.

The glue takes a family: several decompositions on one partition, whose
cell blocks depend on the points alone, so each block is formed once and
serves every member, whose row equals its one-member family's bit for
bit; f1, dbar_f1 and f2 are the one-member case.  verify_controls takes
a family too, so a report on several symbols makes one partition pass
over the probes' balls.  decompose at q = 2 forms the fits' coefficients
only: their residual G is not read here.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .lattice import Lattice, near_support_circle, neighbour_cells
from .oscillation import fit_coefficients, g_functional, ida_distance, \
    mean_oscillation
from .quadrature import ball_rule  # noqa: F401 (perfbench/layers.py hooks it)
from .symbols import Symbol

# points per block of a partition evaluation: each (cells, points) array
# of a block holds 16 x 2,048 values at the default support
POINT_BLOCK = 2048


class InvalidProfileError(ValueError):
    """Bump profile not strictly positive on B(0, r)."""


def _cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the cells of a (cells, nz) block, one row after another in
    lattice order: numpy's sum takes that order for nz > 1 but not for
    nz = 1, and a point's value must not depend on its group."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


@dataclass(frozen=True)
class PartitionOfUnity:
    lattice: Lattice
    support_radius: float      # 2r

    def _bump_data(self, z: np.ndarray, dbar: bool):
        """Offsets u = z - a_j, bumps b_j(z), their column sums and (with
        dbar) dbar b_j(z) on the block of neighbouring cells; the block,
        offsets, bumps and derivatives have shape (cells, nz) and are
        updated in place to keep temporaries few."""
        z = np.asarray(z, dtype=complex).ravel()
        if len(self.lattice.points) == 0:
            raise InvalidProfileError("partition of an empty lattice")
        idx, on = neighbour_cells(self.lattice, z, self.support_radius)
        u = z[None, :] - self.lattice.points.take(idx)
        s = np.abs(u)
        s **= 2
        s /= self.support_radius ** 2
        outside = ~(on & (s < 1.0))
        s -= 1.0                                # s - 1 = -(1 - s) exactly
        b = np.square(s)                        # (1 - s)^2
        b[outside] = 0.0
        db = None
        if dbar:
            db = 2.0 * s * u                    # -2 (1 - s) u
            db /= self.support_radius ** 2
            db[outside] = 0.0
        total = _cell_sum(b)
        if np.any(total <= 0):
            raise InvalidProfileError(
                "partition denominator vanishes; "
                "lattice does not cover the query points")
        return idx, u, b, db, total

    def members(self, z):
        """(idx, u, psi): psi[i, k] = psi_{idx[i, k]}(z_k) on the block of
        neighbouring cells, u[i, k] = z_k - a_{idx[i, k]}; every other
        psi_j(z_k) is zero."""
        idx, u, b, _, total = self._bump_data(z, dbar=False)
        b /= total
        return idx, u, b

    def members_dbar(self, z):
        """(idx, u, dbar psi) on the same block, from the closed-form bump
        derivative."""
        idx, u, b, db, total = self._bump_data(z, dbar=True)
        dtotal = _cell_sum(db)
        db *= total
        db -= b * dtotal
        db /= total ** 2
        return idx, u, db

    def point_groups(self, z: np.ndarray):
        """Index arrays into the 1-D array z, POINT_BLOCK points at a time:
        each block's points off the support circles, then those near one,
        so that members gives every point of a group its own block."""
        for a in range(0, z.size, POINT_BLOCK):
            cols = np.arange(a, min(a + POINT_BLOCK, z.size))
            near = near_support_circle(self.lattice, z[cols],
                                       self.support_radius)
            for group in (cols[~near], cols[near]):
                if group.size:
                    yield group


@dataclass(frozen=True)
class Decomposition:
    symbol: Symbol
    partition: PartitionOfUnity
    coeffs: np.ndarray         # (N, d+1) coefficients of (z - centre_j)^i
    degree: int

    def f1(self, z) -> np.ndarray:
        return _glue([self], z, dbar=False)[0]

    def f2(self, z) -> np.ndarray:
        return _f2([self], z)[0]

    def dbar_f1(self, z) -> np.ndarray:
        return _glue([self], z, dbar=True)[0]


def _glue(family, z, dbar: bool) -> np.ndarray:
    """sum_j h_j(z) w_j(z), w = psi (dbar psi with dbar), for each member
    of `family` (decompositions on one partition) at each point of z, of
    any shape; the result has a leading member axis.

    The block (idx, u, w) of each group of partition.point_groups is
    formed once and serves every member, whose h_j are summed by Horner's
    rule in the offsets u = z - a_j, one coefficient column at a time; each
    member's row equals its one-member family's bit for bit."""
    P = family[0].partition
    if any(D.partition is not P for D in family):
        raise ValueError("a decomposition family needs one partition")
    members = P.members_dbar if dbar else P.members
    zf = np.asarray(z, dtype=complex)
    zs = zf.ravel()
    out = np.empty((len(family), zs.size), dtype=complex)
    for cols in P.point_groups(zs):
        idx, u, w = members(zs[cols])
        for row, D in zip(out, family):
            h = D.coeffs[:, -1].take(idx)
            for j in range(D.coeffs.shape[1] - 2, -1, -1):
                h *= u
                h += D.coeffs[:, j].take(idx)
            h *= w
            row[cols] = _cell_sum(h)
    return out.reshape((len(family),) + zf.shape)


def _f2(family, z) -> np.ndarray:
    """f2 = f - f1 of each member of `family` at z (see _glue)."""
    zf = np.asarray(z, dtype=complex)
    out = _glue(family, zf, dbar=False)
    for row, D in zip(out, family):
        np.subtract(D.symbol(zf), row, out=row)
    return out


def build_partition(L: Lattice, support_factor: float = 2.0) -> PartitionOfUnity:
    """Partition of unity with bumps supported in B(a_j, support_factor*r)."""
    if support_factor <= 1.0:
        raise InvalidProfileError(
            "bump support must exceed the covering radius r")
    return PartitionOfUnity(lattice=L, support_radius=support_factor * L.r)


def decompose(f: Symbol, P: PartitionOfUnity, q: float = 2.0,
              d: int = 6) -> Decomposition:
    """Fit h_j on B(a_j, 2r) and assemble f1 = sum h_j psi_j.  The fits'
    residual G is not read here, so q = 2 forms their coefficients only
    (fit_coefficients); q != 2 takes ida_distance, whose IRLS needs it."""
    fit = (P.lattice.points, P.support_radius)
    if q == 2.0:
        coeffs = fit_coefficients(f, *fit, d)
    else:
        coeffs = ida_distance(f, *fit, q, d).coeffs
    return Decomposition(symbol=f, partition=P, coeffs=coeffs, degree=d)


@dataclass(frozen=True)
class ControlReport:
    sup_dbar_f1: float
    sup_m_f2: float
    max_ratio_dbar: float
    max_ratio_m: float
    g_values: np.ndarray
    abs_dbar_f1: np.ndarray    # |dbar f1| at each probe


def verify_controls(family, probes, r: float,
                    q: float = 2.0) -> list:
    """Empirical constants for |dbar f1| <~ G and M_{q,r}(f2) <~ G at
    each point of the 1-D array probes, one ControlReport per member of
    `family` (decompositions on one partition, see _glue).  G and
    |dbar f1| are each member's own: a fit per probe, and dbar_f1 at the
    probes.  The f2 samples on the probes' balls, most of the partition
    work, are glued for the whole family in one pass."""
    G = [g_functional(D.symbol, probes, r, q, D.degree) for D in family]
    dbar = [np.abs(D.dbar_f1(probes)) for D in family]
    m = mean_oscillation(partial(_f2, family), probes, r, q)
    reports = []
    for g_vals, dbar_vals, m_vals in zip(G, dbar, m):
        floor = max(1e-12, 1e-6 * float(np.max(g_vals, initial=0.0)))
        denom = np.maximum(g_vals, floor)
        reports.append(ControlReport(
            sup_dbar_f1=float(np.max(dbar_vals)),
            sup_m_f2=float(np.max(m_vals)),
            max_ratio_dbar=float(np.max(dbar_vals / denom)),
            max_ratio_m=float(np.max(m_vals / denom)),
            g_values=g_vals, abs_dbar_f1=dbar_vals))
    return reports
