"""Lattice-subordinate partition of unity and the f = f1 + f2 splitting.

Each lattice point a_j carries a radial quartic bump supported in
B(a_j, 2r); the normalized bumps psi_j sum to one on the window interior.
f1 glues the local least-squares holomorphic approximants h_j (fitted on
B(a_j, 2r)) through the partition, and f2 = f - f1.  Since each h_j is
holomorphic, dbar f1 = sum_j h_j dbar psi_j in closed form.

The covering has bounded overlap: a point z sees only the bumps of the
lattice cells next to it, a block of ceil(2 rho)^2 cells with
rho = support radius / step (16 at the default support 2r) however large
the window (see lattice.neighbour_cells).  Bumps, psi_j, dbar psi_j and
the h_j (stored as one (N, d+1) coefficient array and summed by Horner's
rule) are evaluated on that block only, in lattice order; the other
terms of each sum are exact zeros.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, neighbour_cells
from .oscillation import g_functional, ida_distance, mean_oscillation
from .quadrature import ball_rule  # noqa: F401 (perfbench/layers.py hooks it)
from .symbols import Symbol


class InvalidProfileError(ValueError):
    """Bump profile not strictly positive on B(0, r)."""


@dataclass(frozen=True)
class PartitionOfUnity:
    lattice: Lattice
    support_radius: float      # 2r

    def _bump_data(self, z: np.ndarray):
        """Bumps b_j(z), dbar b_j(z) and their column sums on the block of
        neighbouring cells; the block, bumps and derivatives have shape
        (cells, nz) and are updated in place to keep temporaries few."""
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
        db = 2.0 * s * u                        # -2 (1 - s) u
        db /= self.support_radius ** 2
        db[outside] = 0.0
        total = b.sum(axis=0)
        if np.any(total <= 0):
            raise InvalidProfileError(
                "partition denominator vanishes; "
                "lattice does not cover the query points")
        return idx, b, db, total

    def members(self, z):
        """(idx, psi): psi[i, k] = psi_{idx[i, k]}(z_k) on the block of
        neighbouring cells; every other psi_j(z_k) is zero."""
        idx, b, _, total = self._bump_data(z)
        b /= total
        return idx, b

    def members_dbar(self, z):
        """(idx, dbar psi) on the same block, from the closed-form bump
        derivative."""
        idx, b, db, total = self._bump_data(z)
        dtotal = db.sum(axis=0)
        db *= total
        db -= b * dtotal
        db /= total ** 2
        return idx, db


@dataclass(frozen=True)
class Decomposition:
    symbol: Symbol
    partition: PartitionOfUnity
    centres: np.ndarray        # (N,) expansion points of the h_j
    coeffs: np.ndarray         # (N, d+1) coefficients of (z - centre_j)^i
    q: float
    degree: int

    def _glue(self, zf: np.ndarray, members) -> np.ndarray:
        """sum_j h_j(z) w_j(z) over the block (idx, w) = members(z).

        Horner's rule on the gathered rows, one coefficient column at a
        time."""
        z = zf.ravel()
        idx, w = members(z)
        u = z[None, :] - self.centres.take(idx)
        h = self.coeffs[:, -1].take(idx)
        for j in range(self.coeffs.shape[1] - 2, -1, -1):
            h *= u
            h += self.coeffs[:, j].take(idx)
        h *= w
        return h.sum(axis=0).reshape(zf.shape)

    def f1(self, z) -> np.ndarray:
        return self._glue(np.asarray(z, dtype=complex), self.partition.members)

    def f2(self, z) -> np.ndarray:
        zf = np.asarray(z, dtype=complex)
        return self.symbol(zf) - self.f1(zf)

    def dbar_f1(self, z) -> np.ndarray:
        return self._glue(np.asarray(z, dtype=complex),
                          self.partition.members_dbar)

    def f2_symbol(self) -> Symbol:
        return Symbol(evaluator=self.f2, name=f"{self.symbol.name}-f2")


def build_partition(L: Lattice, support_factor: float = 2.0) -> PartitionOfUnity:
    """Partition of unity with bumps supported in B(a_j, support_factor*r)."""
    if support_factor <= 1.0:
        raise InvalidProfileError(
            "bump support must exceed the covering radius r")
    return PartitionOfUnity(lattice=L, support_radius=support_factor * L.r)


def decompose(f: Symbol, P: PartitionOfUnity, q: float = 2.0,
              d: int = 6) -> Decomposition:
    """Fit h_j on B(a_j, 2r) and assemble f1 = sum h_j psi_j."""
    centres = P.lattice.points
    fit = ida_distance(f, centres, P.support_radius, q, d)
    return Decomposition(symbol=f, partition=P, centres=centres,
                         coeffs=fit.coeffs, q=q, degree=d)


@dataclass(frozen=True)
class ControlReport:
    sup_dbar_f1: float
    sup_m_f2: float
    max_ratio_dbar: float
    max_ratio_m: float
    g_values: np.ndarray
    probes: np.ndarray


def verify_controls(D: Decomposition, probes, r: float,
                    q: float = 2.0) -> ControlReport:
    """Empirical constants for |dbar f1| <~ G and M_{q,r}(f2) <~ G."""
    probes = np.atleast_1d(np.asarray(probes, dtype=complex))
    G = g_functional(D.symbol, probes, r, q, D.degree)
    dbar_vals = np.abs(D.dbar_f1(probes))
    m_vals = mean_oscillation(D.f2_symbol(), probes, r, q)
    floor = max(1e-12, 1e-6 * float(np.max(G, initial=0.0)))
    denom = np.maximum(G, floor)
    return ControlReport(
        sup_dbar_f1=float(np.max(dbar_vals)),
        sup_m_f2=float(np.max(m_vals)),
        max_ratio_dbar=float(np.max(dbar_vals / denom)),
        max_ratio_m=float(np.max(m_vals / denom)),
        g_values=G, probes=probes)
