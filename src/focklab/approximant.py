"""Compact approximants h_t = psi_t + sigma_t f_2 of Theorem 1.2."""

from dataclasses import dataclass

import numpy as np

from .dbar import DbarSolver, ZeroOneForm
from .fock import FockBasis
from .spectral import sampled_hankel_gram
from .symbols import Symbol

# a gap is certified only if a margin 5 larger moves the top of its
# spectrum by at most this much
SHIFT_TOL = 1e-3


def smooth_cutoff(t: float, z: np.ndarray) -> np.ndarray:
    """sigma_t(z): 1 on |z| <= t, a cubic ramp to 0 at |z| = t + 1."""
    u = np.clip(np.abs(z) - t, 0.0, 1.0)
    return (1.0 - 3.0 * u ** 2 + 2.0 * u ** 3).astype(complex)


@dataclass(frozen=True)
class ApproximantGap:
    gap: float             # ||H_f - H_{h_t}||, the top singular value
    margin_shift: float    # its top-10 singular move at margin + 5
    reliable: bool


def compact_approximant(f: Symbol, decomp, solver: DbarSolver, t: float,
                        basis: FockBasis, margin: int = 10) -> ApproximantGap:
    """Build h_t = psi_t + sigma_t f_2; returns the gap ||H_f - H_{h_t}||
    with its certificate.

    psi_t = C(sigma_t dbar f_1), the Cauchy transform, so that
    dbar psi_t = sigma_t dbar f_1.  Theorem 1.2 needs only some solution:
    A_phi(omega) - C(omega) is entire of exponential type and H_F
    vanishes on entire F of that type, so both give the same H_{h_t}.
    But C(omega) is O(1/z) off supp sigma_t, while A_phi(omega) grows
    like e^{alpha (t+1) |z|}, whose products with e_j the degree-D'
    projection cannot represent.  The gap is the top singular value of
    the Hankel Gram of f - h_t; it is reliable when the margin shift is
    at most SHIFT_TOL and the basis reaches the cutoff.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    nodes = basis.rule.nodes

    def masked(xi, field):
        """sigma_t * field, evaluating field only inside supp(sigma_t)."""
        s = smooth_cutoff(t, xi)
        out = np.zeros(xi.shape, dtype=complex)
        mask = s != 0
        if np.any(mask):
            out[mask] = s[mask] * field(xi[mask])
        return out

    omega = ZeroOneForm(lambda xi: masked(xi, decomp.dbar_f1),
                        support_radius=t + 1.0)
    psi_vals = solver.cauchy_apply(omega, nodes)
    h_vals = psi_vals + masked(nodes, decomp.f2)
    S = sampled_hankel_gram(f(nodes) - h_vals, basis.weight, basis.degree,
                            margin, basis.rule)
    shift = S.stability_shift
    # e_j peaks at |z| = sqrt(j / alpha): a degree-D basis sees a cutoff
    # at t + 1 only if t + 1 <= sqrt(D / alpha)
    sees = t + 1.0 <= np.sqrt(basis.degree / basis.weight.alpha)
    return ApproximantGap(gap=float(S.values[0]), margin_shift=shift,
                          reliable=bool(sees and shift <= SHIFT_TOL))
