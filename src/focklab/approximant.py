"""Compact approximants h_t = psi_t + sigma_t f_2 of Theorem 1.2."""

import numpy as np

from .dbar import DbarSolver
from .fock import FockBasis
from .spectral import HankelGram, sampled_hankel_gram
from .symbols import Symbol


def smooth_cutoff(t: float, z: np.ndarray) -> np.ndarray:
    """sigma_t(z): 1 on |z| <= t, a cubic ramp to 0 at |z| = t + 1."""
    u = np.clip(np.abs(z) - t, 0.0, 1.0)
    return (1.0 - 3.0 * u ** 2 + 2.0 * u ** 3).astype(complex)


def compact_approximant(f: Symbol, decomp, solver: DbarSolver, t: float,
                        basis: FockBasis, margin: int = 10) -> HankelGram:
    """Build h_t = psi_t + sigma_t f_2; returns the Hankel Gram of
    f - h_t, whose top singular value values[0] is the gap
    ||H_f - H_{h_t}|| and whose `reliable` certifies it.

    psi_t = C(sigma_t dbar f_1), the Cauchy transform, so that
    dbar psi_t = sigma_t dbar f_1.  Theorem 1.2 needs only some solution:
    A_phi(omega) - C(omega) is entire of exponential type and H_F
    vanishes on entire F of that type, so both give the same H_{h_t}.
    But C(omega) is O(1/z) off supp sigma_t, while A_phi(omega) grows
    like e^{alpha (t+1) |z|}, whose products with e_j the degree-D'
    projection cannot represent.  Whether the degree-D basis reaches the
    cutoff is read off the Gram's degree_shift, the move of the gap from
    degree D - 2 to D.
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

    omega = Symbol(lambda xi: masked(xi, decomp.dbar_f1),
                   support_radius=t + 1.0)
    psi_vals = solver.cauchy_apply(omega, nodes)
    h_vals = psi_vals + masked(nodes, decomp.f2)
    return sampled_hankel_gram(f(nodes) - h_vals, basis.weight,
                               basis.degree, margin, basis.rule)
