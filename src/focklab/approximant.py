"""Compact approximants h_t = psi_t + sigma_t f_2 of Theorem 1.2."""

import numpy as np

from .dbar import DbarSolver, ZeroOneForm
from .fock import FockBasis
from .spectral import sampled_hankel_gram, singular_spectrum
from .symbols import Symbol


def smooth_cutoff(t: float) -> Symbol:
    """Radial cutoff: 1 on |z| <= t, cubic ramp to 0 at |z| = t + 1."""
    if t <= 0:
        raise ValueError("t must be positive")

    def sigma(z):
        rho = np.abs(z)
        u = np.clip(rho - t, 0.0, 1.0)
        return (1.0 - 3.0 * u ** 2 + 2.0 * u ** 3).astype(complex)

    def dbar(z):
        rho = np.abs(z)
        u = np.clip(rho - t, 0.0, 1.0)
        ds = -6.0 * u + 6.0 * u ** 2           # d sigma / d rho
        safe = np.where(rho > 0, rho, 1.0)
        return (0.5 * ds * z / safe).astype(complex)

    return Symbol(evaluator=sigma, dbar=dbar, support_radius=t + 1.0,
                  smoothness="C1", name=f"cutoff-{t}", params={"t": t})


def compact_approximant(f: Symbol, decomp, solver: DbarSolver, t: float,
                        basis: FockBasis, margin: int = 10) -> float:
    """Build h_t = psi_t + sigma_t f_2; returns the gap ||H_f - H_{h_t}||.

    psi_t = A_phi(sigma_t dbar f_1) so that dbar psi_t = sigma_t dbar f_1;
    the gap is the top singular value of the Hankel Gram of f - h_t.
    """
    sigma = smooth_cutoff(t)
    nodes = basis.rule.nodes

    def masked(xi, field):
        """sigma_t * field, evaluating field only inside supp(sigma_t)."""
        xi = np.asarray(xi, dtype=complex)
        s = sigma(xi)
        out = np.zeros(xi.shape, dtype=complex)
        mask = s != 0
        if np.any(mask):
            out[mask] = s[mask] * field(xi[mask])
        return out

    omega = ZeroOneForm(lambda xi: masked(xi, decomp.dbar_f1),
                        decay="compact", support_radius=t + 1.0)
    psi_vals = solver.apply(omega, nodes)
    h_vals = psi_vals + masked(nodes, decomp.f2)
    G = sampled_hankel_gram(f(nodes) - h_vals, basis, margin, basis.rule,
                            stability_check=False)
    return float(singular_spectrum(G).values[0])
