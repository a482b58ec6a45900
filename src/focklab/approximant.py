"""Compact approximants h_t = psi_t + sigma_t f_2 of Theorem 1.2.

By Cauchy-Pompeiu h_t = sigma_t f - C(f_1 dbar sigma_t), with C the
Cauchy transform: its form lives on the ramp annulus t <= |xi| <= t + 1
of the cutoff sigma_t and reads f_1, not dbar f_1 (compact_approximant).
"""

import numpy as np

from .dbar import cauchy_transform
from .fock import FockBasis
from .spectral import HankelGram, sampled_hankel_gram
from .symbols import Symbol


def smooth_cutoff(t: float, z: np.ndarray) -> np.ndarray:
    """sigma_t(z): 1 on |z| <= t, a cubic ramp to 0 at |z| = t + 1."""
    u = np.clip(np.abs(z) - t, 0.0, 1.0)
    return (1.0 - 3.0 * u ** 2 + 2.0 * u ** 3).astype(complex)


def dbar_cutoff(t: float, z: np.ndarray) -> np.ndarray:
    """dbar sigma_t(z) = -3 u (1 - u) z / |z| with u = |z| - t on the ramp
    t < |z| < t + 1, and 0 off it."""
    r = np.abs(z)
    u = np.clip(r - t, 0.0, 1.0)
    return -3.0 * u * (1.0 - u) * z / np.maximum(r, t)


def ramp_form(t: float, decomp) -> Symbol:
    """The form f_1 dbar sigma_t on the ramp annulus t <= |xi| <= t + 1,
    reading f_1 only where dbar sigma_t != 0, strictly inside it."""
    def form(xi):
        out = dbar_cutoff(t, xi)
        on = out != 0
        out[on] *= decomp.f1(xi[on])
        return out

    return Symbol(form, support_radius=t + 1.0, inner_radius=t)


def compact_approximant(f: Symbol, decomp, t: float, basis: FockBasis,
                        margin: int = 10) -> HankelGram:
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

    psi_t is not formed from dbar f_1: sigma_t f_1 is C^1 with compact
    support, so by Cauchy-Pompeiu (Hormander, An Introduction to Complex
    Analysis in Several Variables, Thm 1.2.1) it is C(dbar(sigma_t f_1)),
    and psi_t = sigma_t f_1 - C(f_1 dbar sigma_t).  Hence
    h_t = sigma_t f - C(f_1 dbar sigma_t), and the Gram samples
    f - h_t = (1 - sigma_t) f + C(f_1 dbar sigma_t), whose form lives on
    the ramp annulus t <= |xi| <= t + 1: f_1 is read only inside it.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    nodes = basis.rule.nodes
    samples = (1.0 - smooth_cutoff(t, nodes)) * f(nodes)
    samples += cauchy_transform(ramp_form(t, decomp), nodes)
    return sampled_hankel_gram(samples, basis.weight, basis.degree, margin,
                               basis.rule)
