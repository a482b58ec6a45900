"""Closed-form Hankel singular values on F^2_phi, phi = alpha |z|^2 / 2.

For f = conj(z)^k g(|z|^2), k in {0, 1}, f(e^{it} z) = e^{-ikt} f(z), so
H_f e_j = f e_j - lambda_j e_{j-k} lies in the angular mode j - k and
H_f* H_f is diagonal in {e_j}: s_j = ||f e_j - lambda_j e_{j-k}|| is a
one-dimensional integral in |z|^2 (Grudsky & Vasilevski, Integral
Equations Operator Theory 44, 2002).  With c_j^2 = pi j! / alpha^{j+1}:

- conj-linear: s_j = 1 / sqrt(alpha) for every j;
- conj-gaussian(beta): s_j^2 = (j+1) alpha^{j+1} / (alpha+2beta)^{j+2}
  - j alpha^{2j+1} / (alpha+beta)^{2j+2};
- holo-poly: H_f = 0.

The Weyl operators W_a g(z) = e^{alpha(z conj(a) - |a|^2/2)} g(z - a) are
unitary on F^2_phi and commute with the Bergman projection, so
H_{f(. - a)} = W_a H_f W_a* has the same singular values (Zhu, Analysis
on Fock Spaces, GTM 263, 2012).

Each function returns s_0, ..., s_degree of the images of e_0 .. e_degree
sorted non-increasing, as a truncated Hankel Gram lists them.
"""

import numpy as np


def conj_linear(alpha: float, degree: int) -> np.ndarray:
    return np.full(degree + 1, 1.0 / np.sqrt(alpha))


def conj_gaussian(alpha: float, beta: float, degree: int) -> np.ndarray:
    j = np.arange(degree + 1)
    a2, a1 = alpha + 2.0 * beta, alpha + beta
    # the powers as powers of ratios below 1, which cannot overflow
    s2 = ((j + 1) * (alpha / a2) ** (j + 1) / a2
          - j * (alpha / a1) ** (2 * j + 1) / a1)
    return np.sort(np.sqrt(s2))[::-1]


def holo_poly(degree: int) -> np.ndarray:
    return np.zeros(degree + 1)
