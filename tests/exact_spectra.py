"""Closed-form Hankel singular values on F^2_phi, phi = alpha |z|^2 / 2.

For f = conj(z)^k g(|z|^2), k in {0, 1}, f(e^{it} z) = e^{-ikt} f(z), so
H_f e_j = f e_j - lambda_j e_{j-k} lies in the angular mode j - k and
H_f* H_f is diagonal in {e_j}: s_j = ||f e_j - lambda_j e_{j-k}|| is a
one-dimensional integral in |z|^2 (Grudsky & Vasilevski, Integral
Equations Operator Theory 44, 2002).  With c_j^2 = pi j! / alpha^{j+1}:

- conj-linear: s_j = 1 / sqrt(alpha) for every j;
- conj-gaussian(beta): s_j^2 = (j+1) alpha^{j+1} / (alpha+2beta)^{j+2}
  - j alpha^{2j+1} / (alpha+beta)^{2j+2};
- holo-poly: H_f = 0;
- a radial f = g(|z|^2) (k = 0) has s_j^2 = mu_j - lambda_j^2 with
  lambda_j, mu_j = (alpha^{j+1}/j!) int_0^inf g(rho)^{1, 2} rho^j
  e^{-alpha rho} d rho, at every truncation D <= D' of the projection,
  since P(f e_j) = lambda_j e_j.  step(R) has g = 1 on rho < R^2, so
  lambda_j = mu_j = P(Poisson(alpha R^2) >= j + 1); bump(R) has
  g = (1 - rho/R^2)^2 on rho < R^2, integrated by Gauss-Legendre on
  [0, R^2], where the integrand is a polynomial times e^{-alpha rho}.
- mixed(R) = conj(z) + bump(R): conj(z) e_j lies in the mode j - 1 and
  bump e_j in the mode j, so the Gram is tridiagonal, with
  G_jj = 1/alpha + mu_j - lambda_j^2 (the two parts' squared norms) and
  G_{j,j-1} = sqrt(j/alpha) (lambda_j - lambda_{j-1}) (the mode j - 1
  part of H_f e_j against H_f e_{j-1}), lambda and mu bump's moments.

The Weyl operators W_a g(z) = e^{alpha(z conj(a) - |a|^2/2)} g(z - a) are
unitary on F^2_phi and commute with the Bergman projection, so
H_{f(. - a)} = W_a H_f W_a* has the same singular values (Zhu, Analysis
on Fock Spaces, GTM 263, 2012).

Each function returns s_0, ..., s_degree of the images of e_0 .. e_degree
sorted non-increasing, as a truncated Hankel Gram lists them.
"""

from math import lgamma

import numpy as np

# Gauss-Legendre nodes on [0, R^2]: exact for polynomials of degree up to
# 159, which leaves room past D + 4 = 84 for e^{-alpha rho} at alpha R^2
# of a few units.  numpy's leggauss weights lose digits beyond about 100
# nodes: 80 put bump within 2e-16 s_0 of a 40-digit quadrature at
# D = 80, 200 only within 7e-15 s_0
GL_NODES = 80


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


def poisson_split(x: float, n: int):
    """(P(Poisson(x) <= j), P(Poisson(x) >= j + 1)) for j = 0 .. n - 1,
    each summed over its own terms, the tail smallest first: 1 - CDF
    would cancel below eps."""
    k = np.arange(n + int(x + 10.0 * np.sqrt(x)) + 80)
    p = np.exp(-x + k * np.log(x) - np.array([lgamma(i + 1.0) for i in k]))
    return np.cumsum(p)[:n], np.cumsum(p[::-1])[::-1][1:n + 1]


def radial_moments(alpha: float, radius: float, g, degree: int
                   ) -> np.ndarray:
    """(alpha^{j+1}/j!) int_0^{R^2} g(rho) rho^j e^{-alpha rho} d rho for
    j = 0 .. degree, by Gauss-Legendre on [0, R^2]."""
    t, w = np.polynomial.legendre.leggauss(GL_NODES)
    top = radius ** 2
    rho = 0.5 * top * (t + 1.0)
    j = np.arange(degree + 1)
    logw = (np.log(alpha) + j[:, None] * np.log(alpha * rho) - alpha * rho
            - np.array([lgamma(i + 1.0) for i in j])[:, None])
    return np.exp(logw) @ (0.5 * top * w * g(rho))


def step(alpha: float, radius: float, degree: int) -> np.ndarray:
    head, tail = poisson_split(alpha * radius ** 2, degree + 1)
    return np.sort(np.sqrt(head * tail))[::-1]


def bump_moments(alpha: float, radius: float, degree: int):
    """(lambda_j, mu_j) of bump(R): the moments of g and g^2."""
    def g(rho):
        return (1.0 - rho / radius ** 2) ** 2

    return (radial_moments(alpha, radius, g, degree),
            radial_moments(alpha, radius, lambda rho: g(rho) ** 2, degree))


def bump(alpha: float, radius: float, degree: int) -> np.ndarray:
    lam, mu = bump_moments(alpha, radius, degree)
    return np.sort(np.sqrt(mu - lam ** 2))[::-1]


def mixed(alpha: float, radius: float, degree: int) -> np.ndarray:
    lam, mu = bump_moments(alpha, radius, degree)
    j = np.arange(1, degree + 1)
    G = np.diag(1.0 / alpha + mu - lam ** 2)
    G[j, j - 1] = G[j - 1, j] = np.sqrt(j / alpha) * (lam[1:] - lam[:-1])
    return np.sqrt(np.linalg.eigvalsh(G))[::-1]
