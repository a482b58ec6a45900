"""Sampled Hankel spectra against their closed forms (exact_spectra.py).

Each tolerance is a few times the largest error seen at alpha = 1 with
the default margin of 10.  The translated symbol has no rotation
character that vanishes, so it checks the Gram's all-characters path.
"""

from math import lgamma

import numpy as np
import pytest

import exact_spectra
from focklab import symbols
from focklab.spectral import build_hankel_gram

# the floor of an eigvalsh of a Gram: s_k is known to sqrt(eps) * s_1
SQRT_EPS = 1.5e-8


@pytest.mark.parametrize("degree", [20, 40, 60, 80])
def test_conj_linear_spectrum_is_exact(weight, degree):
    # seen: 2.9e-15 at D = 80
    S = build_hankel_gram(symbols.make("conj-linear"), weight, degree)
    exact = exact_spectra.conj_linear(1.0, degree)
    assert np.max(np.abs(S.values - exact)) <= 1e-14
    assert S.stability_shift <= 1e-14


@pytest.mark.parametrize("coeffs", [[0.0, 1.0], [1.0, 1.0]])
@pytest.mark.parametrize("degree", [20, 40, 60, 80])
def test_holomorphic_spectrum_is_exact(weight, degree, coeffs):
    # seen: s_1 = 4.6e-14 at D = 80, where ||(1 + z) e_D|| is about 10
    f = symbols.make("holo-poly", coeffs=coeffs)
    S = build_hankel_gram(f, weight, degree)
    assert np.max(np.abs(S.values - exact_spectra.holo_poly(degree))) \
        <= 2e-13


@pytest.mark.parametrize("degree,top", [(40, 5e-12), (60, 1e-15),
                                        (80, 1e-15)])
def test_conj_gaussian_spectrum_is_exact(weight, degree, top):
    # seen in the top 10: 8.7e-13 at D = 40, 1.8e-16 at D = 60 and 80
    S = build_hankel_gram(symbols.make("conj-gaussian", beta=1.0), weight,
                          degree)
    exact = exact_spectra.conj_gaussian(1.0, 1.0, degree)
    assert np.max(np.abs(S.values[:10] - exact[:10])) <= top
    assert np.max(np.abs(S.values - exact)) <= SQRT_EPS * exact[0]


def test_translated_conj_gaussian_has_the_centred_spectrum(weight):
    # W_a is unitary: the same s_k; seen: 7.5e-16 in the top 10 at D = 60
    f = symbols.make("conj-gaussian", beta=1.0)
    S = build_hankel_gram(lambda z: f(np.asarray(z) - 3.0), weight, 60)
    exact = exact_spectra.conj_gaussian(1.0, 1.0, 60)
    assert np.max(np.abs(S.values[:10] - exact[:10])) <= 5e-15
    assert S.stability_shift <= 1e-15


# --- the radial references against independent evaluations --------------

RADIAL_CASES = [(1.0, 1.0), (0.5, 1.2), (2.0, 0.8), (1.0, 2.0)]


@pytest.mark.parametrize("degree", [20, 40, 80])
@pytest.mark.parametrize("alpha,radius", RADIAL_CASES)
def test_step_reference_matches_its_integral(alpha, radius, degree):
    # lambda_j = (alpha^{j+1}/j!) int_0^{R^2} rho^j e^{-alpha rho} d rho by
    # Gauss-Legendre, the weights built by the recurrence
    # w_j = w_{j-1} alpha rho / j, against the direct Poisson sums; seen:
    # 4.5e-16 s_0 at R = 2, 2.3e-16 s_0 or less elsewhere
    t, w = np.polynomial.legendre.leggauss(80)
    rho = 0.5 * radius ** 2 * (t + 1.0)
    density = alpha * np.exp(-alpha * rho)
    lam = []
    for j in range(degree + 1):
        if j:
            density = density * (alpha * rho / j)
        lam.append(0.5 * radius ** 2 * np.sum(w * density))
    lam = np.array(lam)
    independent = np.sort(np.sqrt(lam * (1.0 - lam)))[::-1]
    exact = exact_spectra.step(alpha, radius, degree)
    assert np.max(np.abs(exact - independent)) <= 1e-14 * exact[0]


def kummer_moments(x, m, degree):
    """With x = alpha R^2, (alpha^{j+1}/j!) int_0^{R^2} (1 - rho/R^2)^m
    rho^j e^{-alpha rho} d rho = x^{j+1} m!/(j+m+1)! e^{-x}
    1F1(m+1; j+m+2; x) by Kummer's transformation, j = 0 .. degree: a
    series of positive terms."""
    j = np.arange(degree + 1)
    log_front = np.array([(k + 1) * np.log(x) + lgamma(m + 1.0)
                          - lgamma(k + m + 2.0) - x for k in j])
    term, total = np.ones(degree + 1), np.ones(degree + 1)
    for n in range(200):
        term = term * ((m + 1 + n) * x / ((j + m + 2 + n) * (n + 1)))
        total += term
    return np.exp(log_front) * total


@pytest.mark.parametrize("degree", [20, 40, 80])
@pytest.mark.parametrize("alpha,radius", RADIAL_CASES)
def test_bump_reference_matches_its_kummer_series(alpha, radius, degree):
    # the Kummer series against Gauss-Legendre; seen: 2.6e-15 s_0 at
    # R = 2, 9.4e-16 s_0 or less elsewhere
    x = alpha * radius ** 2
    independent = np.sort(np.sqrt(kummer_moments(x, 4, degree)
                                  - kummer_moments(x, 2, degree) ** 2))[::-1]
    exact = exact_spectra.bump(alpha, radius, degree)
    assert np.max(np.abs(exact - independent)) <= 1e-14 * exact[0]


@pytest.mark.parametrize("degree", [20, 40, 80])
@pytest.mark.parametrize("alpha,radius", RADIAL_CASES)
def test_mixed_reference_matches_its_projection(alpha, radius, degree):
    # G = S - M^T M from the Gram S of the images f e_j and the projection
    # M[m, j] = <f e_j, e_m>, on the Kummer moments: no tridiagonal
    # algebra, and the conj(z) parts cancel from (j+1)/alpha to 1/alpha;
    # seen: 6.7e-15 s_0 at D = 80, 2.1e-15 s_0 or less at D = 20
    x = alpha * radius ** 2
    lam, mu = kummer_moments(x, 2, degree), kummer_moments(x, 4, degree)
    j = np.arange(degree + 1)
    # ||f e_j||^2, and <conj(z) e_j, b e_{j-1}> = sqrt(j/alpha) lambda_j
    S = np.diag((j + 1) / alpha + mu)
    k = j[1:]
    S[k, k - 1] = S[k - 1, k] = np.sqrt(k / alpha) * lam[1:]
    # P(conj(z) e_j) = sqrt(j/alpha) e_{j-1}, P(b e_j) = lambda_j e_j
    M = np.diag(lam)
    M[k - 1, k] = np.sqrt(k / alpha)
    independent = np.sqrt(np.linalg.eigvalsh(S - M.T @ M))[::-1]
    exact = exact_spectra.mixed(alpha, radius, degree)
    assert np.max(np.abs(exact - independent)) <= 1e-14 * exact[0]
