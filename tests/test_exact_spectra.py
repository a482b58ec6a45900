"""Sampled Hankel spectra against their closed forms (exact_spectra.py).

Each tolerance is a few times the largest error seen at alpha = 1 with
the default margin of 10.  The translated symbol has no rotation
character that vanishes, so it checks the Gram's all-characters path.
"""

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
