import numpy as np
import pytest

from focklab import symbols
from focklab.fock import KernelEval, default_rule_for_degree
from focklab.lattice import Window, build_lattice
from focklab.spectral import (MeasureModel, berezin_transform,
                              build_hankel_gram, essential_norm_tail,
                              hankel_on_kernel, measure_average, power_gauge,
                              sampled_hankel_gram, schatten_h_criterion,
                              schatten_sum, singular_spectrum)


@pytest.fixture(scope="module")
def conj_spectrum(basis25):
    f = symbols.make("conj-linear")
    return singular_spectrum(build_hankel_gram(f, basis25, margin=10))


def test_conj_linear_flat_spectrum(conj_spectrum):
    # H_{conj z} maps e_k to an element of norm exactly 1
    assert np.max(np.abs(conj_spectrum.values[:16] - 1.0)) < 1e-3


def test_holomorphic_spectrum_vanishes(basis25):
    f = symbols.make("holo-poly", coeffs=[0.5, 1.0, 0.0, -0.5j])
    S = singular_spectrum(build_hankel_gram(f, basis25, margin=10))
    assert S.values[0] < 1e-8


def test_margin_stability_certificate(basis25):
    f = symbols.make("conj-gaussian", beta=1.0)
    G = build_hankel_gram(f, basis25, margin=10)
    assert G.stability_shift < 1e-6


def test_gram_from_samples_matches_symbol_gram(basis25):
    f = symbols.make("conj-gaussian", beta=1.0)
    rule = default_rule_for_degree(40, 1.0, margin=8)
    G = build_hankel_gram(f, basis25, 10, rule)
    Gs = sampled_hankel_gram(f(rule.nodes), basis25, 10, rule)
    assert np.array_equal(G.matrix, Gs.matrix)
    assert G.stability_shift == Gs.stability_shift


def test_spectrum_scale_equivariance(basis25):
    from focklab.symbols import Symbol
    f = symbols.make("conj-gaussian", beta=1.0)
    g = Symbol(evaluator=lambda z: 3.0 * f(z),
               dbar=lambda z: 3.0 * f.dbar(z))
    a = singular_spectrum(build_hankel_gram(f, basis25, margin=10)).values
    b = singular_spectrum(build_hankel_gram(g, basis25, margin=10)).values
    assert np.max(np.abs(b - 3.0 * a)) < 1e-8


def test_essential_norm_conj_linear(conj_spectrum):
    est = essential_norm_tail(conj_spectrum)
    assert abs(est.estimate - 1.0) < 1e-3
    assert est.reliable


def test_essential_norm_compact_symbol(basis25):
    f = symbols.make("bump", radius=1.5)
    S = singular_spectrum(build_hankel_gram(f, basis25, margin=10))
    est = essential_norm_tail(S)
    assert est.estimate < 1e-2


def test_schatten_sum_monotone_in_p(conj_spectrum):
    s1 = schatten_sum(conj_spectrum, power_gauge(1.0)).total
    s2 = schatten_sum(conj_spectrum, power_gauge(2.0)).total
    # s_k <= 1 here, so sum of s_k dominates sum of s_k^2
    assert s1 >= s2 - 1e-9
    assert s2 > 0


def test_schatten_verdicts(basis25):
    L = build_lattice(0.0, 0.5, Window.square(5.0))
    fb = symbols.make("bump", radius=2.0)
    Sb = singular_spectrum(build_hankel_gram(fb, basis25, margin=10))
    for v in schatten_h_criterion(fb, power_gauge(2.0), 0.5, 6, L, Sb):
        assert v.integral_convergent and v.sum_convergent and v.agree
    fc = symbols.make("conj-linear")
    Sc = singular_spectrum(build_hankel_gram(fc, basis25, margin=10))
    for v in schatten_h_criterion(fc, power_gauge(2.0), 0.5, 6, L, Sc):
        assert (not v.integral_convergent) and (not v.sum_convergent)
        assert v.agree


def test_hankel_on_kernel_conj_linear(kernel25):
    f = symbols.make("conj-linear")
    # ||H_{conj z} k_z|| = 1 at every z
    for z in (0.0, 1.0 + 0.5j, 2.0):
        assert abs(hankel_on_kernel(f, z, 2.0, kernel25) - 1.0) < 1e-6


def test_berezin_of_lebesgue_is_one(kernel25):
    mu = MeasureModel(kind="density", density=None)
    for z in (0.0, 0.7 - 0.4j, 1.5):
        assert abs(berezin_transform(mu, kernel25, z) - 1.0) < 1e-8


def test_ball_average_controlled_by_berezin(kernel25):
    mu = MeasureModel(kind="density",
                      density=lambda z: np.exp(-np.abs(z) ** 2))
    rng = np.random.default_rng(12)
    z = rng.uniform(-1.5, 1.5, 15) + 1j * rng.uniform(-1.5, 1.5, 15)
    for p in z:
        bt = berezin_transform(mu, kernel25, p)
        avg = measure_average(mu, p, 0.5)
        assert avg <= 5.0 * bt


def test_power_gauge_validation():
    with pytest.raises(ValueError):
        power_gauge(0.0)
    g = power_gauge(1.0)
    assert g.h(np.array([0.0]))[0] == 0.0
    assert not g.sqrt_convex   # p < 2: recorded, not fatal
