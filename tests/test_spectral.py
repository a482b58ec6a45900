import numpy as np
import pytest

from focklab import spectral, symbols
from focklab.fock import (FockBasis, KernelEval, build_basis,
                          default_rule_for_degree, lp_norm, normalized_kernel)
from focklab.lattice import Window, build_lattice
from focklab.quadrature import ball_rule
from focklab.spectral import (berezin_transform, build_hankel_gram,
                              essential_norm_tail, hankel_on_kernel,
                              measure_average, power_gauge,
                              sampled_hankel_gram, schatten_h_criterion,
                              schatten_sum, singular_spectrum)
from focklab.weights import gaussian_weight


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
    G = build_hankel_gram(f, basis25, 10)
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
    s1, _ = schatten_sum(conj_spectrum.values, power_gauge(1.0))
    s2, _ = schatten_sum(conj_spectrum.values, power_gauge(2.0))
    # s_k <= 1 here, so sum of s_k dominates sum of s_k^2
    assert s1 >= s2 - 1e-9
    assert s2 > 0


def test_schatten_verdicts(basis25):
    L = build_lattice(0.0, 0.5, Window.square(5.0))
    fb = symbols.make("bump", radius=2.0)
    Sb = singular_spectrum(build_hankel_gram(fb, basis25, margin=10))
    verdicts, = schatten_h_criterion(fb, [power_gauge(2.0)], 0.5, 6, L,
                                     Sb)
    for v in verdicts:
        assert v.integral_convergent and v.sum_convergent and v.agree
    fc = symbols.make("conj-linear")
    Sc = singular_spectrum(build_hankel_gram(fc, basis25, margin=10))
    verdicts, = schatten_h_criterion(fc, [power_gauge(2.0)], 0.5, 6, L,
                                     Sc)
    for v in verdicts:
        assert (not v.integral_convergent) and (not v.sum_convergent)
        assert v.agree


def test_hankel_on_kernel_conj_linear(kernel25):
    f = symbols.make("conj-linear")
    # ||H_{conj z} k_z|| = 1 at every z
    for z in (0.0, 1.0 + 0.5j, 2.0):
        assert abs(hankel_on_kernel(f, z, 2.0, kernel25) - 1.0) < 1e-6


def test_berezin_of_lebesgue_is_one(kernel25):
    for z in (0.0, 0.7 - 0.4j, 1.5):
        assert abs(berezin_transform(None, kernel25, z) - 1.0) < 1e-8


def test_ball_average_controlled_by_berezin(kernel25):
    def density(z):
        return np.exp(-np.abs(z) ** 2)

    rng = np.random.default_rng(12)
    z = rng.uniform(-1.5, 1.5, 15) + 1j * rng.uniform(-1.5, 1.5, 15)
    for p in z:
        bt = berezin_transform(density, kernel25, p)
        avg = measure_average(density, p, 0.5)
        assert avg <= 5.0 * bt


def test_power_gauge_validation():
    with pytest.raises(ValueError):
        power_gauge(0.0)
    g = power_gauge(1.0)
    assert g.h(np.array([0.0]))[0] == 0.0
    assert not g.sqrt_convex   # p < 2: recorded, not fatal


# --- reference formulas: each basis matrix built afresh on every use ---

def _reference_gram_once(fv, big, hankel_degree, proj_degree, rule):
    nodes = rule.nodes
    decay = np.exp(-2.0 * big.weight.phi(nodes))
    wE = rule.weights * decay
    E = big.evaluate(nodes, kmax=proj_degree)
    FE = fv[:, None] * E[:, :hankel_degree + 1]
    M = np.conj(E).T @ (wE[:, None] * FE)
    R = FE - E @ M
    G = np.conj(R).T @ (wE[:, None] * R)
    return 0.5 * (G + np.conj(G).T)


def _reference_gram(fv, basis, margin, rule, stability_check):
    Dp = basis.degree + margin
    big = build_basis(basis.weight, Dp + 5, rule)
    G = _reference_gram_once(fv, big, basis.degree, Dp, rule)
    if not stability_check:
        return G, np.nan
    G2 = _reference_gram_once(fv, big, basis.degree, Dp + 5, rule)
    s1, s2 = (np.sqrt(np.clip(np.linalg.eigvalsh(g), 0.0, None))[::-1]
              for g in (G, G2))
    return G, float(np.max(np.abs(s1[:10] - s2[:10])))


def _reference_hankel_on_kernel(f, z, q, K):
    basis, rule = K.basis, K.basis.rule
    kz = normalized_kernel(K, z)
    g = f(rule.nodes) * kz(rule.nodes)
    decay = np.exp(-2.0 * basis.weight.phi(rule.nodes))
    E = basis.evaluate(rule.nodes, kmax=basis.degree)
    coeffs = np.conj(E).T @ (rule.weights * decay * g)
    E = basis.evaluate(rule.nodes, kmax=len(coeffs) - 1)
    return lp_norm(g - E @ coeffs, q, rule, basis.weight)


GRAM_SYMBOLS = [("conj-linear", {}), ("mixed", {"radius": 1.0}),
                ("bump", {"radius": 1.0}),
                ("holo-poly", {"coeffs": [0.5, 1.0, 0.0, -0.5j]})]


@pytest.mark.parametrize("degree", [20, 40])
@pytest.mark.parametrize("family,params", GRAM_SYMBOLS)
def test_gram_equals_two_evaluation_reference(weight, family, params,
                                              degree):
    f = symbols.make(family, **params)
    basis = build_basis(weight, degree)
    rule = default_rule_for_degree(degree + 15, 1.0, margin=8)
    fv = f(rule.nodes)
    for check in (True, False):
        G = sampled_hankel_gram(fv, basis, 10, rule, stability_check=check)
        ref, shift = _reference_gram(fv, basis, 10, rule, check)
        assert np.array_equal(G.matrix, ref)
        assert np.array_equal(G.stability_shift, shift, equal_nan=True)


def test_hankel_on_kernel_equals_fresh_projection(weight):
    K = KernelEval(build_basis(weight, 30))
    f = symbols.make("conj-gaussian", beta=0.8)
    for z in 1.7 * np.exp(2j * np.pi * np.arange(8) / 8) + 0.3:
        assert hankel_on_kernel(f, z, 2.0, K) == \
            _reference_hankel_on_kernel(f, z, 2.0, K)


@pytest.mark.parametrize("density", [None, lambda z: np.exp(-np.abs(z) ** 2)])
def test_measure_average_equals_direct_ball_rule(density):
    rng = np.random.default_rng(5)
    for z in rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20):
        rule = ball_rule(z, 0.75)
        dens = (np.ones(rule.nodes.shape) if density is None
                else density(rule.nodes))
        direct = float(np.real(rule.integrate(dens)) / (np.pi * 0.75 ** 2))
        assert measure_average(density, z, 0.75) == direct


def _count_evaluate(monkeypatch):
    calls = []
    evaluate = FockBasis.evaluate

    def counted(self, z, kmax=None):
        calls.append(kmax)
        return evaluate(self, z, kmax)

    monkeypatch.setattr(FockBasis, "evaluate", counted)
    return calls


def test_checked_gram_evaluates_basis_once(monkeypatch, basis25):
    calls = _count_evaluate(monkeypatch)
    build_hankel_gram(symbols.make("conj-linear"), basis25, margin=10)
    assert len(calls) == 1


def test_kernel_projections_evaluate_basis_once(monkeypatch, weight):
    K = KernelEval(build_basis(weight, 25))
    calls = _count_evaluate(monkeypatch)
    f = symbols.make("conj-linear")
    for z in np.linspace(-2.0, 2.0, 16) + 0.5j:
        hankel_on_kernel(f, z, 2.0, K)
    assert len(calls) == 1


def test_checked_gram_projects_once(monkeypatch, basis25):
    # the D' Gram and the D'+5 certificate share one E^H (w f E)
    calls = []
    coefficients = spectral._coefficients

    def counted(E, wFE):
        calls.append(E.shape)
        return coefficients(E, wFE)

    monkeypatch.setattr(spectral, "_coefficients", counted)
    build_hankel_gram(symbols.make("conj-linear"), basis25, margin=10)
    assert calls == [(calls[0][0], 25 + 10 + 6)]


def test_origin_ball_memoised_read_only():
    rule = spectral._origin_ball(0.75)
    assert spectral._origin_ball(0.75) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
