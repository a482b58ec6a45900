import tracemalloc

import numpy as np
import pytest

from focklab import spectral, symbols
from focklab.fock import (FockBasis, build_basis,
                          default_rule_for_degree, lp_norm, normalized_kernel)
from focklab.lattice import Window, build_lattice
from focklab.oscillation import g_functional
from focklab.quadrature import ball_rule
from focklab.spectral import (berezin_transform, build_hankel_gram,
                              essential_norm_tail, hankel_on_kernel,
                              measure_average, power_gauge,
                              sampled_hankel_gram, schatten_h_criterion,
                              schatten_sum)
from focklab.weights import gaussian_weight


@pytest.fixture(scope="module")
def conj_spectrum(weight):
    f = symbols.make("conj-linear")
    return build_hankel_gram(f, weight, 25, margin=10)


def test_conj_linear_flat_spectrum(conj_spectrum):
    # H_{conj z} maps e_k to an element of norm exactly 1
    assert np.max(np.abs(conj_spectrum.values[:16] - 1.0)) < 1e-3


@pytest.mark.parametrize("alpha,degree", [(1.0, 110), (0.5, 100)])
def test_conj_linear_flat_spectrum_past_degree_100(alpha, degree):
    # s_k = 1/sqrt(alpha) for every k; at these degrees |z|^{2k} overflows
    # on the Gram's plane rule, so the basis must never form it
    S = build_hankel_gram(symbols.make("conj-linear"), gaussian_weight(alpha),
                          degree, margin=10)
    assert np.max(np.abs(S.values * np.sqrt(alpha) - 1.0)) <= 1e-12
    assert S.stability_shift <= 1e-12


def test_holomorphic_spectrum_vanishes(weight):
    f = symbols.make("holo-poly", coeffs=[0.5, 1.0, 0.0, -0.5j])
    S = build_hankel_gram(f, weight, 25, margin=10)
    assert S.values[0] < 1e-8


def test_margin_stability_certificate(weight):
    f = symbols.make("conj-gaussian", beta=1.0)
    G = build_hankel_gram(f, weight, 25, margin=10)
    assert G.stability_shift < 1e-6


def test_gram_from_samples_matches_symbol_gram(weight):
    f = symbols.make("conj-gaussian", beta=1.0)
    rule = default_rule_for_degree(40, 1.0, margin=8)
    G = build_hankel_gram(f, weight, 25, 10)
    Gs = sampled_hankel_gram(f(rule.nodes), weight, 25, 10, rule)
    assert np.array_equal(G.matrix, Gs.matrix)
    assert G.stability_shift == Gs.stability_shift


def test_spectrum_scale_equivariance(weight):
    from focklab.symbols import Symbol
    f = symbols.make("conj-gaussian", beta=1.0)
    g = Symbol(evaluator=lambda z: 3.0 * f(z),
               dbar=lambda z: 3.0 * f.dbar(z))
    a = build_hankel_gram(f, weight, 25, margin=10).values
    b = build_hankel_gram(g, weight, 25, margin=10).values
    assert np.max(np.abs(b - 3.0 * a)) < 1e-8


def test_essential_norm_conj_linear(conj_spectrum):
    est = essential_norm_tail(conj_spectrum)
    assert abs(est.estimate - 1.0) < 1e-3
    assert est.reliable


def test_essential_norm_compact_symbol(weight):
    f = symbols.make("bump", radius=1.5)
    S = build_hankel_gram(f, weight, 25, margin=10)
    est = essential_norm_tail(S)
    assert est.estimate < 1e-2


def test_schatten_sum_monotone_in_p(conj_spectrum):
    s1, _ = schatten_sum(conj_spectrum.values, power_gauge(1.0))
    s2, _ = schatten_sum(conj_spectrum.values, power_gauge(2.0))
    # s_k <= 1 here, so sum of s_k dominates sum of s_k^2
    assert s1 >= s2 - 1e-9
    assert s2 > 0


def test_schatten_verdicts(weight):
    L = build_lattice(0.0, 0.5, Window.square(5.0))
    fb = symbols.make("bump", radius=2.0)
    Sb = build_hankel_gram(fb, weight, 25, margin=10)
    verdicts, = schatten_h_criterion(g_functional(fb, L.points, 0.5, 2.0, 6),
                                     [power_gauge(2.0)], L, Sb)
    for v in verdicts:
        assert v.integral_convergent and v.sum_convergent and v.agree
    fc = symbols.make("conj-linear")
    Sc = build_hankel_gram(fc, weight, 25, margin=10)
    verdicts, = schatten_h_criterion(g_functional(fc, L.points, 0.5, 2.0, 6),
                                     [power_gauge(2.0)], L, Sc)
    for v in verdicts:
        assert (not v.integral_convergent) and (not v.sum_convergent)
        assert v.agree


def test_hankel_on_kernel_conj_linear(basis25):
    f = symbols.make("conj-linear")
    # ||H_{conj z} k_z|| = 1 at every z
    z = np.array([0.0, 1.0 + 0.5j, 2.0])
    assert np.max(np.abs(hankel_on_kernel(f, z, 2.0, basis25) - 1.0)) < 1e-6


def test_berezin_of_lebesgue_is_one(basis25):
    z = np.array([0.0, 0.7 - 0.4j, 1.5])
    assert np.max(np.abs(berezin_transform(None, basis25, z) - 1.0)) < 1e-8


def test_ball_average_controlled_by_berezin(basis25):
    def density(z):
        return np.exp(-np.abs(z) ** 2)

    rng = np.random.default_rng(12)
    z = rng.uniform(-1.5, 1.5, 15) + 1j * rng.uniform(-1.5, 1.5, 15)
    bt = berezin_transform(density, basis25, z)
    avg = measure_average(density, z, 0.5)
    assert np.all(avg <= 5.0 * bt)


def test_power_gauge_validation():
    with pytest.raises(ValueError):
        power_gauge(0.0)
    g = power_gauge(1.0)
    assert g.h(np.array([0.0]))[0] == 0.0
    assert not g.sqrt_convex   # p < 2: recorded, not fatal


# --- reference formulas: each basis matrix built afresh on every use ---

def _node_slices(n, columns):
    """The node blocks of the Gram products, from GRAM_BLOCK_BYTES."""
    step = max(1, spectral.GRAM_BLOCK_BYTES // (16 * columns))
    return [slice(a, a + step) for a in range(0, n, step)]


def _reference_gram_once(fv, big, hankel_degree, proj_degree, rule):
    # M and G summed over the node blocks of the Gram products, each
    # block's products as the whole-rule formula takes them
    nodes = rule.nodes
    decay = np.exp(-2.0 * big.weight.phi(nodes))
    wE = rule.weights * decay
    E = big.evaluate(nodes, kmax=proj_degree)
    blocks = _node_slices(len(nodes), big.degree + 1)
    FE = fv[:, None] * E[:, :hankel_degree + 1]
    M = sum(np.conj(E[b]).T @ (wE[b, None] * FE[b]) for b in blocks)
    R = FE - E @ M
    G = sum(np.conj(R[b]).T @ (wE[b, None] * R[b]) for b in blocks)
    return 0.5 * (G + np.conj(G).T)


def _unblocked_gram_once(fv, big, hankel_degree, proj_degree, rule):
    """The Gram of the residuals as one product over the whole rule."""
    wE = rule.weights * np.exp(-2.0 * big.weight.phi(rule.nodes))
    E = big.evaluate(rule.nodes, kmax=proj_degree)
    FE = fv[:, None] * E[:, :hankel_degree + 1]
    R = FE - E @ (np.conj(E).T @ (wE[:, None] * FE))
    G = np.conj(R).T @ (wE[:, None] * R)
    return 0.5 * (G + np.conj(G).T)


def _reference_gram(fv, weight, degree, margin, rule):
    Dp = degree + margin
    big = build_basis(weight, Dp + 5, rule)
    G = _reference_gram_once(fv, big, degree, Dp, rule)
    G2 = _reference_gram_once(fv, big, degree, Dp + 5, rule)
    s1, s2 = (np.sqrt(np.clip(np.linalg.eigvalsh(g), 0.0, None))[::-1]
              for g in (G, G2))
    return G, float(np.max(np.abs(s1[:10] - s2[:10])))


def _reference_hankel_on_kernel(f, z, q, basis):
    rule = basis.rule
    kz = normalized_kernel(basis, z)
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
    rule = default_rule_for_degree(degree + 15, 1.0, margin=8)
    fv = f(rule.nodes)
    G = sampled_hankel_gram(fv, weight, degree, 10, rule)
    ref, shift = _reference_gram(fv, weight, degree, 10, rule)
    assert np.array_equal(G.matrix, ref)
    # the D'+5 Gram comes by a rank-5 update, not a second residual: the
    # certificate is equal in exact arithmetic, not to the bit
    assert abs(G.stability_shift - shift) <= 1e-13


@pytest.mark.parametrize("undersized", [False, True])
@pytest.mark.parametrize("degree", [20, 40])
@pytest.mark.parametrize("family,params", GRAM_SYMBOLS + [("step", {})])
def test_margin_update_needs_no_orthonormality(weight, family, params,
                                               degree, undersized):
    # the rank-5 update is exact algebra on any rule: also on one too small
    # for E to be discretely orthonormal
    Dp = degree + 10
    rule = (default_rule_for_degree(degree, 1.0) if undersized else
            default_rule_for_degree(degree + 15, 1.0, margin=8))
    fv = symbols.make(family, **params)(rule.nodes)
    big = build_basis(weight, Dp + 5, rule)
    E = big.evaluate(rule.nodes)
    wE = rule.weights * np.exp(-2.0 * weight.phi(rule.nodes))
    FE = fv[:, None] * E[:, :degree + 1]
    # holo-poly's Gram is ~0: scale by the unprojected norms ||f e_j||^2
    scale = np.max(wE @ np.abs(FE) ** 2)
    M = np.conj(E).T @ (wE[:, None] * FE)
    _, G2 = spectral._margin_grams(fv, wE, E, M, Dp)
    ref = _reference_gram_once(fv, big, degree, Dp + 5, rule)
    assert np.max(np.abs(G2 - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("blocks", ["one", "several", "7-node"])
@pytest.mark.parametrize("family,params", GRAM_SYMBOLS)
def test_blocked_gram_equals_unblocked_formula(monkeypatch, weight, family,
                                               params, blocks):
    degree, margin = 20, 10
    Dp = degree + margin
    rule = default_rule_for_degree(degree + 15, 1.0, margin=8)
    n, columns = rule.nodes.size, Dp + 6
    rows = {"one": n, "several": n // 5 + 1, "7-node": 7}[blocks]
    monkeypatch.setattr(spectral, "GRAM_BLOCK_BYTES", 16 * columns * rows)
    fv = symbols.make(family, **params)(rule.nodes)
    big = build_basis(weight, Dp + 5, rule)
    wE = rule.weights * np.exp(-2.0 * weight.phi(rule.nodes))
    E = big.evaluate(rule.nodes)
    assert len(spectral._node_blocks(E)) == {"one": 1, "several": 5,
                                             "7-node": -(-n // 7)}[blocks]
    scale = np.max(wE @ np.abs(fv[:, None] * E[:, :degree + 1]) ** 2)
    G = sampled_hankel_gram(fv, weight, degree, margin, rule).matrix
    M = spectral._coefficients(fv, wE, E, degree)
    _, G2 = spectral._margin_grams(fv, wE, E, M, Dp)
    for got, proj in ((G, Dp), (G2, Dp + 5)):
        ref = _unblocked_gram_once(fv, big, degree, proj, rule)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale


def test_gram_peak_memory_is_the_basis_and_a_few_blocks(weight):
    # E is the one array that scales with the rule; every product built
    # from it sums over node blocks
    degree, margin = 40, 10
    f = symbols.make("mixed", radius=1.0)
    rule = default_rule_for_degree(degree + margin + 5, 1.0, margin=8)
    n = rule.nodes.size
    E_bytes = 16 * n * (degree + margin + 6)
    assert E_bytes > 2 * spectral.GRAM_BLOCK_BYTES
    tracemalloc.start()
    try:
        build_hankel_gram(f, weight, degree, margin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= E_bytes + 3 * spectral.GRAM_BLOCK_BYTES


def test_hankel_on_kernel_equals_fresh_projection(weight):
    basis = build_basis(weight, 30)
    f = symbols.make("conj-gaussian", beta=0.8)
    z = 1.7 * np.exp(2j * np.pi * np.arange(8) / 8) + 0.3
    vals = hankel_on_kernel(f, z, 2.0, basis)
    for p, val in zip(z, vals):
        assert val == _reference_hankel_on_kernel(f, p, 2.0, basis)


@pytest.mark.parametrize("density", [None, lambda z: np.exp(-np.abs(z) ** 2)])
def test_measure_average_equals_direct_ball_rule(density):
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
    vals = measure_average(density, z, 0.75)
    for p, val in zip(z, vals):
        rule = ball_rule(p, 0.75)
        dens = (np.ones(rule.nodes.shape) if density is None
                else density(rule.nodes))
        direct = float(np.real(rule.integrate(dens)) / (np.pi * 0.75 ** 2))
        assert val == direct


def _points():
    rng = np.random.default_rng(11)
    return rng.uniform(-2, 2, 6) + 1j * rng.uniform(-2, 2, 6)


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_hankel_on_kernel_array_equals_per_point(weight, q):
    # one call on a point set gives every point's own value to the bit
    basis = build_basis(weight, 30)
    f = symbols.make("conj-gaussian", beta=0.8)
    z = _points()
    vals = hankel_on_kernel(f, z, q, basis)
    assert vals.shape == z.shape
    for i in range(len(z)):
        assert vals[i] == hankel_on_kernel(f, z[i:i + 1], q, basis)[0]


@pytest.mark.parametrize("density", [None, lambda z: np.exp(-np.abs(z) ** 2)])
def test_berezin_layer_array_equals_per_point(basis25, density):
    z = _points()
    bt = berezin_transform(density, basis25, z)
    avg = measure_average(density, z, 0.75)
    assert bt.shape == avg.shape == z.shape
    for i in range(len(z)):
        assert bt[i] == berezin_transform(density, basis25, z[i:i + 1])[0]
        assert avg[i] == measure_average(density, z[i:i + 1], 0.75)[0]


def _count_evaluate(monkeypatch):
    calls = []
    evaluate = FockBasis.evaluate

    def counted(self, z, kmax=None):
        calls.append(kmax)
        return evaluate(self, z, kmax)

    monkeypatch.setattr(FockBasis, "evaluate", counted)
    return calls


def test_checked_gram_evaluates_basis_once(monkeypatch, weight):
    calls = _count_evaluate(monkeypatch)
    build_hankel_gram(symbols.make("conj-linear"), weight, 25,
                      margin=10)
    assert len(calls) == 1


def test_kernel_projections_evaluate_basis_once(monkeypatch, weight):
    basis = build_basis(weight, 25)
    calls = _count_evaluate(monkeypatch)
    f = symbols.make("conj-linear")
    hankel_on_kernel(f, np.linspace(-2.0, 2.0, 16) + 0.5j, 2.0, basis)
    assert len(calls) == 1


def test_checked_gram_projects_once(monkeypatch, weight):
    # the D' Gram and the D'+5 certificate share one projection pass,
    # M = E^H (w f E) over every node block of the one E
    calls = []
    coefficients = spectral._coefficients

    def counted(samples, wE, E, degree):
        calls.append((E.shape, degree))
        return coefficients(samples, wE, E, degree)

    monkeypatch.setattr(spectral, "_coefficients", counted)
    build_hankel_gram(symbols.make("conj-linear"), weight, 25,
                      margin=10)
    assert calls == [((calls[0][0][0], 25 + 10 + 6), 25)]
