import math
import tracemalloc

import numpy as np
import pytest

from checks import normalized_kernel
from focklab import quadrature, spectral, symbols
from focklab.cli import KZ_ANGLES, _in_reach
from focklab.fock import (FockBasis, build_basis,
                          default_rule_for_degree, lp_norm)
from focklab.lattice import Window, build_lattice
from focklab.oscillation import g_functional
from focklab.quadrature import Rule, ball_rule, gaussian_plane_rule
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


@pytest.mark.parametrize("family", ["step", "mixed"])
def test_degree_shift_reads_the_gram_two_degrees_down(weight, family):
    # the leading block is the degree-18 Gram at the same projection
    # degree, so the shift is the move of s_0 between the two Grams
    f = symbols.make(family)
    S = build_hankel_gram(f, weight, 20, 10)
    lower = build_hankel_gram(f, weight, 18, 12)
    assert S.degree_shift >= 0.0
    assert abs(S.degree_shift - (S.values[0] - lower.values[0])) <= 1e-12


def test_degree_shift_of_a_degree_one_gram_is_its_top(weight):
    S = build_hankel_gram(symbols.make("bump"), weight, 1, 10)
    assert S.degree_shift == S.values[0] > 0.0
    assert not S.reliable


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
    vals, = hankel_on_kernel([f], z, 2.0, basis25)
    assert np.max(np.abs(vals - 1.0)) < 1e-14


# (alpha, kz shells) out to where the degree-50 kernel keeps its mass
CONJ_LINEAR_SHELLS = [(1.0, [2.0, 3.0, 4.0, 5.0]),
                      (0.5, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0])]


@pytest.mark.parametrize("alpha, shells", CONJ_LINEAR_SHELLS)
def test_hankel_on_kernel_conj_linear_on_shells(alpha, shells):
    # H_{conj z} k_z = sqrt(alpha/pi) U_z conj(w): 1/sqrt(alpha) at q = 2,
    # sqrt(alpha/pi) pi Gamma(3/2) (2/alpha)^{3/2} at q = 1, where the
    # plane rule meets |conj(w)|'s kink at 0 alike on every shell
    basis = build_basis(gaussian_weight(alpha), 50)
    z = np.multiply.outer(shells, KZ_ANGLES)
    f = symbols.make("conj-linear")
    vals, = hankel_on_kernel([f], z, 2.0, basis)
    assert np.max(np.abs(vals - 1.0 / np.sqrt(alpha))) < 1e-14
    vals, = hankel_on_kernel([f], z, 1.0, basis)
    assert (np.max(vals) - np.min(vals)) / np.max(vals) < 1e-12
    exact = (np.sqrt(alpha / np.pi) * np.pi * math.gamma(1.5)
             * (2.0 / alpha) ** 1.5)
    assert np.max(np.abs(vals - exact)) / exact < 3e-4


def test_hankel_on_kernel_weyl_identity(weight):
    # the translated form against f k_z projected on the rule: P_D does
    # not commute with U_z, but at D = 50 the two agree to roundoff
    basis = build_basis(weight, 50)
    f = symbols.make("conj-gaussian")
    z = np.multiply.outer([2.0, 3.0, 4.0, 5.0], KZ_ANGLES)
    vals, = hankel_on_kernel([f], z, 2.0, basis)
    kernel_form = np.array([[_kernel_form_hankel_on_kernel(f, p, 2.0, basis)
                             for p in shell] for shell in z])
    assert np.max(np.abs(vals - kernel_form) / kernel_form) < 1e-14


def test_berezin_of_lebesgue_is_one(basis25):
    z = np.array([0.0, 0.7 - 0.4j, 1.5])
    assert np.max(np.abs(berezin_transform(None, basis25, z) - 1.0)) < 1e-8


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_berezin_closed_forms(alpha):
    # mu = e^{-|z|^2} dA: mu~(z) = alpha/(alpha+1) e^{-alpha|z|^2/(alpha+1)};
    # Lebesgue measure: the same sum of weights, 1 to roundoff, at every z
    basis = build_basis(gaussian_weight(alpha), 40)
    rng = np.random.default_rng(3)
    z = _in_reach(basis, rng.uniform(-3.0, 3.0, (30, 2)) @ [1.0, 1j]
                  / np.sqrt(alpha), "probes.half_width")
    bt = berezin_transform(lambda u: np.exp(-np.abs(u) ** 2), basis, z)
    exact = alpha / (alpha + 1.0) * np.exp(-alpha * np.abs(z) ** 2
                                           / (alpha + 1.0))
    assert np.max(np.abs(bt - exact)) < 5e-14
    lebesgue = berezin_transform(None, basis, z)
    assert np.all(lebesgue == lebesgue[0])
    assert abs(lebesgue[0] - 1.0) <= 4 * np.finfo(float).eps


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

def _whole_rule_grams(fv, weight, degree, margin, rule):
    """G and G2 by the whole-rule formula, one product over every node of
    the plane rule: M = E^H (w f E), the residual Gram at D' = degree +
    margin and its rank-5 update at D' + 5."""
    Dp = degree + margin
    E = build_basis(weight, Dp + 5, rule).evaluate(rule.nodes)
    wE = rule.weights * np.exp(-2.0 * weight.phi(rule.nodes))
    FE = fv[:, None] * E[:, :degree + 1]
    M = np.conj(E).T @ (wE[:, None] * FE)
    Ex, Mx = E[:, Dp + 1:], M[Dp + 1:]
    R = FE - E[:, :Dp + 1] @ M[:Dp + 1]
    G = np.conj(R).T @ (wE[:, None] * R)
    S = np.conj(R).T @ (wE[:, None] * Ex)
    X = np.conj(Ex).T @ (wE[:, None] * Ex)
    C = S @ Mx
    G2 = G - C - np.conj(C).T + np.conj(Mx).T @ (X @ Mx)
    return 0.5 * (G + np.conj(G).T), 0.5 * (G2 + np.conj(G2).T)


def _unprojected_scale(fv, weight, degree, rule):
    """max_j ||f e_j||^2 on the rule: the scale of a Gram that may be ~0."""
    E = build_basis(weight, degree, rule).evaluate(rule.nodes)
    wE = rule.weights * np.exp(-2.0 * weight.phi(rule.nodes))
    return np.max(wE @ np.abs(fv[:, None] * E) ** 2)


def _character_grams(fv, weight, degree, margin, rule):
    """G and G2 from the Gram's own engine on the rule's quarter."""
    return spectral._grams(fv, weight, degree, margin, rule)


# i^k for k = 0..3, exactly
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _dense_reference_once(fv, weight, degree, proj_degree, rule):
    """The Gram of the residuals at proj_degree on the quarter, with E
    evaluated afresh to proj_degree, every character kept, the characters
    by a 4 x 4 product and each product over the whole quarter."""
    quarter, rotations = quadrature._quarter(rule)
    E = build_basis(weight, proj_degree, rule).evaluate(quarter.nodes)
    w4 = 4.0 * quarter.weights * np.exp(-2.0 * weight.phi(quarter.nodes))
    r = np.arange(4)
    Psi = 0.25 * _I_POWERS[np.outer(r, r) % 4] @ fv[rotations]
    j, m = np.arange(degree + 1), np.arange(proj_degree + 1)
    char = (j[None, :] - m[:, None]) % 4
    M = np.zeros((proj_degree + 1, degree + 1), dtype=complex)
    for s in range(4):
        Ms = np.conj(E).T @ ((w4 * Psi[s])[:, None] * E[:, :degree + 1])
        M[char == s] = Ms[char == s]
    G = np.zeros((degree + 1, degree + 1), dtype=complex)
    for c in range(4):
        R = Psi[(j - c) % 4].T * E[:, :degree + 1] - E[:, c::4] @ M[c::4]
        G += np.conj(R).T @ (w4[:, None] * R)
    return 0.5 * (G + np.conj(G).T)


def _blocked_reference_once(fv, weight, degree, proj_degree, columns,
                            rule):
    """The Gram of the residuals at proj_degree as the code sums it, with
    E evaluated afresh to proj_degree: the same butterflies, each class's
    live columns in the same order, and the products summed over the node
    blocks of an E with `columns` columns."""
    quarter, rotations = quadrature._quarter(rule)
    E = build_basis(weight, proj_degree, rule).evaluate(quarter.nodes)
    w4 = 4.0 * quarter.weights * np.exp(-2.0 * weight.phi(quarter.nodes))
    F0, F1, F2, F3 = fv[rotations]
    Ap, Am, Bp, Bm = F0 + F2, F0 - F2, F1 + F3, 1j * (F1 - F3)
    Psi = 0.25 * np.stack([Ap + Bp, Am + Bm, Ap - Bp, Am - Bm])
    live = [s for s in range(4) if np.any(Psi[s])]
    step = max(1, spectral.GRAM_BLOCK_BYTES // (16 * columns))
    blocks = [slice(a, a + step) for a in range(0, len(E), step)]

    def images(values, c, b):
        # values_s e_j on the nodes b, class k = c + s after class, in
        # the code's column-major layout
        return np.asfortranarray(np.concatenate(
            [values[s, b, None] * E[b, (c + s) % 4:degree + 1:4]
             for s in live], axis=1))

    G = np.zeros((degree + 1, degree + 1), dtype=complex)
    for c in range(4):
        cols = np.concatenate([np.arange((c + s) % 4, degree + 1, 4)
                               for s in live])
        Mc = sum(np.conj(E[b, c::4]).T @ images(w4 * Psi, c, b)
                 for b in blocks)
        Gc = 0
        for b in blocks:
            R = images(Psi, c, b) - E[b, c::4] @ Mc
            Gc = Gc + np.conj(R).T @ (w4[b, None] * R)
        G[np.ix_(cols, cols)] += Gc
    return 0.5 * (G + np.conj(G).T)


def _reference_gram(fv, weight, degree, margin, rule):
    Dp = degree + margin
    G, G2 = (_blocked_reference_once(fv, weight, degree, proj, Dp + 6, rule)
             for proj in (Dp, Dp + 5))
    s1, s2 = (np.sqrt(np.clip(np.linalg.eigvalsh(g), 0.0, None))[::-1]
              for g in (G, G2))
    return G, float(np.max(np.abs(s1[:10] - s2[:10])))


def _reference_hankel_on_kernel(f, z, q, basis):
    # sqrt(alpha/pi) ||(I - P) f(. + z)||_{q,phi}, the Weyl-translated form
    rule = basis.rule
    g = f(rule.nodes + z)
    decay = np.exp(-2.0 * basis.weight.phi(rule.nodes))
    E = basis.evaluate(rule.nodes, kmax=basis.degree)
    coeffs = np.conj(E).T @ (rule.weights * decay * g)
    E = basis.evaluate(rule.nodes, kmax=len(coeffs) - 1)
    return np.sqrt(basis.weight.alpha / np.pi) * lp_norm(
        g - E @ coeffs, q, rule, basis.weight)


def _kernel_form_hankel_on_kernel(f, z, q, basis):
    # ||(I - P)(f k_z)||_{q,phi} with k_z sampled on the rule
    rule = basis.rule
    g = f(rule.nodes) * normalized_kernel(basis, z)(rule.nodes)
    decay = np.exp(-2.0 * basis.weight.phi(rule.nodes))
    E = basis.evaluate(rule.nodes)
    return lp_norm(g - E @ (np.conj(E).T @ (rule.weights * decay * g)), q,
                   rule, basis.weight)


GRAM_SYMBOLS = [("conj-linear", {}), ("mixed", {"radius": 1.0}),
                ("bump", {"radius": 1.0}),
                ("holo-poly", {"coeffs": [0.5, 1.0, 0.0, -0.5j]})]
# symbols with no rotation character that is exactly zero
NON_COVARIANT = [("translated", {"a": 3.0}), ("random", {"seed": 7})]


def _gram_symbol(family, params):
    """A built-in symbol, conj-gaussian translated to a, or a random
    smooth symbol with no rotation symmetry."""
    if family == "translated":
        f = symbols.make("conj-gaussian", beta=1.0)
        return lambda z: f(np.asarray(z) - params["a"])
    if family == "random":
        c = np.random.default_rng(params["seed"]).standard_normal((5, 2)) \
            @ [1.0, 1.0j]

        def f(z):
            z = np.asarray(z, dtype=complex)
            zb = np.conj(z)
            return ((c[0] + c[1] * z + c[2] * zb + c[3] * z * zb
                     + c[4] * zb ** 2)
                    * np.exp(-0.3 * np.abs(z - (0.4 - 0.2j)) ** 2))
        return f
    return symbols.make(family, **params)


@pytest.mark.parametrize("degree", [20, 40])
@pytest.mark.parametrize("family,params", GRAM_SYMBOLS + NON_COVARIANT)
def test_gram_equals_two_evaluation_reference(monkeypatch, weight, family,
                                              params, degree):
    f = _gram_symbol(family, params)
    rule = default_rule_for_degree(degree + 15, 1.0, margin=8)
    fv = f(rule.nodes)
    n, columns = quadrature._quarter(rule)[0].nodes.size, degree + 16
    # the default blocks (one at these degrees), then three
    for rows in (None, n // 3 + 1):
        if rows:
            monkeypatch.setattr(spectral, "GRAM_BLOCK_BYTES",
                                16 * columns * rows)
        G = sampled_hankel_gram(fv, weight, degree, 10, rule)
        ref, shift = _reference_gram(fv, weight, degree, 10, rule)
        assert np.array_equal(G.matrix, ref)
        # the D'+5 Gram comes by a rank-5 update, not a second residual:
        # the certificate is equal in exact arithmetic, not to the bit
        assert abs(G.stability_shift - shift) <= 1e-13
    # and within roundoff of the dense per-character formula; holo-poly's
    # Gram is ~0: scale by the unprojected norms ||f e_j||^2
    dense = _dense_reference_once(fv, weight, degree, degree + 10, rule)
    scale = _unprojected_scale(fv, weight, degree, rule)
    assert np.max(np.abs(G.matrix - dense)) <= 1e-13 * scale


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
    f = symbols.make(family, **params)
    fv = f(rule.nodes)
    _, G2 = _character_grams(fv, weight, degree, 10, rule)
    ref = _dense_reference_once(fv, weight, degree, Dp + 5, rule)
    scale = _unprojected_scale(fv, weight, degree, rule)
    assert np.max(np.abs(G2 - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("blocks", ["one", "several", "7-node"])
@pytest.mark.parametrize("family,params",
                         GRAM_SYMBOLS + [("step", {})] + NON_COVARIANT)
def test_blocked_gram_equals_unblocked_formula(monkeypatch, weight, family,
                                               params, blocks):
    # the character Gram on the quarter's node blocks against the
    # whole-rule formula
    degree, margin = 20, 10
    rule = default_rule_for_degree(degree + 15, 1.0, margin=8)
    quarter = quadrature._quarter(rule)[0]
    n, columns = quarter.nodes.size, degree + margin + 6
    rows = {"one": n, "several": n // 5 + 1, "7-node": 7}[blocks]
    monkeypatch.setattr(spectral, "GRAM_BLOCK_BYTES", 16 * columns * rows)
    f = _gram_symbol(family, params)
    E = build_basis(weight, columns - 1, rule).evaluate(quarter.nodes)
    assert len(spectral._node_blocks(E)) == {"one": 1, "several": 5,
                                             "7-node": -(-n // 7)}[blocks]
    fv = f(rule.nodes)
    G = sampled_hankel_gram(fv, weight, degree, margin, rule).matrix
    _, G2 = _character_grams(fv, weight, degree, margin, rule)
    scale = _unprojected_scale(fv, weight, degree, rule)
    refs = _whole_rule_grams(fv, weight, degree, margin, rule)
    for got, ref in zip((G, G2), refs):
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("order,scale", [(1, 1.0), (2, 1.0), (26, 1.0),
                                         (43, 1.0), (103, 1.0), (20, 0.5),
                                         (31, 2.0)])
def test_quarter_rotations_are_the_plane_rule(order, scale):
    # node for node and weight for weight, to the bit; the origin of an
    # odd order stands for its four rotations with a quarter of its weight
    rule = gaussian_plane_rule(order, scale)
    quarter, rotations = quadrature._quarter(rule)
    z = quarter.nodes
    inside = z[:z.size - order % 2]
    assert np.all(inside.real > 0) and np.all(inside.imag >= 0)
    for r, turned in enumerate([z, -z.imag + 1j * z.real, -z,
                                z.imag - 1j * z.real]):
        assert np.array_equal(rule.nodes[rotations[r]], turned)
        assert np.array_equal(rule.weights[rotations[r]],
                              rule.weights[rotations[0]])
    # the rotations take every node once, the origin four times
    counts = np.bincount(rotations.ravel(), minlength=rule.nodes.size)
    assert np.array_equal(counts, np.where(rule.nodes == 0, 4, 1))
    assert np.array_equal(quarter.weights, rule.weights[rotations[0]]
                          * np.where(z == 0, 0.25, 1.0))
    # the quarter alone is a rule on Q: a quarter of the radial mass
    mass = quarter.integrate(np.exp(-scale * np.abs(z) ** 2))
    assert abs(mass - np.pi / (4 * scale)) < 1e-13
    # memoised per rule, and read-only
    assert quadrature._quarter(rule)[1] is rotations
    for arr in (rotations, quarter.nodes, quarter.weights):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_gram_refuses_other_samples_and_rules(weight):
    rule = default_rule_for_degree(30, 1.0, margin=8)
    fv = symbols.make("conj-linear")(rule.nodes)
    with pytest.raises(ValueError, match="rule's nodes"):
        sampled_hankel_gram(fv[:-1], weight, 10, 10, rule)
    with pytest.raises(ValueError, match="rule's nodes"):
        sampled_hankel_gram(np.tile(fv, 4), weight, 10, 10, rule)
    shifted = Rule(nodes=rule.nodes + 0.5, weights=rule.weights)
    with pytest.raises(ValueError, match="invariant"):
        sampled_hankel_gram(fv, weight, 10, 10, shifted)


@pytest.mark.parametrize("family,params,live", [
    ("conj-linear", {}, [1]), ("conj-gaussian", {"beta": 1.0}, [1]),
    ("bump", {"radius": 1.0}, [0]), ("step", {}, [0]),
    ("holo-poly", {"coeffs": [0.0, 1.0]}, [3])])
def test_covariant_symbols_have_one_character(family, params, live):
    # f(iz) = i^{-s} f(z) at every node leaves exact zeros in the others
    rule = default_rule_for_degree(95, 1.0, margin=8)
    rotations = quadrature._quarter(rule)[1]
    fv = symbols.make(family, **params)(rule.nodes)
    assert spectral._characters(fv[rotations])[1] == live


@pytest.mark.parametrize("family,params,covariant", [
    ("conj-linear", {}, True), ("conj-gaussian", {"beta": 1.0}, True),
    ("bump", {"radius": 1.0}, True), ("mixed", {"radius": 1.0}, False),
    ("translated", {"a": 3.0}, False)])
def test_covariant_gram_is_block_diagonal_mod_4(weight, family, params,
                                                covariant):
    # one live character s: R^(c) has the columns of class c + s alone
    S = build_hankel_gram(_gram_symbol(family, params), weight, 40)
    j = np.arange(41)
    across = (j[:, None] - j[None, :]) % 4 != 0
    if covariant:
        assert np.all(S.matrix[across] == 0)
    else:
        assert np.count_nonzero(S.matrix[across]) > 0


def test_gram_peak_memory_is_the_basis_and_a_few_blocks(weight):
    # E on the quarter rule is the one array that scales with the rule;
    # every product built from it sums over node blocks
    degree, margin = 80, 10
    f = symbols.make("mixed", radius=1.0)
    rule = default_rule_for_degree(degree + margin + 5, 1.0, margin=8)
    n = quadrature._quarter(rule)[0].nodes.size
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
    vals, = hankel_on_kernel([f], z, 2.0, basis)
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
    # one call on a family and a point set gives every symbol's value at
    # every point its own one-member, one-point value to the bit
    basis = build_basis(weight, 30)
    family = [symbols.make("conj-gaussian", beta=0.8),
              symbols.make("bump", radius=1.0)]
    z = _points()
    vals = hankel_on_kernel(family, z, q, basis)
    assert vals.shape == (2,) + z.shape
    for f, row in zip(family, vals):
        for i in range(len(z)):
            assert row[i] == hankel_on_kernel([f], z[i:i + 1], q, basis)[0, 0]
    # a (shells, angles) array of points keeps its shape
    assert np.array_equal(hankel_on_kernel(family, z.reshape(2, 3), q, basis),
                          vals.reshape(2, 2, 3))


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
    # once per call, for every symbol of the family
    family = [symbols.make("conj-linear"), symbols.make("bump", radius=1.0)]
    hankel_on_kernel(family, np.linspace(-2.0, 2.0, 16) + 0.5j, 2.0, basis)
    assert len(calls) == 1


def test_checked_gram_projects_once(monkeypatch, weight):
    # the D' Gram and the D'+5 certificate share one projection pass,
    # M = E^H (w f E) over every node block of the one E on the quarter:
    # at D = 25 (one block) that is one image per class for M and one per
    # class for the residual, all of the one E of D' + 6 columns
    calls = []
    images = spectral._images

    def counted(Psi, E, b, classes, degree):
        calls.append((id(E), E.shape[1], b.start, degree))
        return images(Psi, E, b, classes, degree)

    monkeypatch.setattr(spectral, "_images", counted)
    build_hankel_gram(symbols.make("conj-linear"), weight, 25,
                      margin=10)
    assert calls == [(calls[0][0], 25 + 10 + 6, 0, 25)] * 8
