import numpy as np
import pytest

from focklab import oscillation as osc
from focklab import symbols
from focklab.quadrature import ball_rule
from focklab.symbols import Symbol
from focklab.lattice import Window, build_lattice
from focklab.oscillation import (g_functional, ida_distance, ida_norm,
                                 m_profile, mean_oscillation, vda_profile)


def test_g_of_conjugate_is_r_over_sqrt2(probes):
    # distance of conj(w) to holomorphic polys on B(z, r), normalized L^2
    f = symbols.make("conj-linear")
    for r in (0.5, 1.0):
        vals = g_functional(f, probes, r, 2.0, 6)
        assert np.max(np.abs(vals - r / np.sqrt(2.0))) < 1e-4


def test_g_of_holomorphic_negligible(probes):
    f = symbols.make("holo-poly", coeffs=[1.0, -2.0, 0.5, 1.0j])
    assert np.max(g_functional(f, probes, 1.0, 2.0, 6)) < 1e-9


def test_g_below_m(probes):
    for fam, kw in [("conj-linear", {}), ("bump", {"radius": 2.0}),
                    ("step", {"radius": 1.0})]:
        f = symbols.make(fam, **kw)
        G = g_functional(f, probes, 0.5, 2.0, 4)
        M = np.array([mean_oscillation(f, p, 0.5, 2.0) for p in probes])
        assert np.all(G <= M + 1e-10)


def test_abs_squared_best_fit_residual():
    # |w|^2 on B(0, 1): best holomorphic fit is the constant 1/2,
    # normalized L^2 distance 1/(2 sqrt(3))
    g = ida_distance(Symbol(evaluator=lambda z: np.abs(z) ** 2), 0.0, 1.0,
                     2.0, 6)
    assert abs(g.coeffs[0] - 0.5) < 1e-8
    assert abs(g.residual - 1.0 / (2.0 * np.sqrt(3.0))) < 1e-8


def test_local_approximation_evaluates():
    f = symbols.make("conj-gaussian", beta=0.5)
    la = ida_distance(f, 0.5 + 0.5j, 1.0, 2.0, 6)
    vals = la.evaluate(np.array([0.5 + 0.5j]))
    assert np.isfinite(vals).all()


def test_g_shift_covariance():
    # translating the symbol translates the functional
    f = symbols.make("bump", radius=2.0)
    a = 0.7 - 0.3j
    g0 = g_functional(f, np.array([0.4 + 0.2j]), 0.5, 2.0, 5)
    g1 = g_functional(f.shifted(a), np.array([0.4 + 0.2j + a]), 0.5, 2.0, 5)
    assert abs(g0[0] - g1[0]) < 1e-10


def test_scaling_homogeneity(probes):
    f = symbols.make("conj-linear")
    two_f = Symbol(evaluator=lambda z: 2.0 * np.conj(z))
    a = g_functional(f, probes[:5], 0.5, 2.0, 4)
    b = g_functional(two_f, probes[:5], 0.5, 2.0, 4)
    assert np.allclose(b, 2.0 * a, rtol=1e-10)


def test_vda_profile_conj_gaussian_decays():
    f = symbols.make("conj-gaussian", beta=1.0)
    prof = vda_profile(f, 2.0, 0.5, 6, [2.0, 3.0, 4.0, 5.0, 6.0])
    maxima = [prof.shell_max(rho) for rho in (2.0, 3.0, 4.0, 5.0, 6.0)]
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    assert prof.final_shell_max() < 1e-6
    assert prof.trend_slope() < 0


def test_vda_profile_compact_zero():
    f = symbols.make("bump", radius=1.0)
    prof = vda_profile(f, 2.0, 0.5, 6, [3.0, 4.0, 5.0, 6.0])
    assert np.max(prof.values) < 1e-12


def test_m_profile_step():
    f = symbols.make("step", radius=1.0)
    prof = m_profile(f, 2.0, 0.5, [0.1, 3.0])
    assert prof.shell_max(0.1) > 0.9
    assert prof.shell_max(3.0) < 1e-12


def test_ida_norm_sup_vs_integral():
    f = symbols.make("bump", radius=1.5)
    L = build_lattice(0.0, 0.5, Window.square(4.0))
    sup = ida_norm(f, np.inf, 2.0, 0.5, L, 5)
    l2 = ida_norm(f, 2.0, 2.0, 0.5, L, 5)
    assert sup > 0 and l2 > 0
    assert sup <= np.max(g_functional(f, L.points, 0.5, 2.0, 5)) + 1e-12


def test_q_one_irls_close_to_l2_for_smooth():
    f = symbols.make("conj-linear")
    g2 = g_functional(f, np.array([0.0]), 1.0, 2.0, 4)[0]
    g1 = g_functional(f, np.array([0.0]), 1.0, 1.0, 4)[0]
    assert 0 < g1 < g2 * 1.5


def test_bad_parameters_rejected():
    f = symbols.make("conj-linear")
    with pytest.raises(ValueError):
        ida_distance(f, 0.0, 1.0, 0.5, 4)   # q < 1
    with pytest.raises(ValueError):
        ida_distance(f, 0.0, 1.0, 2.0, -1)  # d < 0


# --- the batched engine against the per-centre definition ---------------

def _reference_fit(f, z, r, q, d):
    """One centre at a time: lstsq on the shifted rule, IRLS for q != 2.

    Returns (coeffs of (w - z)^j, residual, IRLS iterations, max |f|)."""
    rule = ball_rule(0.0, r).shifted(z)
    u = rule.nodes - z
    V = (u[:, None] / r) ** np.arange(d + 1)[None, :]
    fv = f(rule.nodes)
    sw = np.sqrt(rule.weights)

    def solve(extra):
        A = (sw * extra)[:, None] * V
        if np.linalg.cond(A) > osc.COND_CAP:
            raise osc.DegreeCapError("ill-conditioned")
        return np.linalg.lstsq(A, sw * extra * fv, rcond=None)[0]

    def q_residual(c):
        res = np.abs(fv - V @ c) ** q
        return float((np.sum(rule.weights * res) / rule.area) ** (1.0 / q))

    coeffs, iters = solve(np.ones_like(sw)), 0
    if q != 2.0:
        prev = np.inf
        for iters in range(1, osc.IRLS_ITERS + 1):
            res = np.abs(fv - V @ coeffs)
            coeffs = solve(np.maximum(res, 1e-12) ** ((q - 2.0) / 2.0))
            cur = q_residual(coeffs)
            if abs(prev - cur) <= osc.IRLS_TOL * max(cur, 1e-30):
                break
            prev = cur
    return (coeffs / r ** np.arange(d + 1), q_residual(coeffs), iters,
            float(np.max(np.abs(fv))))


def _column_deviation(a, b, floor):
    """Largest |a - b| over its column's largest |a|, floored at the size
    of f: a column that is zero in exact arithmetic holds only roundoff."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    scale = np.maximum(np.max(np.abs(a), axis=0), floor)
    return float(np.max(np.abs(a - b) / scale))


B = osc.FIT_BLOCK
ENGINE_CASES = {"conj-linear": {}, "mixed": {"radius": 1.2},
                "step": {"radius": 1.0}, "bump": {"radius": 1.5},
                "holo-poly": {"coeffs": [1.0, -2.0, 0.5, 1.0j]}}


@pytest.mark.parametrize("count", [1, B - 1, B + 1, 2 * B + 3])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("family", sorted(ENGINE_CASES))
def test_engine_equals_per_centre_definition(family, q, count):
    f = symbols.make(family, **ENGINE_CASES[family])
    rng = np.random.default_rng(count)
    z = rng.uniform(-1.6, 1.6, count) + 1j * rng.uniform(-1.6, 1.6, count)
    r, d = 0.75, 5
    fit = ida_distance(f, z, r, q, d)
    ref = [_reference_fit(f, p, r, q, d) for p in z]
    floor = max(m for *_, m in ref)
    assert fit.center.shape == fit.residual.shape == (count,)
    assert fit.coeffs.shape == (count, d + 1)
    assert _column_deviation([c for c, *_ in ref], fit.coeffs, floor) < 1e-12
    assert _column_deviation([g for _, g, *_ in ref], fit.residual,
                             floor) < 1e-12
    if q != 2.0 and family in ("mixed", "step") and count > B:
        # centres stop at their own iteration
        assert len({it for _, _, it, _ in ref}) > 1


def test_scalar_centre_gives_scalar_fields():
    f = symbols.make("mixed")
    for q in (1.0, 2.0):
        fit = ida_distance(f, 0.3 - 0.2j, 0.5, q, 4)
        assert isinstance(fit.center, complex)
        assert isinstance(fit.residual, float)
        assert fit.coeffs.shape == (5,)
        both = ida_distance(f, np.array([0.3 - 0.2j, 1.0]), 0.5, q, 4)
        assert abs(both.residual[0] - fit.residual) <= 1e-14
    assert isinstance(mean_oscillation(f, 0.3, 0.5, 2.0), float)


def test_engine_raises_degree_cap_on_both_paths(monkeypatch):
    f = symbols.make("step")
    z = np.array([0.2, 0.9 + 0.1j])
    # the shared Vandermonde passes a cap that a reweighted one fails
    cond = np.linalg.cond(np.sqrt(ball_rule(0.0, 0.5).weights)[:, None]
                          * ((ball_rule(0.0, 0.5).nodes[:, None] / 0.5)
                             ** np.arange(5)[None, :]))
    monkeypatch.setattr(osc, "COND_CAP", 2.0)
    with pytest.raises(osc.DegreeCapError):
        ida_distance(f, z, 0.5, 2.0, 4)
    monkeypatch.setattr(osc, "COND_CAP", cond * 1.01)
    ida_distance(f, z, 0.5, 2.0, 4)
    with pytest.raises(osc.DegreeCapError):
        ida_distance(f, z, 0.5, 1.0, 4)


def test_mean_oscillation_vector_equals_scalar():
    f = symbols.make("bump", radius=1.5)
    z = np.linspace(-2.0, 2.0, 2 * B + 3) * (1 + 0.5j)
    vec = mean_oscillation(f, z, 0.5, 3.0)
    for p, m in zip(z, vec):
        rule = ball_rule(p, 0.5)
        ref = (np.sum(rule.weights * np.abs(f(rule.nodes)) ** 3.0)
               / rule.area) ** (1.0 / 3.0)
        assert abs(m - ref) <= 1e-14 * max(ref, 1.0)
