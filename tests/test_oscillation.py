import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from focklab import cli
from focklab import oscillation as osc
from focklab import symbols
from focklab.cli import main
from focklab.quadrature import ball_rule
from focklab.symbols import Symbol
from focklab.lattice import Window, build_lattice
from focklab.oscillation import (g_functional, ida_distance, ida_norm,
                                 mean_oscillation)


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
        M = mean_oscillation(f, probes, 0.5, 2.0)
        assert np.all(G <= M + 1e-10)


def test_abs_squared_best_fit_residual():
    # |w|^2 on B(0, 1): best holomorphic fit is the constant 1/2,
    # normalized L^2 distance 1/(2 sqrt(3))
    g = ida_distance(Symbol(evaluator=lambda z: np.abs(z) ** 2),
                     np.array([0.0]), 1.0, 2.0, 6)
    assert abs(g.coeffs[0, 0] - 0.5) < 1e-8
    assert abs(g.residual[0] - 1.0 / (2.0 * np.sqrt(3.0))) < 1e-8


def test_fit_coefficients_expand_about_each_centre():
    # a holomorphic polynomial is its own best fit, so coeffs[i, j] is its
    # Taylor coefficient p^(j)(z_i) / j! in powers of (w - z_i)
    p = np.polynomial.Polynomial([1.0, -2.0, 0.5, 1.0j])
    f = symbols.make("holo-poly", coeffs=p.coef)
    z = np.array([0.0, 0.5 + 0.5j, -1.2 + 0.3j])
    fit = ida_distance(f, z, 0.75, 2.0, 4)
    taylor = [[p.deriv(j)(c) / math.factorial(j) for j in range(5)]
              for c in z]
    assert fit.coeffs.shape == (3, 5)
    assert np.max(np.abs(fit.coeffs - taylor)) < 1e-10


def test_g_shift_covariance():
    # translating the symbol translates the functional
    f = symbols.make("bump", radius=2.0)
    a = 0.7 - 0.3j
    g0 = g_functional(f, np.array([0.4 + 0.2j]), 0.5, 2.0, 5)
    g1 = g_functional(Symbol(lambda z: f(z - a)), np.array([0.4 + 0.2j + a]),
                      0.5, 2.0, 5)
    assert abs(g0[0] - g1[0]) < 1e-10


def test_scaling_homogeneity(probes):
    f = symbols.make("conj-linear")
    two_f = Symbol(evaluator=lambda z: 2.0 * np.conj(z))
    a = g_functional(f, probes[:5], 0.5, 2.0, 4)
    b = g_functional(two_f, probes[:5], 0.5, 2.0, 4)
    assert np.allclose(b, 2.0 * a, rtol=1e-10)


def _profile_points(shells):
    """The profile samples of cli's g-profile and m-profile, shell by
    shell, len(cli.PROFILE_ANGLES) to a shell."""
    return np.multiply.outer(shells, cli.PROFILE_ANGLES).ravel()


def test_vda_profile_conj_gaussian_decays():
    f = symbols.make("conj-gaussian", beta=1.0)
    shells = [2.0, 3.0, 4.0, 5.0, 6.0]
    z = _profile_points(shells)
    values = g_functional(f, z, 0.5, 2.0, 6)
    # the samples run shell by shell, len(cli.PROFILE_ANGLES) to a shell
    assert np.allclose(np.abs(z), np.repeat(shells, len(cli.PROFILE_ANGLES)))
    maxima = values.reshape(len(shells), len(cli.PROFILE_ANGLES)).max(axis=1)
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] < 1e-6
    assert np.polyfit(shells, maxima, 1)[0] < 0


def test_vda_profile_compact_zero():
    f = symbols.make("bump", radius=1.0)
    z = _profile_points([3.0, 4.0, 5.0, 6.0])
    assert np.max(g_functional(f, z, 0.5, 2.0, 6)) < 1e-12


def test_m_profile_step():
    f = symbols.make("step", radius=1.0)
    values = mean_oscillation(f, _profile_points([0.1, 3.0]), 0.5, 2.0)
    inner, outer = values.reshape(2, len(cli.PROFILE_ANGLES))
    assert np.max(inner) > 0.9
    assert np.max(outer) < 1e-12


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
    z = np.array([0.0])
    with pytest.raises(ValueError):
        ida_distance(f, z, 1.0, 0.5, 4)   # q < 1
    with pytest.raises(ValueError):
        ida_distance(f, z, 1.0, 2.0, -1)  # d < 0


def test_degree_past_the_ball_rule_is_capped():
    # the ball rule integrates the Gram (degree 2d) exactly up to
    # d = MAX_DEGREE; one degree more would alias conj(u) into the fit
    f = symbols.make("conj-linear")
    z = np.array([0.0, 1.0 + 0.5j])
    assert osc.MAX_DEGREE == 20
    g = g_functional(f, z, 1.0, 2.0, osc.MAX_DEGREE)
    assert np.max(np.abs(g - 1.0 / np.sqrt(2.0))) < 1e-12
    for q in (1.0, 2.0):
        with pytest.raises(osc.DegreeCapError):
            ida_distance(f, z, 1.0, q, osc.MAX_DEGREE + 1)


# --- the batched engine against the per-centre definition ---------------

def _reference_fits(f, z, r, q, d, chunk=32):
    """Centre by centre: lstsq on each shifted rule, IRLS for q != 2, with
    the step s = 1/(q - 1) for q > 2.

    Each least-squares solve is a Householder QR of the reweighted
    Vandermonde A with f appended as a column, and one SVD of its small R
    factor, which gives cond(A) and the solution; the centres still
    iterating are stacked, `chunk` centres at a time.
    Returns per centre (coeffs of (w - z)^j, residual, IRLS iterations,
    max |f|)."""
    rule = ball_rule(0.0, r)
    sw = np.sqrt(rule.weights)
    s = 1.0 / (q - 1.0) if q > 2.0 else 1.0

    def solve(V, fv, extra):
        # the R factor of [A | b] is [[R, Q^H b], [0, |A x - b|]]
        Ab = np.concatenate([V, fv[:, :, None]], axis=2)
        Ab *= (sw * extra)[:, :, None]
        Rb = np.linalg.qr(Ab, mode="r")
        U, S, Wh = np.linalg.svd(Rb[:, :-1, :-1])
        if np.any(S[:, 0] > osc.COND_CAP * S[:, -1]):
            raise osc.DegreeCapError("ill-conditioned")
        Ub = (U.conj().transpose(0, 2, 1) @ Rb[:, :-1, -1:])[:, :, 0] / S
        return (Wh.conj().transpose(0, 2, 1) @ Ub[:, :, None])[:, :, 0]

    def q_mean(v):
        return (np.sum(rule.weights * np.abs(v) ** q, axis=-1)
                / (np.pi * r ** 2)) ** (1.0 / q)

    def residual(V, fv, c):
        return fv - (V @ c[:, :, None])[:, :, 0]

    out = []
    for lo in range(0, len(z), chunk):
        zc = np.asarray(z[lo:lo + chunk])[:, None]
        nodes = rule.nodes + zc
        V = ((nodes - zc)[:, :, None] / r) ** np.arange(d + 1)
        fv = f(nodes)
        coeffs = solve(V, fv, np.ones(fv.shape))
        iters = np.zeros(len(zc), dtype=int)
        if q != 2.0:
            roundoff = np.finfo(float).eps * q_mean(fv)
            prev = np.full(len(zc), np.inf)
            at, Va, fa = np.arange(len(zc)), V, fv
            for it in range(1, osc.IRLS_ITERS + 1):
                ca = coeffs[at]
                res = np.abs(residual(Va, fa, ca))
                c = solve(Va, fa, np.maximum(res, 1e-12) ** ((q - 2.0) / 2.0))
                ca += s * (c - ca)
                coeffs[at] = ca
                cur = q_mean(residual(Va, fa, ca))
                iters[at] = it
                going = np.abs(prev[at] - cur) > np.maximum(
                    osc.IRLS_TOL * cur, roundoff[at])
                prev[at] = cur
                if not going.all():
                    at, Va, fa = at[going], Va[going], fa[going]
                if at.size == 0:
                    break
        G = q_mean(residual(V, fv, coeffs))
        out += zip(coeffs / r ** np.arange(d + 1), G, iters,
                   np.max(np.abs(fv), axis=1))
    return out


def _column_deviation(a, b, floor):
    """Largest |a - b| over its column's largest |a|, floored at the size
    of f: a column that is zero in exact arithmetic holds only roundoff."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    scale = np.maximum(np.max(np.abs(a), axis=0), floor)
    return float(np.max(np.abs(a - b) / scale))


B = osc.FIT_BLOCK
# more moving centres than one pooled IRLS batch holds: of the 32-centre
# batches of the engine tests' ball rule, 4 and a tail of one block, and 9
# and a tail of 17 centres
MANY = (144, 305)
ENGINE_CASES = {"conj-linear": {}, "mixed": {"radius": 1.2},
                "step": {"radius": 1.0}, "bump": {"radius": 1.5},
                "holo-poly": {"coeffs": [1.0, -2.0, 0.5, 1.0j]}}


ENGINE_PARAMS = (
    [pytest.param(family, q, count, 5, 1.6, id=f"{family}-{q}-{count}")
     for family in sorted(ENGINE_CASES) for q in (1.0, 2.0, 3.0)
     for count in (1, B - 1, B + 1, 2 * B + 3)]
    # the IRLS at degree 10 as well
    + [pytest.param(family, q, count, 10, 1.6, id=f"{family}-{q}-{count}-d10")
       for family in ("mixed", "step") for q in (1.0, 3.0)
       for count in (1, 2 * B + 3)]
    # more moving centres than one pooled IRLS batch holds
    + [pytest.param(family, q, count, 5, 1.6, id=f"{family}-{q}-{count}")
       for family, q, count in [
           ("conj-linear", 1.0, MANY[0]), ("conj-linear", 3.0, MANY[0]),
           ("conj-linear", 1.0, MANY[1]), ("conj-linear", 3.0, MANY[1]),
           ("mixed", 1.0, MANY[0]), ("mixed", 3.0, MANY[1])]]
    # centres on both sides of the support's edge, so that exact q = 2 fits
    # sit between the centres the IRLS pools from many blocks
    + [pytest.param(family, q, MANY[1], 5, 2.4,
                    id=f"{family}-{q}-{MANY[1]}-wide")
       for family, q in [("step", 3.0), ("bump", 1.0)]])


@pytest.mark.parametrize("family, q, count, d, half_width", ENGINE_PARAMS)
def test_engine_equals_per_centre_definition(family, q, count, d, half_width):
    f = symbols.make(family, **ENGINE_CASES[family])
    rng = np.random.default_rng(count)
    z = (rng.uniform(-half_width, half_width, count)
         + 1j * rng.uniform(-half_width, half_width, count))
    r = 0.75
    with warnings.catch_warnings():
        # unsettled centres must still match the reference's iterates
        warnings.simplefilter("ignore", osc.IRLSWarning)
        fit = ida_distance(f, z, r, q, d)
    ref = _reference_fits(f, z, r, q, d)
    floor = max(m for *_, m in ref)
    assert fit.residual.shape == (count,)
    assert fit.coeffs.shape == (count, d + 1)
    assert _column_deviation([c for c, *_ in ref], fit.coeffs, floor) < 1e-12
    assert _column_deviation([g for _, g, *_ in ref], fit.residual,
                             floor) < 1e-12
    if q != 2.0 and family in ("mixed", "step") and count > B:
        # centres stop at their own iteration
        assert len({it for _, _, it, _ in ref}) > 1


@pytest.mark.parametrize("family, q, spacing", [
    pytest.param(family, q, 0.5, id=f"{family}-{q}")
    for family in ("step", "bump") for q in (1.0, 3.0)]
    # more moving centres than one IRLS batch holds
    + [pytest.param("step", 3.0, 0.15, id="step-3.0-wide"),
       pytest.param("bump", 1.0, 0.15, id="bump-1.0-wide")])
def test_exact_q2_fits_skip_the_irls(family, q, spacing, monkeypatch):
    # balls outside the support sample f as identically 0: the q = 2 fit
    # is exact there, the least L^q objective for every q
    f = symbols.make(family)
    z = build_lattice(0.0, spacing, Window.square(3.0)).points
    r, d = 0.5, 5
    seen = []
    irls = osc._irls

    def recording(F, *args):
        seen.append(F.copy())
        return irls(F, *args)

    monkeypatch.setattr(osc, "_irls", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", osc.IRLSWarning)
        fit = ida_distance(f, z, r, q, d)
    l2 = ida_distance(f, z, r, 2.0, d)
    exact = l2.residual == 0.0
    assert 0 < np.count_nonzero(exact) < len(z)
    # the IRLS sees each other centre once, in order, and no exact one,
    # in batches of `batch` columns but the last
    nodes = ball_rule(0.0, r).nodes
    moved = f(nodes[:, None] + z[~exact][None, :])
    assert np.array_equal(np.concatenate(seen, axis=1), moved)
    batch = osc.IRLS_BATCH
    sizes = [F.shape[1] for F in seen]
    assert sizes[:-1] == [batch] * (len(seen) - 1) and sizes[-1] <= batch
    assert (len(seen) > 1) == (spacing < 0.5)
    assert np.all(fit.residual[exact] == 0.0)
    assert np.array_equal(fit.coeffs[exact], l2.coeffs[exact])


@pytest.mark.parametrize("family, q", [("conj-gaussian", 1.0),
                                       ("conj-gaussian", 3.0),
                                       ("step", 1.0), ("bump", 3.0)])
def test_irls_samples_each_centre_once(family, q):
    # the q = 2 fit and the IRLS of a centre share its one block of samples
    f = symbols.make(family)
    points = []

    def counted(w):
        points.append(w.size)
        return f(w)

    # step and bump: 69 of the 441 centres move, in 3 batches
    z = build_lattice(0.0, 0.3, Window.square(3.0)).points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", osc.IRLSWarning)
        fit = ida_distance(Symbol(evaluator=counted), z, 0.5, q, 5)
    assert np.count_nonzero(fit.residual) > osc.IRLS_BATCH
    assert sum(points) == len(z) * len(ball_rule(0.0, 0.5).nodes)


@pytest.mark.parametrize("q", [1.0, 3.0])
def test_irls_peak_memory_is_a_batch_not_the_lattice(q):
    # the fits-spectra op "ida-norm functional.q=1 symbol.id=conj-gaussian":
    # 121 moving centres, which one pooled batch held at once at a traced
    # peak of 16.1 MiB; one pass over 32-centre batches peaks at 5.8 MiB,
    # where the q = 2 fits alone peak at 2.4 MiB
    f = symbols.make("conj-gaussian")
    z = build_lattice(0.0, 1.0, Window.square(5.0)).points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", osc.IRLSWarning)
        ida_distance(f, z, 1.0, q, 6)
        tracemalloc.start()
        try:
            fit = ida_distance(f, z, 1.0, q, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.all(fit.residual > 0)
    assert peak <= 7 << 20


def test_fit_fields_have_one_row_per_centre():
    f = symbols.make("mixed")
    z = np.linspace(-2.0, 2.0, 2 * B + 3) * (1 + 0.3j)
    for q in (1.0, 2.0, 3.0):
        one = ida_distance(f, z[:1], 0.5, q, 4)
        assert one.residual.shape == (1,) and one.coeffs.shape == (1, 5)
        fits = ida_distance(f, z, 0.5, q, 4)
        assert fits.residual.shape == z.shape
        assert fits.coeffs.shape == z.shape + (5,)
        assert abs(fits.residual[0] - one.residual[0]) <= 1e-14
        empty = ida_distance(f, np.zeros(0, dtype=complex), 0.5, q, 4)
        assert empty.residual.shape == (0,)
        assert empty.coeffs.shape == (0, 5)
    assert mean_oscillation(f, z[:1], 0.5, 2.0).shape == (1,)


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
               / (np.pi * 0.5 ** 2)) ** (1.0 / 3.0)
        assert abs(m - ref) <= 1e-14 * max(ref, 1.0)


@pytest.mark.parametrize("floored, scale", [(1, 1.0), (3, 1.0), (12, 1.0),
                                            (1, 100.0)])
def test_irls_block_with_weights_spanning_1e12(floored, scale, monkeypatch):
    # q = 1 weights w / max(|res|, 1e-12): a start that interpolates f at
    # `floored` rim nodes puts the residual floor there, so one IRLS step
    # sees weights that span 1e12 (and 1e14 at scale 100).  Fewer floored
    # nodes than the 6 coefficients leave cond(W V) near 7e4, inside
    # GRAM_COND_CAP, and near 7e5 at scale 100, past it.
    r, d, q = 0.5, 5, 1.0
    base = ball_rule(0.0, r)
    V = (base.nodes[:, None] / r) ** np.arange(d + 1)[None, :]
    P = osc._gram_columns(V)
    rng = np.random.default_rng(floored)
    c0 = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    noise = scale * rng.uniform(0.5, 1.5, len(V)) * np.exp(
        2j * np.pi * rng.uniform(size=len(V)))
    radius = np.abs(base.nodes)
    rim = np.flatnonzero(np.isclose(radius, radius.max()))
    noise[rim[np.arange(floored) * len(rim) // floored]] = 0.0
    F = (V @ c0 + noise)[:, None]
    W2 = base.weights * np.maximum(np.abs(F[:, 0] - V @ c0), 1e-12) ** (q - 2)
    assert np.ptp(np.log10(W2 / base.weights)) > 11.9
    # the same reweighted solve by Householder QR
    W = np.sqrt(W2)
    Q, R = np.linalg.qr(W[:, None] * V)
    ref = np.linalg.solve(R, Q.conj().T @ (W * F[:, 0]))
    monkeypatch.setattr(osc, "IRLS_ITERS", 1)
    try:
        C, _ = osc._irls(F, V, P, c0[:, None].copy(), base, r, q)
    except osc.DegreeCapError:
        assert np.linalg.cond(R) > osc.GRAM_COND_CAP
        return
    assert np.linalg.cond(R) <= osc.GRAM_COND_CAP
    assert _column_deviation(ref, C[:, 0], np.max(np.abs(F))) < 1e-10


def test_irls_warns_when_centres_do_not_settle(tmp_path):
    # the fits-spectra op "ida-norm functional.q=3 symbol.id=step
    # lattice.r=0.5" settles at all 441 centres; "decompose functional.q=1
    # symbol.id=bump" does not, at 20 of its 121 partition centres and 5 of
    # its 25 probes
    f = symbols.make("step")
    L = build_lattice(0.0, 0.5, Window.square(5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ida_distance(f, L.points, 1.0, 3.0, 6)
        ida_distance(f, L.points, 1.0, 2.0, 6)
        assert main(["ida-norm", "--out", str(tmp_path), "functional.q=3",
                     "symbol.id=step", "lattice.r=0.5"]) == 0
    with pytest.warns(osc.IRLSWarning) as caught:
        assert main(["decompose", "--out", str(tmp_path), "functional.q=1",
                     "symbol.id=bump"]) == 0
    assert [re.search(r"at \d+ of \d+", str(w.message))[0]
            for w in caught] == ["at 20 of 121", "at 5 of 25"]
    for sub, count in (("ida-norm", 0), ("decompose", 2)):
        run_dir = next((tmp_path / sub).iterdir())
        warned = [ln for ln in (run_dir / "manifest.txt").read_text()
                  .splitlines() if ln.startswith("warning=")]
        assert len(warned) == count
        assert all(ln.startswith("warning=IRLSWarning: IRLS did not settle")
                   for ln in warned)


def test_q3_fits_meet_the_2000_iteration_reference(monkeypatch):
    # the fits-spectra op "ida-norm functional.q=3 symbol.id=step
    # lattice.r=0.5", against the IRLS run to roundoff or 2000 iterations
    f = symbols.make("step")
    z = build_lattice(0.0, 0.5, Window.square(5.0)).points
    r, q, d = 1.0, 3.0, 6
    fit = ida_distance(f, z, r, q, d)
    monkeypatch.setattr(osc, "IRLS_ITERS", 2000)
    monkeypatch.setattr(osc, "IRLS_TOL", 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = ida_distance(f, z, r, q, d).residual
    # the origin's ball lies inside the support, where f = 1 and G is
    # roundoff
    live = ref > np.sqrt(np.finfo(float).eps) * mean_oscillation(f, z, r, q)
    assert np.count_nonzero(live) == 44
    assert np.all(fit.residual[live] >= ref[live])
    assert np.max(np.abs(fit.residual - ref)[live] / ref[live]) <= 1e-8


def test_gram_from_one_triangle_is_the_full_product_and_hermitian():
    r, d = 0.75, 6
    V = (ball_rule(0.0, r).nodes[:, None] / r) ** np.arange(d + 1)[None, :]
    rng = np.random.default_rng(0)
    W2 = 10.0 ** rng.uniform(-6.0, 6.0, (len(V), 9))
    N = osc._gram(W2, osc._gram_columns(V), d + 1)
    # all 49 columns conj(V[n, i]) V[n, j]
    P = (V.conj()[:, :, None] * V[:, None, :]).reshape(len(V), -1)
    full = (W2.T @ P.view(float)).view(complex).reshape(-1, d + 1, d + 1)
    # two BLAS summation orders of each 1,826-node sum differ by roundoff,
    # measured up to 5.7 eps of the sum of |terms|; sqrt(1826) eps is 9.5e-15
    scale = (W2.T @ np.abs(P)).reshape(full.shape)
    assert N.shape == full.shape
    assert np.max(np.abs(N - full) / scale) <= 1e-14
    assert np.array_equal(N, N.conj().transpose(0, 2, 1))


def _hermitian(rng, k, lam):
    """U diag(lam) U^H for a random unitary U, exactly Hermitian."""
    U, _ = np.linalg.qr(rng.standard_normal((k, k))
                        + 1j * rng.standard_normal((k, k)))
    N = (U * lam) @ U.conj().T
    return (N + N.conj().T) / 2


def test_certified_solve_decides_as_eigvalsh(monkeypatch):
    # the Cholesky-and-bound certificate takes the eigensolve's decision on
    # Grams of cond 1e2 to 1e12, within a rounding of the cap^2 on either
    # side, and indefinite, at scales where the bound's sums of squares
    # overflow or underflow (under the CLI's errstate); its solution is
    # solve(N, b) to the bit
    rng = np.random.default_rng(3)
    k = 7
    cap2 = min(osc.COND_CAP, osc.GRAM_COND_CAP) ** 2
    conds = [*np.logspace(2, 12, 21), cap2 * (1 - 1e-9), cap2,
             cap2 * (1 + 1e-9), cap2 / 2, cap2 / 3]
    grams = [_hermitian(rng, k, np.geomspace(c, 1.0, k) * 10.0 ** e)
             for c in conds for e in (-170, -6, 0, 6, 170)]
    lam = rng.uniform(0.5, 2.0, k)
    lam[3] = -lam[3]
    grams.append(_hermitian(rng, k, lam))
    for N in grams:
        N = N[None]
        b = rng.standard_normal((1, k)) + 1j * rng.standard_normal((1, k))
        try:
            osc._certify(N)
            passes = True
        except osc.DegreeCapError:
            passes = False
        try:
            with np.errstate(over="raise", invalid="raise"):
                x = osc._certified_solve(N, b)
            assert passes
            assert np.array_equal(x, np.linalg.solve(N, b[..., None])[..., 0])
        except osc.DegreeCapError:
            assert not passes
    # a well-conditioned stack takes no eigensolve
    eig_calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        eig_calls.append(len(a))
        return eigvalsh(a)

    N = np.stack([g for g, c in zip(grams[2::5], conds) if c <= 1e8])
    b = rng.standard_normal((len(N), k)) + 1j * rng.standard_normal((len(N), k))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    x = osc._certified_solve(N, b)
    assert eig_calls == []
    assert np.array_equal(x, np.linalg.solve(N, b[..., None])[..., 0])
