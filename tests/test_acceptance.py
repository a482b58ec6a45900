"""Acceptance gate: one test per release criterion.

Each test prints a single summary line; run with `pytest -v` to get the
per-criterion pass/fail listing.
"""

import math

import numpy as np
import pytest

from checks import covering_multiplicity, hankel_via_dbar, nearest_distance
from focklab import symbols
from focklab.approximant import compact_approximant
from focklab.cli import main as cli_main
from focklab.dbar import (DbarSolver, calibrate_orientation, dbar_fd,
                          gaussian_test_forms)
from focklab.decomposition import build_partition, decompose, verify_controls
from focklab.fock import (build_basis, default_rule_for_degree,
                          evaluate_projection, kernel, lp_norm, project)
from focklab.lattice import Window, build_lattice, split_sublattices
from focklab.oscillation import g_functional, mean_oscillation
from focklab.spectral import (berezin_transform, build_hankel_gram,
                              essential_norm_tail, hankel_on_kernel,
                              measure_average, power_gauge,
                              schatten_h_criterion)
from focklab.weights import gaussian_weight

FOUR_SYMBOLS = [("conj-linear", {}), ("conj-gaussian", {"beta": 1.0}),
                ("bump", {"radius": 2.0}), ("mixed", {"radius": 2.0})]


@pytest.fixture(scope="module")
def w():
    return gaussian_weight(1.0)


@pytest.fixture(scope="module")
def basis20(w):
    return build_basis(w, 20, default_rule_for_degree(20, 1.0))


@pytest.fixture(scope="module")
def solver(w):
    return DbarSolver(w, n_radial=60, n_angular=96)


@pytest.fixture(scope="module")
def rng_probes():
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-1.5, 1.5, (25, 2))
    return pts[:, 0] + 1j * pts[:, 1]


def _report(n, detail):
    print(f"[criterion {n:02d}] PASS  {detail}")


def test_criterion_01_kernel_engine(w):
    b = build_basis(w, 40, default_rule_for_degree(40, 1.0))
    rel = max(abs(b.c[k] ** 2 - np.pi * math.factorial(k))
              / (np.pi * math.factorial(k)) for k in range(21))
    assert rel < 1e-10
    g = np.linspace(-2.0, 2.0, 9)
    zz = (g[:, None] + 1j * g[None, :]).ravel()
    Ez = b.evaluate(zz)
    worst = 0.0
    for wpt in zz[::7]:
        a = kernel(b, zz, wpt)
        basis_sum = Ez @ np.conj(b.evaluate(wpt)[0])
        worst = max(worst, float(np.max(np.abs(basis_sum - a)
                                        / np.abs(a))))
    assert worst < 1e-8
    _report(1, f"c_k^2 rel err {rel:.1e}; basis-sum vs closed {worst:.1e}")


def test_criterion_02_projection(basis25, weight):
    rule = basis25.rule
    worst = 0.0
    for k in range(11):
        ek = rule.nodes ** k / basis25.c[k]
        co = project(basis25, ek, rule)
        diff = evaluate_projection(basis25, co, rule.nodes) - ek
        worst = max(worst, lp_norm(diff, 2.0, rule, weight))
    assert worst < 1e-8
    n2 = lp_norm(kernel(basis25, rule.nodes, 1.0), 2.0, rule, weight) ** 2
    K11 = float(np.real(kernel(basis25, 1.0, 1.0)))
    assert abs(n2 - K11) / K11 < 1e-6
    _report(2, f"max ||P e_k - e_k|| {worst:.1e}; "
               f"kernel norm rel err {abs(n2 - K11) / K11:.1e}")


def test_criterion_03_lattice_invariants():
    g = np.linspace(-3.0, 3.0, 31)
    fine = (g[:, None] + 1j * g[None, :]).ravel()
    for r in (0.5, 1.0, 2.0):
        L = build_lattice(0.0, r, Window.square(5.0))
        assert np.max(nearest_distance(L, fine)) <= r + 1e-12
        d = np.abs(L.points[:, None] - L.points[None, :])
        d[np.diag_indices_from(d)] = np.inf
        assert d.min() >= r - 1e-12
        for K in (1, 2, 3):
            subs = split_sublattices(L, K)
            assert len(subs) == K * K
            assert sum(len(s.points) for s in subs) == len(L.points)
    unit = build_lattice(0.0, 1.0, Window.square(5.0))
    assert covering_multiplicity(unit, 0.0, 2.0) == 9
    _report(3, "covering/separation/partition exact; multiplicity(0,2r)=9")


def test_criterion_04_oscillation_oracles(rng_probes):
    f = symbols.make("conj-linear")
    worst = 0.0
    for r in (0.5, 1.0):
        vals = g_functional(f, rng_probes, r, 2.0, 6)
        worst = max(worst, float(np.max(np.abs(vals - r / np.sqrt(2.0)))))
    assert worst < 1e-4
    poly = symbols.make("holo-poly", coeffs=[1.0, -0.5j, 0.25, 1.0])
    holo = float(np.max(g_functional(poly, rng_probes, 1.0, 2.0, 6)))
    assert holo < 1e-9
    for fam, kw in FOUR_SYMBOLS:
        fsym = symbols.make(fam, **kw)
        G = g_functional(fsym, rng_probes, 0.5, 2.0, 6)
        M = mean_oscillation(fsym, rng_probes, 0.5, 2.0)
        assert np.all(G <= M + 1e-10)
    _report(4, f"G(conj) dev {worst:.1e}; holo G {holo:.1e}; G<=M at all "
               "probes")


def test_criterion_05_decomposition(rng_probes):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.2, 2.2, (40, 2))
    probes = pts[:, 0] + 1j * pts[:, 1]
    drift = {}
    for fam, kw in FOUR_SYMBOLS:
        f = symbols.make(fam, **kw)
        combined = []
        for rl in (0.5, 0.25):
            L = build_lattice(0.0, rl, Window.square(4.0))
            D = decompose(f, build_partition(L), 2.0, 6)
            assert np.max(np.abs(D.f1(probes) + D.f2(probes)
                                 - f(probes))) < 1e-12
            rep, = verify_controls([D], probes, rl, 2.0)
            sup_g = max(float(np.max(rep.g_values)), 1e-12)
            combined.append((rl * rep.sup_dbar_f1 + rep.sup_m_f2) / sup_g)
            assert np.isfinite(combined[-1])
        drift[fam] = abs(combined[1] - combined[0]) / combined[0]
        assert drift[fam] <= 0.20
    # measurable-only family: exactness still holds
    L = build_lattice(0.0, 0.5, Window.square(4.0))
    step = symbols.make("step", radius=2.0)
    Ds = decompose(step, build_partition(L), 2.0, 6)
    assert np.max(np.abs(Ds.f1(probes) + Ds.f2(probes)
                         - step(probes))) < 1e-12
    # holomorphic symbols: both numerators negligible
    poly = symbols.make("holo-poly", coeffs=[1.0, 0.5, -0.25])
    Dp = decompose(poly, build_partition(L), 2.0, 6)
    rep, = verify_controls([Dp], probes, 0.5, 2.0)
    assert rep.sup_dbar_f1 < 1e-8 and rep.sup_m_f2 < 1e-8
    worst = max(drift.values())
    _report(5, f"exact split; worst refinement drift {worst:.1%} <= 20%; "
               f"holo numerators < 1e-8")


def test_criterion_06_dbar_solver(solver, basis25, weight):
    assert calibrate_orientation(solver) < 1e-3
    rng = np.random.default_rng(13)
    z = rng.uniform(-0.8, 0.8, 15) + 1j * rng.uniform(-0.8, 0.8, 15)
    worst = 0.0
    for omega in gaussian_test_forms(1.0):
        scale = float(np.max(np.abs(omega(z))))
        resid = float(np.max(np.abs(
            dbar_fd(lambda q: solver.apply([omega], q)[0], z) - omega(z))))
        worst = max(worst, resid / scale)
    assert worst <= 1e-3
    rule = basis25.rule
    ew2 = np.exp(-2.0 * weight.phi(rule.nodes))
    f = symbols.make("bump", radius=2.0)
    rel = 0.0
    for w0 in (0.0, 0.5 + 0.3j):
        lhs, rhs = hankel_via_dbar(solver, f,
                                   lambda xi: kernel(basis25, xi, w0),
                                   basis25)
        num = np.sqrt(abs(rule.integrate(np.abs(lhs - rhs) ** 2 * ew2)))
        den = np.sqrt(abs(rule.integrate(np.abs(rhs) ** 2 * ew2)))
        rel = max(rel, num / den)
    assert rel < 5e-2
    _report(6, f"c0 = -1/pi; dbar residual {worst:.1e}; "
               f"Hankel identity rel err {rel:.1e}")


def test_criterion_07_hankel_spectra(w):
    poly = symbols.make("holo-poly", coeffs=[0.5, 1.0, -0.5j])
    Sp = build_hankel_gram(poly, w, 20, margin=10)
    assert Sp.values[0] <= 1e-8
    f = symbols.make("conj-linear")
    G = build_hankel_gram(f, w, 20, margin=10)
    dev = float(np.max(np.abs(G.values[:16] - 1.0)))
    assert dev <= 1e-3
    assert G.stability_shift < 1e-6
    _report(7, f"holo s1 {Sp.values[0]:.1e}; conj s_k dev {dev:.1e}; "
               f"margin shift {G.stability_shift:.1e}")


def test_criterion_08_bracket(w):
    basis = build_basis(w, 50, default_rule_for_degree(50, 1.0))
    shell = 5.0
    angles = shell * np.exp(2j * np.pi * np.arange(8) / 8)
    rows = {}
    for fam, kw in FOUR_SYMBOLS:
        f = symbols.make(fam, **kw)
        ess = essential_norm_tail(build_hankel_gram(f, w, 30, 10)).estimate
        kz = float(np.max(hankel_on_kernel([f], angles, 2.0, basis)))
        G = float(np.max(g_functional(f, angles, 0.5, 2.0, 6)))
        rows[fam] = (ess, kz, G)
    for fam in ("conj-linear", "mixed"):
        vals = rows[fam]
        assert max(vals) / min(vals) <= 10.0
    for fam in ("conj-gaussian", "bump"):
        for a, b in zip(rows[fam], rows["conj-linear"]):
            assert a < 0.05 * b
    _report(8, f"conj-linear (ess,kz,G) = "
               f"{tuple(round(v, 4) for v in rows['conj-linear'])}; "
               "decaying symbols < 0.05x")


def test_criterion_09_approximants(w, basis20):
    ess = essential_norm_tail(build_hankel_gram(
        symbols.make("mixed"), w, 20, 10)).estimate
    # compactly supported symbol: cutoff at t = 2 removes nearly everything
    fb = symbols.make("bump")
    Lb = build_lattice(0.0, 0.5, Window.square(4.0))
    Db = decompose(fb, build_partition(Lb), 2.0, 6)
    gap2 = compact_approximant(fb, Db, 2.0, basis20, 10).values[0]
    assert gap2 <= 1e-2
    fm = symbols.make("mixed")
    Lm = build_lattice(0.0, 0.5, Window.square(7.0))
    Dm = decompose(fm, build_partition(Lm), 2.0, 6)
    gap4 = compact_approximant(fm, Dm, 4.0, basis20, 10).values[0]
    assert gap4 >= 0.5
    assert abs(gap4 - ess) <= 0.5 * ess
    _report(9, f"bump gap(2) {gap2:.1e}; mixed gap(4) {gap4:.3f} vs "
               f"ess {ess:.3f}")


def test_criterion_10_schatten_verdicts(weight):
    L = build_lattice(0.0, 0.5, Window.square(5.0))
    families = FOUR_SYMBOLS + [("step", {"radius": 2.0}),
                               ("holo-poly", {"coeffs": [0.0, 1.0]})]
    for fam, kw in families:
        f = symbols.make(fam, **kw)
        S = build_hankel_gram(f, weight, 25, 10)
        powers = (1.0, 2.0, 4.0)
        per_gauge = schatten_h_criterion(
            g_functional(f, L.points, 0.5, 2.0, 6),
            [power_gauge(p) for p in powers], L, S, c_grid=(0.5, 1.0, 2.0))
        for p, verdicts in zip(powers, per_gauge):
            for v in verdicts:
                assert v.agree, (fam, p, v.c)
                if fam == "bump":
                    assert v.integral_convergent and v.sum_convergent
                if fam == "conj-linear":
                    assert not v.integral_convergent
                    assert not v.sum_convergent
    _report(10, "integral/sum flags agree on all six families, "
                "p in {1,2,4}, 3-point c-grid")


def test_criterion_11_berezin(basis25, rng_probes):
    dev = float(np.max(np.abs(
        berezin_transform(None, basis25, rng_probes[:10]) - 1.0)))
    assert dev < 1e-8

    def density(z):
        return np.exp(-np.abs(z) ** 2)

    bt = berezin_transform(density, basis25, rng_probes)
    chat = float(np.max(measure_average(density, rng_probes, 0.5) / bt))
    assert chat <= 5.0
    _report(11, f"Lebesgue Berezin dev {dev:.1e}; hat-C {chat:.2f} <= 5")


def test_criterion_12_reproducibility(tmp_path):
    cases = [
        ["lattice", "lattice.window=3.0", "lattice.K=2"],
        ["hankel-svd", "basis.degree=12", "symbol.id=conj-gaussian"],
        ["g-profile", "functional.shells=1.0,2.0", "functional.r=0.5"],
    ]
    for case in cases:
        bodies = []
        for sub in ("a", "b"):
            out = str(tmp_path / case[0] / sub)
            assert cli_main([case[0], "--out", out, "--seed", "3",
                             *case[1:]]) == 0
            run_dir = next((tmp_path / case[0] / sub / case[0]).iterdir())
            bodies.append(sorted(
                (p.name, p.read_bytes())
                for p in run_dir.iterdir() if p.suffix == ".csv"))
        assert bodies[0] == bodies[1]
    _report(12, "byte-identical CSV bodies across reruns (3 subcommands)")
