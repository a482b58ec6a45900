"""Configuration-driven experiment runner.

Usage:  focklab <subcommand> --config <path> [--out <dir>] [--seed <n>]
        [key=value ...]

Every subcommand writes CSV artifacts plus a manifest (with content
checksums) under <out>/<subcommand>/<config-hash>/.  Reruns with the
same config and seed are byte-identical.
"""

import argparse
import hashlib
import os
import sys
import time
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, symbols
from .approximant import compact_approximant
from .config import ConfigError, ExperimentConfig, load_config
from .dbar import DbarSolver, calibrate_orientation, dbar_fd, \
    gaussian_test_forms
from .decomposition import build_partition, decompose, verify_controls
from .fock import KernelEval, build_basis, default_rule_for_degree, \
    fit_kernel_estimates, is_radial
from .lattice import Window, build_lattice, export_points_csv, \
    split_sublattices
from .quadrature import CapabilityError, gaussian_plane_rule
from .oscillation import g_functional, m_profile, ida_norm, vda_profile
from .spectral import berezin_transform, build_hankel_gram, \
    essential_norm_tail, hankel_on_kernel, measure_average, power_gauge, \
    schatten_h_criterion, singular_spectrum
from .weights import certify_weight, gaussian_weight, \
    perturbed_gaussian_weight


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.16e}{x.imag:+.16e}j"
    if isinstance(x, str):
        return x
    return f"{float(x):.16e}"


def write_csv(path: Path, header: list, rows: list) -> None:
    """Atomic CSV write: 17 significant digits, LF endings."""
    tmp = path.with_suffix(".tmp")
    body = ",".join(header) + "\n"
    body += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    tmp.write_text(body, newline="\n")
    os.replace(tmp, path)


class Runner:
    """Shared lazy construction of weight/basis/solver per invocation, and
    the pipeline steps the reports share."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._bases = {}
        self.calibration = {}

    @cached_property
    def weight(self):
        if self.cfg.get("weight.kind") == "gaussian":
            return gaussian_weight(self.cfg.get_float("weight.alpha"))
        return perturbed_gaussian_weight()

    def basis(self, degree=None):
        degree = self.cfg.get_int("basis.degree") if degree is None else degree
        if degree not in self._bases:
            if not is_radial(self.weight):
                raise ConfigError(f"weight.kind: the Fock basis needs a "
                                  f"radial weight, not "
                                  f"{self.cfg.get('weight.kind')!r}")
            order = self.cfg.get_int("quad.order")
            try:
                rule = (default_rule_for_degree(degree, self.weight.alpha)
                        if order == 0 else
                        gaussian_plane_rule(order, self.weight.alpha))
                self._bases[degree] = build_basis(self.weight, degree, rule)
            except (ValueError, CapabilityError) as exc:
                key = "basis.degree" if order == 0 else "quad.order"
                raise ConfigError(f"{key}: no stable degree-{degree} basis: "
                                  f"{exc}") from exc
        return self._bases[degree]

    @cached_property
    def solver(self):
        s = DbarSolver(self.weight,
                       n_radial=self.cfg.get_int("dbar.n_radial"),
                       n_angular=self.cfg.get_int("dbar.n_angular"))
        calibrate_orientation(s)
        self.calibration["c0"] = s.c0
        self.calibration["residual"] = s.calibration_residual
        return s

    def symbol(self, family=None):
        cfg = self.cfg
        family = cfg.get("symbol.id") if family is None else family
        build, params = symbols.FAMILIES[family]
        read = {float: cfg.get_float, list: cfg.get_floats}
        return build(**{name: read[kind](f"symbol.{name}")
                        for name, kind in params.items()})

    def lattice(self, half=None):
        cfg = self.cfg
        base = complex(cfg.get_float("lattice.base_re"),
                       cfg.get_float("lattice.base_im"))
        half = cfg.get_float("lattice.window") if half is None else half
        r = cfg.get_float("lattice.r")
        try:
            return build_lattice(base, r, Window.square(half))
        except ValueError as exc:
            raise ConfigError(f"lattice.window: half-width {half:g} at "
                              f"lattice.r={r:g}: {exc}") from exc

    def probes(self, rng) -> np.ndarray:
        half = self.cfg.get_float("probes.half_width")
        n = self.cfg.get_int("probes.count")
        pts = rng.uniform(-half, half, (n, 2))
        return pts[:, 0] + 1j * pts[:, 1]

    def spectrum(self, f, basis=None, margin=None):
        """Singular spectrum of H_f, on the configured basis and margin
        unless given."""
        basis = self.basis() if basis is None else basis
        margin = self.cfg.get_int("basis.margin") if margin is None \
            else margin
        try:
            G = build_hankel_gram(f, basis, margin)
        except (ValueError, CapabilityError) as exc:
            raise ConfigError(f"basis.degree/basis.margin: no stable Gram "
                              f"at degree {basis.degree}, margin {margin}: "
                              f"{exc}") from exc
        return singular_spectrum(G)

    def essential_norm(self, f):
        """Plateau estimate of ||H_f||_e from the configured spectrum."""
        S = self.spectrum(f)
        try:
            return essential_norm_tail(S)
        except ValueError as exc:
            raise ConfigError(f"basis.degree: {exc}") from exc

    def decomposition(self, f, L):
        """f = f1 + f2 on the partition of unity of L, fitted at the
        configured functional.q and functional.d."""
        return decompose(f, build_partition(L),
                         self.cfg.get_float("functional.q"),
                         self.cfg.get_int("functional.d"))


# --- subcommand implementations: each returns {filename: (header, rows)} ---

def cmd_certify_weight(r: Runner, rng):
    probes = r.probes(rng)
    rep = certify_weight(r.weight, probes, tol=1e-8)
    rows = [[p.real, p.imag] for p in probes]
    return {
        "probes.csv": (["re", "im"], rows),
        "report.csv": (["passed", "eig_min", "eig_max", "worst_violation"],
                       [[int(rep.passed), rep.eig_min, rep.eig_max,
                         rep.worst_violation]]),
    }


def cmd_build_basis(r: Runner, rng):
    b = r.basis()
    rows = [[k, b.c[k], b.c[k] ** 2] for k in range(b.degree + 1)]
    return {"normalizations.csv": (["k", "c_k", "c_k_squared"], rows)}


def cmd_kernel_fit(r: Runner, rng):
    K = KernelEval(r.basis())
    half = r.cfg.get_float("probes.half_width")
    g = np.linspace(-half, half, 7)
    est = fit_kernel_estimates(K, (g[:, None] + 1j * g[None, :]).ravel())
    return {"kernel_fit.csv": (
        ["theta", "C1", "C2", "r0", "fit_residual", "bound_holds"],
        [[est.theta, est.C1, est.C2, est.r0, est.fit_residual,
          int(est.bound_holds)]])}


def cmd_lattice(r: Runner, rng):
    L = r.lattice()
    K = r.cfg.get_int("lattice.K")
    rows = export_points_csv(L, K)
    sub_sizes = [[s.index, s.representative.real, s.representative.imag,
                  len(s.points)] for s in split_sublattices(L, K)]
    return {
        "points.csv": (["index", "re", "im", "sublattice_id"], rows),
        "sublattices.csv": (["index", "rep_re", "rep_im", "count"],
                            sub_sizes),
    }


def _shell_rows(profile):
    rows = []
    for p, v in zip(profile.sample_points, profile.values):
        rows.append([p.real, p.imag, abs(p), v])
    return rows


def cmd_g_profile(r: Runner, rng):
    cfg = r.cfg
    prof = vda_profile(r.symbol(), cfg.get_float("functional.q"),
                       cfg.get_float("functional.r"),
                       cfg.get_int("functional.d"),
                       cfg.get_floats("functional.shells"))
    return {"g_profile.csv": (["re", "im", "shell_radius", "value"],
                              _shell_rows(prof))}


def cmd_m_profile(r: Runner, rng):
    cfg = r.cfg
    prof = m_profile(r.symbol(), cfg.get_float("functional.q"),
                     cfg.get_float("functional.r"),
                     cfg.get_floats("functional.shells"))
    return {"m_profile.csv": (["re", "im", "shell_radius", "value"],
                              _shell_rows(prof))}


def cmd_ida_norm(r: Runner, rng):
    cfg = r.cfg
    s_raw = cfg.get("functional.s")
    s = np.inf if s_raw == "inf" else float(s_raw)
    val = ida_norm(r.symbol(), s, cfg.get_float("functional.q"),
                   cfg.get_float("functional.r"), r.lattice(),
                   cfg.get_int("functional.d"))
    return {"ida_norm.csv": (["s", "q", "r", "value"],
                             [[s_raw, cfg.get_float("functional.q"),
                               cfg.get_float("functional.r"), val]])}


def cmd_decompose(r: Runner, rng):
    cfg = r.cfg
    f = r.symbol()
    D = r.decomposition(f, r.lattice())
    probes = r.probes(rng)
    rep = verify_controls(D, probes, cfg.get_float("functional.r"),
                          cfg.get_float("functional.q"))
    fv, f1 = f(probes), D.f1(probes)
    rows = np.column_stack([probes.real, probes.imag, np.abs(fv), np.abs(f1),
                            np.abs(fv - f1), np.abs(D.dbar_f1(probes)),
                            rep.g_values]).tolist()
    summary = [[rep.sup_dbar_f1, rep.sup_m_f2, rep.max_ratio_dbar,
                rep.max_ratio_m]]
    return {
        "pointwise.csv": (["re", "im", "abs_f", "abs_f1", "abs_f2",
                           "abs_dbar_f1", "G"], rows),
        "controls.csv": (["sup_dbar_f1", "sup_m_f2", "max_ratio_dbar",
                          "max_ratio_m"], summary),
    }


def cmd_dbar_check(r: Runner, rng):
    solver = r.solver
    probes = r.probes(rng) * 0.5
    rows = []
    for i, omega in enumerate(gaussian_test_forms(r.weight.alpha)):
        resid = np.abs(dbar_fd(lambda z: solver.apply(omega, z), probes)
                       - omega(probes))
        wmax = float(np.max(np.abs(omega(probes))))
        for p, res in zip(probes, resid):
            rows.append([i, p.real, p.imag, res, wmax])
    return {"residuals.csv": (["form", "re", "im", "abs_residual",
                               "max_abs_form"], rows)}


def cmd_hankel_svd(r: Runner, rng):
    S = r.spectrum(r.symbol())
    rows = [[k, s] for k, s in enumerate(S.values)]
    return {
        "spectrum.csv": (["k", "s_k"], rows),
        "stability.csv": (["degree", "projection_degree", "margin_shift"],
                          [[S.degree, S.projection_degree,
                            S.stability_shift]]),
    }


def cmd_kz_profile(r: Runner, rng):
    cfg = r.cfg
    f = r.symbol()
    K = KernelEval(r.basis(max(cfg.get_int("basis.degree"), 50)))
    q = cfg.get_float("functional.q")
    shells = cfg.get_floats("functional.shells")
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    rows = []
    for rad in shells:
        for a in angles:
            z = rad * a
            rows.append([z.real, z.imag, rad,
                         hankel_on_kernel(f, z, q, K)])
    return {"kz_profile.csv": (["re", "im", "shell_radius", "norm"], rows)}


def cmd_essential_norm(r: Runner, rng):
    est = r.essential_norm(r.symbol())
    return {"essential_norm.csv": (
        ["estimate", "slope", "window_lo", "window_hi", "reliable"],
        [[est.estimate, est.slope, est.window[0], est.window[1],
          int(est.reliable)]])}


def _gap_rows(r: Runner, ts):
    """Rows [t, ||H_f - H_{h_t}||, ess] for each cutoff radius t.  The
    lattice covers the configured window and supp sigma_t of the largest
    t plus two bump radii; cells beyond that would add exact zeros."""
    cfg = r.cfg
    f = r.symbol()
    ess = r.essential_norm(f).estimate
    L = r.lattice(max(cfg.get_float("lattice.window"),
                      ts[-1] + 1 + 2 * cfg.get_float("lattice.r")))
    D = r.decomposition(f, L)
    return [[t, compact_approximant(f, D, r.solver, t, r.basis(),
                                    cfg.get_int("basis.margin")), ess]
            for t in ts]


def cmd_compact_approx(r: Runner, rng):
    return {"gap.csv": (["t", "gap", "ess_tail"],
                        _gap_rows(r, [r.cfg.get_float("approx.t")]))}


def cmd_schatten(r: Runner, rng):
    cfg = r.cfg
    f = r.symbol()
    verdicts, = schatten_h_criterion(
        f, [power_gauge(cfg.get_float("gauge.p"))],
        cfg.get_float("functional.r"), cfg.get_int("functional.d"),
        r.lattice(), r.spectrum(f), c_grid=cfg.get_floats("gauge.c_grid"))
    rows = [[v.c, v.integral_value, int(v.integral_convergent),
             v.sum_value, int(v.sum_convergent), int(v.agree)]
            for v in verdicts]
    return {"verdicts.csv": (["c", "integral", "integral_convergent",
                              "sum", "sum_convergent", "agree"], rows)}


def cmd_berezin(r: Runner, rng):
    cfg = r.cfg
    density = None if cfg.get("measure.density") == "lebesgue" else \
        (lambda z: np.exp(-np.abs(z) ** 2))
    K = KernelEval(r.basis(max(cfg.get_int("basis.degree"), 40)))
    rows = []
    for z in r.probes(rng):
        bt = berezin_transform(density, K, z)
        avg = measure_average(density, z, cfg.get_float("functional.r"))
        rows.append([z.real, z.imag, bt, avg,
                     avg / bt if bt > 0 else 0.0])
    return {"berezin.csv": (["re", "im", "berezin", "ball_average",
                             "ratio"], rows)}


THM11_FAMILIES = ("conj-linear", "conj-gaussian", "bump", "mixed")


def cmd_thm11_report(r: Runner, rng):
    cfg = r.cfg
    q = cfg.get_float("functional.q")
    rr = cfg.get_float("functional.r")
    d = cfg.get_int("functional.d")
    shells = cfg.get_floats("functional.shells")
    K = KernelEval(r.basis(50))
    L = build_lattice(0, 0.5, Window.square(shells[-1] + 1 + 2 * rr))
    angles = np.exp(2j * np.pi * np.arange(8) / 8)

    all_rows, ratio_rows = [], []
    for family in THM11_FAMILIES:
        f = r.symbol(family)
        ess = essential_norm_tail(r.spectrum(f, r.basis(30), 10)).estimate
        D = r.decomposition(f, L)
        for rad in shells:
            pts = rad * angles
            kz = max(hankel_on_kernel(f, z, q, K) for z in pts)
            gmax = float(np.max(g_functional(f, pts, rr, q, d)))
            dec = (float(np.max(np.abs(D.dbar_f1(pts))))
                   + max(verify_controls(D, pts, rr, q).sup_m_f2, 0.0))
            all_rows.append([family, rad, ess, kz, gmax, dec])
        final = all_rows[-1]
        vals = [v for v in final[2:5] if v > 0]
        ratio = max(vals) / min(vals) if len(vals) == 3 else 0.0
        ratio_rows.append([family, final[2], final[3], final[4], final[5],
                           ratio])
    return {
        "quantities.csv": (["symbol", "shell", "ess_tail", "kz_max",
                            "g_max", "decomposition_bound"], all_rows),
        "ratios.csv": (["symbol", "ess_tail", "kz_max", "g_max",
                        "decomposition_bound", "pairwise_ratio_135"],
                       ratio_rows),
    }


def cmd_thm12_report(r: Runner, rng):
    return {"gaps.csv": (["t", "gap", "ess_tail"],
                         _gap_rows(r, r.cfg.get_floats("functional.shells")))}


THM13_POWERS = (1.0, 2.0, 4.0)


def cmd_thm13_report(r: Runner, rng):
    cfg = r.cfg
    L = r.lattice()
    rows = []
    for family in ("bump", "conj-linear"):
        f = r.symbol(family)
        per_gauge = schatten_h_criterion(
            f, [power_gauge(p) for p in THM13_POWERS],
            cfg.get_float("functional.r"), cfg.get_int("functional.d"), L,
            r.spectrum(f), c_grid=cfg.get_floats("gauge.c_grid"))
        for p, verdicts in zip(THM13_POWERS, per_gauge):
            for v in verdicts:
                rows.append([family, p, v.c, int(v.integral_convergent),
                             int(v.sum_convergent), int(v.agree)])
    return {"verdicts.csv": (["symbol", "p", "c", "integral_convergent",
                              "sum_convergent", "agree"], rows)}


SUBCOMMANDS = {
    "certify-weight": cmd_certify_weight,
    "build-basis": cmd_build_basis,
    "kernel-fit": cmd_kernel_fit,
    "lattice": cmd_lattice,
    "g-profile": cmd_g_profile,
    "m-profile": cmd_m_profile,
    "ida-norm": cmd_ida_norm,
    "decompose": cmd_decompose,
    "dbar-check": cmd_dbar_check,
    "hankel-svd": cmd_hankel_svd,
    "kz-profile": cmd_kz_profile,
    "essential-norm": cmd_essential_norm,
    "compact-approx": cmd_compact_approx,
    "schatten": cmd_schatten,
    "berezin": cmd_berezin,
    "thm11-report": cmd_thm11_report,
    "thm12-report": cmd_thm12_report,
    "thm13-report": cmd_thm13_report,
}


def run(subcommand: str, cfg: ExperimentConfig, out_dir: str) -> Path:
    """Execute a subcommand; returns the run directory."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    rng = np.random.default_rng(cfg.seed)
    runner = Runner(cfg)
    t0 = time.time()
    try:
        with warnings.catch_warnings(record=True) as caught:
            outputs = SUBCOMMANDS[subcommand](runner, rng)
        elapsed = time.time() - t0
    finally:
        for w in caught:     # recorded for the manifest, and still shown
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, source=w.source)
    run_dir = Path(out_dir) / subcommand / cfg.hash()
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in outputs.items():
        write_csv(run_dir / name, header, rows)
    manifest = [f"config_hash={cfg.hash()}",
                f"seed={cfg.seed}",
                f"version={__version__}",
                f"wall_time_s={elapsed:.3f}"]
    for key, val in runner.calibration.items():
        manifest.append(f"calibration.{key}={val}")
    for w in caught:
        text = " ".join(str(w.message).split())
        manifest.append(f"warning={w.category.__name__}: {text}")
    for name in sorted(outputs):
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        manifest.append(f"file={name} sha256={digest}")
    tmp = run_dir / "manifest.tmp"
    tmp.write_text("\n".join(manifest) + "\n", newline="\n")
    os.replace(tmp, run_dir / "manifest.txt")
    return run_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Numerical experiments on weighted Fock spaces and "
                    "Hankel operators")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("overrides", nargs="*",
                        help="key=value config overrides")
    args = parser.parse_intermixed_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, seed=args.seed)
        run_dir = run(args.subcommand, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
