"""Configuration-driven experiment runner.

Usage:  focklab <subcommand> --config <path> [--out <dir>] [--seed <n>]
        [key=value ...]

Every subcommand writes CSV artifacts plus a manifest (with content
checksums) under <out>/<subcommand>/<config-hash>/.  Reruns with the
same config and seed are byte-identical at one BLAS thread count.
"""

import argparse
import hashlib
import os
import sys
import time
import warnings
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, symbols
from .approximant import compact_approximant
from .config import ConfigError, ExperimentConfig, load_config
from .dbar import C0, CalibrationError, DbarSolver, \
    calibrate_orientation, dbar_fd, gaussian_test_forms
from .decomposition import InvalidProfileError, build_partition, \
    decompose, verify_controls
from .fock import build_basis, fit_kernel_estimates, kernel
from .lattice import Window, build_lattice, export_points_csv, \
    split_sublattices
from .quadrature import CapabilityError
from .oscillation import DegreeCapError, g_functional, ida_norm, \
    mean_oscillation
from .spectral import SHIFT_TOL, berezin_transform, build_hankel_gram, \
    essential_norm_tail, hankel_on_kernel, measure_average, power_gauge, \
    schatten_h_criterion
from .weights import WeightEvaluationError, certify_weight, \
    gaussian_weight, perturbed_gaussian_weight


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
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


@contextmanager
def _blamed_on(key, *errors):
    """An overflow, an invalid operation or one of `errors` in the block
    becomes a ConfigError naming `key`; the one conversion of a runtime
    failure into a config error.  A ConfigError from an inner block keeps
    the key it names."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except ConfigError:
        raise
    except (FloatingPointError, OverflowError, *errors) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


# the directions of the g-profile and m-profile samples on each shell
PROFILE_ANGLES = np.exp(2j * np.pi * np.arange(12) / 12)
KZ_ANGLES = np.exp(2j * np.pi * np.arange(8) / 8)


def _lattice(base, r, half, key):
    """Lattice of spacing r on the square window of half-width `half`; a
    window too large to enumerate is blamed on `key`."""
    with _blamed_on(key, ValueError):
        return build_lattice(base, r, Window.square(half))


class Runner:
    """Lazy weight and solver per invocation, bases on demand (their plane
    rules are memoised), and the pipeline steps the reports share."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.calibration = {}

    @cached_property
    def weight(self):
        if self.cfg["weight.kind"] == "gaussian":
            return gaussian_weight(self.cfg["weight.alpha"])
        return perturbed_gaussian_weight()

    @cached_property
    def radial_weight(self):
        if self.weight.kind != "gaussian":
            raise ConfigError(f"weight.kind: the Fock basis needs the "
                              f"Gaussian weight, not "
                              f"{self.cfg['weight.kind']!r}")
        return self.weight

    def basis(self, degree=None):
        degree = self.cfg["basis.degree"] if degree is None else degree
        with _blamed_on("basis.degree/weight.alpha", ValueError,
                        CapabilityError):
            return build_basis(self.radial_weight, degree)

    @cached_property
    def solver(self):
        """The configured DbarSolver, certified.  Its residual is
        memoised per process by weight and grid, so only the first Runner
        of a grid pays the solve; the tolerance is checked on every
        call."""
        with _blamed_on("dbar.n_radial/dbar.n_angular/weight.alpha",
                        CalibrationError):
            s = DbarSolver(self.weight, n_radial=self.cfg["dbar.n_radial"],
                           n_angular=self.cfg["dbar.n_angular"])
            residual = calibrate_orientation(s)
        self.calibration["c0"] = C0
        self.calibration["residual"] = residual
        return s

    def symbol(self, family=None):
        """The symbol of `family` (symbol.id unless given) at its configured
        parameters; one whose |f|^2 is not finite at 0 or on KZ_ANGLES is
        blamed on those parameters' keys."""
        family = self.cfg["symbol.id"] if family is None else family
        params = symbols.FAMILIES[family][1]
        f = symbols.make(family, **{name: self.cfg[f"symbol.{name}"]
                                    for name in params})
        keys = "/".join(f"symbol.{name}" for name in params) or "symbol.id"
        with _blamed_on(keys, ValueError):
            sq = np.abs(f(np.append(KZ_ANGLES, 0))) ** 2
            if not np.all(np.isfinite(sq)):
                raise ValueError("|f|^2 is not finite on the unit circle "
                                 "and at 0")
        return f

    def lattice(self, half=None, key="lattice.window"):
        """Lattice of the configured base and spacing on the square window
        of half-width `half` (lattice.window unless given); a window too
        large to enumerate is blamed on `key`."""
        cfg = self.cfg
        base = complex(cfg["lattice.base_re"], cfg["lattice.base_im"])
        half = cfg["lattice.window"] if half is None else half
        return _lattice(base, cfg["lattice.r"], half, key)

    def probes(self, rng) -> np.ndarray:
        half = self.cfg["probes.half_width"]
        n = self.cfg["probes.count"]
        pts = rng.uniform(-half, half, (n, 2))
        return pts[:, 0] + 1j * pts[:, 1]

    def spectrum(self, f, degree=None, margin=None):
        """Hankel Gram of H_f with its singular values, at the configured
        basis degree and margin unless given."""
        degree = self.cfg["basis.degree"] if degree is None else degree
        margin = self.cfg["basis.margin"] if margin is None else margin
        with _blamed_on("basis.degree/basis.margin", ValueError,
                        CapabilityError):
            return build_hankel_gram(f, self.radial_weight, degree, margin)

    def essential_norm(self, f):
        """Plateau estimate of ||H_f||_e from the configured spectrum."""
        with _blamed_on("basis.degree", ValueError):
            return essential_norm_tail(self.spectrum(f))

    def decomposition(self, f, P):
        """f = f1 + f2 on the partition of unity P, fitted at the
        configured functional.q and functional.d on the bump supports, of
        radius 2 lattice.r."""
        with _blamed_on("functional.q/lattice.r", DegreeCapError):
            return decompose(f, P, self.cfg["functional.q"],
                             self.cfg["functional.d"])

    def g_on_lattice(self, f, L):
        """G_{2,r}(f) at the points of L, at the configured functional.r
        and functional.d: the values the Schatten criterion sums."""
        with _blamed_on("functional.r"):
            return g_functional(f, L.points, self.cfg["functional.r"], 2.0,
                                self.cfg["functional.d"])


# --- subcommand implementations: each returns {filename: (header, rows)} ---

def cmd_certify_weight(r: Runner, rng):
    probes = r.probes(rng)
    with _blamed_on("probes.half_width", WeightEvaluationError):
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
    b = r.basis()
    half = r.cfg["probes.half_width"]
    g = np.linspace(-half, half, 7)
    with _blamed_on("probes.half_width/weight.alpha", ValueError):
        est = fit_kernel_estimates(b, (g[:, None] + 1j * g[None, :]).ravel())
    return {"kernel_fit.csv": (
        ["theta", "C1", "C2", "r0", "fit_residual", "bound_holds"],
        [[est.theta, est.C1, est.C2, est.r0, est.fit_residual,
          int(est.bound_holds)]])}


def cmd_lattice(r: Runner, rng):
    L = r.lattice()
    K = r.cfg["lattice.K"]
    rows = export_points_csv(L, K)
    sub_sizes = [[s.index, s.representative.real, s.representative.imag,
                  len(s.points)] for s in split_sublattices(L, K)]
    return {
        "points.csv": (["index", "re", "im", "sublattice_id"], rows),
        "sublattices.csv": (["index", "rep_re", "rep_im", "count"],
                            sub_sizes),
    }


def _shell_rows(points, values, shells):
    """Rows (re, im, shell_radius, value) of a profile sampled shell by
    shell, as many points to each shell, the radius as configured."""
    return np.column_stack([points.real, points.imag,
                            np.repeat(shells, len(points) // len(shells)),
                            values]).tolist()


def cmd_g_profile(r: Runner, rng):
    cfg = r.cfg
    shells = cfg["functional.shells"]
    z = np.multiply.outer(shells, PROFILE_ANGLES).ravel()
    with _blamed_on("functional.q/functional.r/functional.shells",
                    DegreeCapError):
        G = g_functional(r.symbol(), z, cfg["functional.r"],
                         cfg["functional.q"], cfg["functional.d"])
    return {"g_profile.csv": (["re", "im", "shell_radius", "value"],
                              _shell_rows(z, G, shells))}


def cmd_m_profile(r: Runner, rng):
    cfg = r.cfg
    shells = cfg["functional.shells"]
    z = np.multiply.outer(shells, PROFILE_ANGLES).ravel()
    with _blamed_on("functional.q/functional.r/functional.shells"):
        M = mean_oscillation(r.symbol(), z, cfg["functional.r"],
                             cfg["functional.q"])
    return {"m_profile.csv": (["re", "im", "shell_radius", "value"],
                              _shell_rows(z, M, shells))}


def cmd_ida_norm(r: Runner, rng):
    cfg = r.cfg
    L = r.lattice()
    with _blamed_on("functional.q/functional.r", DegreeCapError):
        val = ida_norm(r.symbol(), cfg["functional.s"], cfg["functional.q"],
                       cfg["functional.r"], L, cfg["functional.d"])
    # s echoed as given, "inf" included
    return {"ida_norm.csv": (["s", "q", "r", "value"],
                             [[cfg.get("functional.s"), cfg["functional.q"],
                               cfg["functional.r"], val]])}


def cmd_decompose(r: Runner, rng):
    cfg = r.cfg
    f = r.symbol()
    D = r.decomposition(f, build_partition(r.lattice()))
    probes = r.probes(rng)
    with _blamed_on("probes.half_width/functional.r", InvalidProfileError):
        rep, = verify_controls([D], probes, cfg["functional.r"],
                               cfg["functional.q"])
    fv, f1 = f(probes), D.f1(probes)
    rows = np.column_stack([probes.real, probes.imag, np.abs(fv), np.abs(f1),
                            np.abs(fv - f1), rep.abs_dbar_f1,
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
    forms = gaussian_test_forms(r.weight.alpha)
    dbar_u = dbar_fd(lambda z: solver.apply(forms, z), probes)
    rows = []
    for i, (omega, du) in enumerate(zip(forms, dbar_u)):
        w = omega(probes)
        resid = np.abs(du - w)
        wmax = float(np.max(np.abs(w)))
        for p, res in zip(probes, resid):
            rows.append([i, p.real, p.imag, res, wmax])
    return {"residuals.csv": (["form", "re", "im", "abs_residual",
                               "max_abs_form"], rows)}


def cmd_hankel_svd(r: Runner, rng):
    S = r.spectrum(r.symbol())
    rows = [[k, s] for k, s in enumerate(S.values)]
    return {
        "spectrum.csv": (["k", "s_k"], rows),
        "stability.csv": (["degree", "projection_degree", "margin_shift",
                           "degree_shift", "reliable"],
                          [[S.degree, S.projection_degree, S.stability_shift,
                            S.degree_shift, int(S.reliable)]]),
    }


KZ_MASS_LOSS = 1e-4


def _in_reach(basis, z, key):
    """z, checked as the points of a kernel-on-rule integral: a kernel that
    overflows at a point of z, or whose degree-D truncation loses
    KZ_MASS_LOSS of K(z, z) there, is beyond the rule; blamed on `key`
    and on weight.alpha, whose 1/sqrt(alpha) is the kernel's length."""
    zs = np.ravel(z)
    key += "/weight.alpha"
    with _blamed_on(key):
        kept = np.sum(np.abs(basis.evaluate(zs)) ** 2, axis=1)
        lost = np.max(1.0 - kept / np.real(kernel(basis, zs, zs)))
    if lost > KZ_MASS_LOSS:
        raise ConfigError(f"{key}: out to |z| = {np.max(np.abs(zs)):g} the "
                          f"degree-{basis.degree} kernel loses {lost:.2g} "
                          f"of its mass")
    return z


def cmd_kz_profile(r: Runner, rng):
    cfg = r.cfg
    basis = r.basis(max(cfg["basis.degree"], 50))
    shells = cfg["functional.shells"]
    z = _in_reach(basis, np.multiply.outer(shells, KZ_ANGLES).ravel(),
                  "functional.shells")
    f = r.symbol()
    # a q whose power of the translated residual's samples underflows to 0
    # or overflows is refused by lp_norm
    with _blamed_on("functional.q/weight.alpha", ValueError):
        norms, = hankel_on_kernel([f], z, cfg["functional.q"], basis)
    return {"kz_profile.csv": (["re", "im", "shell_radius", "norm"],
                               _shell_rows(z, norms, shells))}


def cmd_essential_norm(r: Runner, rng):
    est = r.essential_norm(r.symbol())
    return {"essential_norm.csv": (
        ["estimate", "slope", "window_lo", "window_hi", "reliable"],
        [[est.estimate, est.slope, est.window[0], est.window[1],
          int(est.reliable)]])}


GAP_HEADER = ["t", "gap", "ess_tail", "margin_shift", "degree_shift",
              "reliable"]


def _gap_rows(r: Runner, ts, t_key):
    """Rows of GAP_HEADER for each cutoff radius t, read from `t_key`.
    The lattice is sized by its reach alone, not by lattice.window: the
    approximants evaluate f_1 only on the ramp annulus t < |xi| < t + 1,
    where every bump that does not vanish is centred within 2r, so cells
    beyond t_max + 1 + 2r would add exact zeros.  A row is reliable when
    the Gram and the tail plateau are certified and the gap is not below
    the tail by more than SHIFT_TOL of it: ||H_f - K|| >= ||H_f||_e for
    every compact K, so a lower gap is an error of the approximant."""
    cfg = r.cfg
    f = r.symbol()
    ess = r.essential_norm(f)
    L = r.lattice(ts[-1] + 1 + 2 * cfg["lattice.r"], t_key)
    D = r.decomposition(f, build_partition(L))
    r.solver  # unused: its calibration.c0 line is read by the benchmark
    rows = []
    for t in ts:
        S = compact_approximant(f, D, t, r.basis(), cfg["basis.margin"])
        above = S.values[0] >= (1.0 - SHIFT_TOL) * ess.estimate
        rows.append([t, S.values[0], ess.estimate, S.stability_shift,
                     S.degree_shift, int(S.reliable and ess.reliable
                                         and above)])
    return rows


def cmd_compact_approx(r: Runner, rng):
    return {"gap.csv": (GAP_HEADER,
                        _gap_rows(r, [r.cfg["approx.t"]], "approx.t"))}


def cmd_schatten(r: Runner, rng):
    cfg = r.cfg
    f = r.symbol()
    L, S = r.lattice(), r.spectrum(f)
    with _blamed_on("gauge.p"):
        gauge = power_gauge(cfg["gauge.p"])
    G = r.g_on_lattice(f, L)
    with _blamed_on("gauge.c_grid"):
        verdicts, = schatten_h_criterion(G, [gauge], L, S,
                                         c_grid=cfg["gauge.c_grid"])
    rows = [[v.c, v.integral_value, int(v.integral_convergent),
             v.sum_value, int(v.sum_convergent), int(v.agree)]
            for v in verdicts]
    return {"verdicts.csv": (["c", "integral", "integral_convergent",
                              "sum", "sum_convergent", "agree"], rows)}


def cmd_berezin(r: Runner, rng):
    cfg = r.cfg
    density = None if cfg["measure.density"] == "lebesgue" else \
        (lambda z: np.exp(-np.abs(z) ** 2))
    basis = r.basis(max(cfg["basis.degree"], 40))
    z = _in_reach(basis, r.probes(rng), "probes.half_width")
    bt = berezin_transform(density, basis, z)
    avg = measure_average(density, z, cfg["functional.r"])
    ratio = np.divide(avg, bt, out=np.zeros_like(avg), where=bt > 0)
    rows = np.column_stack([z.real, z.imag, bt, avg, ratio]).tolist()
    return {"berezin.csv": (["re", "im", "berezin", "ball_average",
                             "ratio"], rows)}


THM11_FAMILIES = ("conj-linear", "conj-gaussian", "bump", "mixed")


def cmd_thm11_report(r: Runner, rng):
    cfg = r.cfg
    q = cfg["functional.q"]
    rr = cfg["functional.r"]
    shells = cfg["functional.shells"]
    basis = r.basis(50)
    # the lattice stops at its reach: the probes' balls lie within
    # shells[-1] + r of 0, and only bumps of the spacing-0.5 partition
    # centred within their support 2 * 0.5 of a ball touch it
    L = _lattice(0, 0.5, shells[-1] + rr + 2 * 0.5,
                 "functional.shells/functional.r")
    z = _in_reach(basis, np.multiply.outer(shells, KZ_ANGLES),
                  "functional.shells")

    # the four families share the kernel layer and, shell by shell, the
    # partition's blocks on the probes' balls
    fs = [r.symbol(family) for family in THM11_FAMILIES]
    ess = [essential_norm_tail(r.spectrum(f, 30, 10)).estimate for f in fs]
    P = build_partition(L)
    Ds = [r.decomposition(f, P) for f in fs]
    with _blamed_on("functional.q/weight.alpha", ValueError):
        kz = np.max(hankel_on_kernel(fs, z, q, basis), axis=-1)
    reps = [verify_controls(Ds, pts, rr, q) for pts in z]
    all_rows, ratio_rows = [], []
    for i, family in enumerate(THM11_FAMILIES):
        for rad, kz_max, shell_reps in zip(shells, kz[i], reps):
            rep = shell_reps[i]
            all_rows.append([family, rad, ess[i], float(kz_max),
                             float(np.max(rep.g_values)),
                             rep.sup_dbar_f1 + max(rep.sup_m_f2, 0.0)])
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
    return {"gaps.csv": (GAP_HEADER,
                         _gap_rows(r, r.cfg["functional.shells"],
                                   "functional.shells"))}


THM13_POWERS = (1.0, 2.0, 4.0)


def cmd_thm13_report(r: Runner, rng):
    cfg = r.cfg
    L = r.lattice()
    rows = []
    for family in ("bump", "conj-linear"):
        f = r.symbol(family)
        S = r.spectrum(f)
        G = r.g_on_lattice(f, L)
        with _blamed_on("gauge.c_grid"):
            per_gauge = schatten_h_criterion(
                G, [power_gauge(p) for p in THM13_POWERS], L, S,
                c_grid=cfg["gauge.c_grid"])
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
