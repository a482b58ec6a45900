import hashlib

import numpy as np
import pytest

from focklab import symbols
from focklab.cli import SUBCOMMANDS, Runner, main, run
from focklab.config import (ConfigError, ExperimentConfig, load_config,
                            parse_config_text)


def test_defaults_validate():
    load_config().validate()


def test_parse_config_text():
    text = "# comment\nweight.alpha = 2.0\n\nbasis.degree=12\n"
    vals = parse_config_text(text)
    assert vals == {"weight.alpha": "2.0", "basis.degree": "12"}


def test_overrides_win(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("weight.alpha = 2.0\n")
    cfg = load_config(str(p), overrides=["weight.alpha=3.5"])
    assert cfg.get_float("weight.alpha") == 3.5


def test_hash_depends_on_seed_and_values():
    a = ExperimentConfig({}, seed=0)
    b = ExperimentConfig({}, seed=1)
    c = ExperimentConfig({"weight.alpha": "2.0"}, seed=0)
    assert len({a.hash(), b.hash(), c.hash()}) == 3
    assert a.hash() == ExperimentConfig({}, seed=0).hash()


@pytest.mark.parametrize("override,field", [
    ("weight.kind=exotic", "weight.kind"),
    ("weight.alpha=-1", "weight.alpha"),
    ("functional.q=0.5", "functional.q"),
    ("lattice.K=0", "lattice.K"),
    ("symbol.id=nope", "symbol.id"),
    ("functional.shells=3,2", "functional.shells"),
    ("measure.density=bogus", "measure.density"),
    ("gauge.family=power", "gauge.family"),
    ("measure.kind=density", "measure.kind"),
    ("dbar.n_radial=0", "dbar.n_radial"),
    ("dbar.n_angular=0", "dbar.n_angular"),
    ("functional.d=-1", "functional.d"),
    ("approx.t=0", "approx.t"),
    ("lattice.window=0", "lattice.window"),
    ("basis.margin=-3", "basis.margin"),
    ("probes.count=0", "probes.count"),
    ("functional.s=0.5", "functional.s"),
    ("functional.s=many", "functional.s"),
    ("gauge.p=0", "gauge.p"),
    ("quad.order=-1", "quad.order"),
    ("weight.alpha=nan", "weight.alpha"),
    ("functional.r=nan", "functional.r"),
    ("functional.q=inf", "functional.q"),
    ("lattice.r=inf", "lattice.r"),
    ("probes.half_width=-1", "probes.half_width"),
    ("functional.shells=", "functional.shells"),
    ("gauge.c_grid=", "gauge.c_grid"),
    ("gauge.c_grid=-1", "gauge.c_grid"),
    ("functional.shells=-1", "functional.shells"),
    ("symbol.id=conj-gaussian symbol.beta=-1", "symbol.beta"),
    ("symbol.id=bump symbol.radius=-1", "symbol.radius"),
    ("symbol.radius=0", "symbol.radius"),
    ("symbol.coeffs=", "symbol.coeffs"),
])
def test_validation_names_offending_field(override, field):
    with pytest.raises(ConfigError) as exc:
        load_config(overrides=override.split()).validate()
    assert field in str(exc.value)


@pytest.mark.parametrize("family", sorted(symbols.FAMILIES))
def test_every_registered_family_runs(family):
    cfg = load_config(overrides=[f"symbol.id={family}"])
    z = np.array([0.0, 0.5 - 0.25j, -1.5 + 2.0j])
    assert np.all(np.isfinite(Runner(cfg).symbol()(z)))


def test_cli_non_radial_basis_exit_code(tmp_path, capsys):
    rc = main(["hankel-svd", "--out", str(tmp_path),
               "weight.kind=perturbed-gaussian"])
    assert rc == 2
    assert "weight.kind" in capsys.readouterr().err
    # ops that need no basis still run on the non-radial weight
    assert main(["certify-weight", "--out", str(tmp_path),
                 "weight.kind=perturbed-gaussian"]) == 0


@pytest.mark.parametrize("args,field", [
    ("hankel-svd basis.degree=400", "basis.degree"),
    ("hankel-svd basis.margin=200", "basis.margin"),
    ("build-basis quad.order=500", "quad.order"),
    ("lattice lattice.window=1e9", "lattice.window"),
    ("essential-norm basis.degree=2", "basis.degree"),
])
def test_cli_capability_limit_exit_code(args, field, tmp_path, capsys):
    assert main(args.split() + ["--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / args.split()[0]).exists()


def test_cli_capability_limit_only_where_used(tmp_path):
    # the lattice builds no basis, so its degree is never checked
    assert main(["lattice", "--out", str(tmp_path), "basis.degree=400",
                 "lattice.window=2.0"]) == 0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        load_config(overrides=["nonsense.key=1"]).validate()
    assert "nonsense.key" in str(exc.value)


def test_cli_bad_config_exit_code(tmp_path, capsys):
    rc = main(["build-basis", "--out", str(tmp_path), "weight.alpha=-2"])
    assert rc == 2
    assert "weight.alpha" in capsys.readouterr().err


def test_cli_build_basis_outputs(tmp_path):
    rc = main(["build-basis", "--out", str(tmp_path), "basis.degree=10"])
    assert rc == 0
    runs = list((tmp_path / "build-basis").iterdir())
    assert len(runs) == 1
    files = {p.name for p in runs[0].iterdir()}
    assert files == {"normalizations.csv", "manifest.txt"}
    header = (runs[0] / "normalizations.csv").read_text().splitlines()[0]
    assert header == "k,c_k,c_k_squared"
    manifest = (runs[0] / "manifest.txt").read_text()
    assert "config_hash=" in manifest and "sha256=" in manifest


def test_cli_rerun_byte_identical(tmp_path):
    args = ["lattice", "--out", None, "lattice.window=3.0", "lattice.K=2"]
    bodies = []
    for sub in ("a", "b"):
        args[2] = str(tmp_path / sub)
        assert main(args) == 0
        run_dir = next((tmp_path / sub / "lattice").iterdir())
        bodies.append((run_dir / "points.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_cli_seed_changes_hash(tmp_path):
    for seed in ("0", "1"):
        assert main(["certify-weight", "--out", str(tmp_path),
                     "--seed", seed, "probes.count=5"]) == 0
    assert len(list((tmp_path / "certify-weight").iterdir())) == 2


def test_run_rejects_unknown_subcommand():
    with pytest.raises(ConfigError):
        run("frobnicate", ExperimentConfig({}, 0), "/tmp/never")


def test_cli_g_profile_values(tmp_path):
    assert main(["g-profile", "--out", str(tmp_path),
                 "symbol.id=conj-linear", "functional.r=0.5",
                 "functional.shells=1.0,2.0"]) == 0
    run_dir = next((tmp_path / "g-profile").iterdir())
    rows = (run_dir / "g_profile.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[3]) for r in rows])
    assert np.max(np.abs(vals - 0.5 / np.sqrt(2.0))) < 1e-4


def test_cli_records_warnings_in_manifest(tmp_path):
    # a 1.5 window leaves boundary cells carrying > 1% of the IDA norm
    with pytest.warns(UserWarning, match="window too small"):
        assert main(["ida-norm", "--out", str(tmp_path / "small"),
                     "lattice.window=1.5", "functional.s=2"]) == 0
    # a compactly supported symbol carries no mass near the boundary
    assert main(["ida-norm", "--out", str(tmp_path / "wide"),
                 "symbol.id=bump", "functional.s=2"]) == 0
    lines = {}
    for sub in ("small", "wide"):
        run_dir = next((tmp_path / sub / "ida-norm").iterdir())
        lines[sub] = (run_dir / "manifest.txt").read_text().splitlines()
    warned = [ln for ln in lines["small"] if ln.startswith("warning=")]
    assert warned == ["warning=UserWarning: window too small: boundary "
                      "cells contribute > 1% of the IDA norm"]
    assert lines["small"].index(warned[0]) < min(
        i for i, ln in enumerate(lines["small"]) if ln.startswith("file="))
    assert not any(ln.startswith("warning=") for ln in lines["wide"])


# small sizes that still run every code path of every subcommand
SMOKE = ["basis.degree=10", "functional.shells=2.0", "probes.count=5",
         "lattice.window=3.0"]
SMOKE_HEADERS = {
    "berezin": {"berezin.csv": "re,im,berezin,ball_average,ratio"},
    "build-basis": {"normalizations.csv": "k,c_k,c_k_squared"},
    "certify-weight": {"probes.csv": "re,im",
                       "report.csv": "passed,eig_min,eig_max,"
                                     "worst_violation"},
    "compact-approx": {"gap.csv": "t,gap,ess_tail"},
    "dbar-check": {"residuals.csv": "form,re,im,abs_residual,max_abs_form"},
    "decompose": {"controls.csv": "sup_dbar_f1,sup_m_f2,max_ratio_dbar,"
                                  "max_ratio_m",
                  "pointwise.csv": "re,im,abs_f,abs_f1,abs_f2,abs_dbar_f1,G"},
    "essential-norm": {"essential_norm.csv": "estimate,slope,window_lo,"
                                             "window_hi,reliable"},
    "g-profile": {"g_profile.csv": "re,im,shell_radius,value"},
    "hankel-svd": {"spectrum.csv": "k,s_k",
                   "stability.csv": "degree,projection_degree,margin_shift"},
    "ida-norm": {"ida_norm.csv": "s,q,r,value"},
    "kernel-fit": {"kernel_fit.csv": "theta,C1,C2,r0,fit_residual,"
                                     "bound_holds"},
    "kz-profile": {"kz_profile.csv": "re,im,shell_radius,norm"},
    "lattice": {"points.csv": "index,re,im,sublattice_id",
                "sublattices.csv": "index,rep_re,rep_im,count"},
    "m-profile": {"m_profile.csv": "re,im,shell_radius,value"},
    "schatten": {"verdicts.csv": "c,integral,integral_convergent,sum,"
                                 "sum_convergent,agree"},
    "thm11-report": {"quantities.csv": "symbol,shell,ess_tail,kz_max,g_max,"
                                       "decomposition_bound",
                     "ratios.csv": "symbol,ess_tail,kz_max,g_max,"
                                   "decomposition_bound,pairwise_ratio_135"},
    "thm12-report": {"gaps.csv": "t,gap,ess_tail"},
    "thm13-report": {"verdicts.csv": "symbol,p,c,integral_convergent,"
                                     "sum_convergent,agree"},
}


def _smoke_run(sub, out):
    assert main([sub, "--out", str(out)] + SMOKE) == 0
    run_dir, = (out / sub).iterdir()
    return run_dir


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_every_subcommand_runs(sub, tmp_path):
    run_dir = _smoke_run(sub, tmp_path)
    headers = SMOKE_HEADERS[sub]
    assert {p.name for p in run_dir.iterdir()} == set(headers) | {
        "manifest.txt"}
    manifest = (run_dir / "manifest.txt").read_text().splitlines()
    digests = dict(ln[len("file="):].split(" sha256=")
                   for ln in manifest if ln.startswith("file="))
    assert set(digests) == set(headers)
    for name, header in headers.items():
        data = (run_dir / name).read_bytes()
        assert data.decode().splitlines()[0] == header
        assert hashlib.sha256(data).hexdigest() == digests[name]
    if sub == "dbar-check":
        residual, = [ln.split("=")[1] for ln in manifest
                     if ln.startswith("calibration.residual=")]
        assert float(residual) <= 1e-2
    if sub == "compact-approx":
        # the same gap at t = approx.t = 2 as thm12-report's t = 2 row
        gaps = _smoke_run("thm12-report", tmp_path) / "gaps.csv"
        assert (run_dir / "gap.csv").read_text().splitlines()[1:] == \
            gaps.read_text().splitlines()[1:]
