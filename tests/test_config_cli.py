import hashlib
from pathlib import Path

import numpy as np
import pytest

import exact_spectra
from focklab import cli, symbols
from focklab.cli import SUBCOMMANDS, Runner, main, run
from focklab.config import (KEYS, ConfigError, ExperimentConfig,
                            load_config, parse_config_text)
from focklab.fock import build_basis, kernel
from focklab.weights import gaussian_weight

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert cfg["weight.alpha"] == 3.5


def test_hash_depends_on_seed_and_values():
    a = ExperimentConfig({}, seed=0)
    b = ExperimentConfig({}, seed=1)
    c = ExperimentConfig({"weight.alpha": "2.0"}, seed=0)
    assert len({a.hash(), b.hash(), c.hash()}) == 3
    assert a.hash() == ExperimentConfig({}, seed=0).hash()


@pytest.mark.parametrize("overrides,seed,digest", [
    ((), 0, "e3172957417d"),
    (("symbol.id=bump", "functional.q=1", "basis.degree=40"), 3,
     "2ac1aaca8722"),
    (("functional.s=2", "gauge.c_grid=0.25,4", "lattice.K=3",
      "weight.alpha=0.5"), 1, "0c70f182f2dd"),
])
def test_hash_pinned(overrides, seed, digest):
    # output directory names of earlier runs stay valid
    assert load_config(overrides=overrides, seed=seed).hash() == digest


def test_key_table():
    cfg = ExperimentConfig({})
    for key, (default, parse) in KEYS.items():
        assert cfg.get(key) == default
        assert cfg[key] == parse(default)
    for _, params in symbols.FAMILIES.values():
        for name in params:
            assert f"symbol.{name}" in KEYS


def test_readme_lists_every_key():
    # one line per key: key, default and domain, as the table declares them
    lines = README.read_text().splitlines()
    for key, (default, parse) in KEYS.items():
        line, = [ln for ln in lines if ln.startswith(f"- `{key}`")]
        assert f"`{default}`" in line and parse.text in line, line


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
    # past the degree whose Gram the ball rule integrates exactly
    ("functional.d=21", "functional.d"),
    ("approx.t=0", "approx.t"),
    ("lattice.window=0", "lattice.window"),
    ("basis.margin=-3", "basis.margin"),
    ("probes.count=0", "probes.count"),
    ("probes.count=200001", "probes.count"),
    ("functional.s=0.5", "functional.s"),
    ("functional.s=many", "functional.s"),
    ("gauge.p=0", "gauge.p"),
    ("quad.order=-1", "quad.order"),
    ("quad.order=60", "quad.order"),   # retired: only its default 0
    ("weight.alpha=nan", "weight.alpha"),
    ("weight.alpha=1e-13", "weight.alpha"),
    ("weight.alpha=2e12", "weight.alpha"),
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
    ("lattice.K=-1", "lattice.K"),
    ("lattice.K=448", "lattice.K"),
    ("lattice.K=1000000", "lattice.K"),
    ("functional.r=1e200", "functional.r"),
    ("functional.r=1e-200", "functional.r"),
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
    ("hankel-svd basis.degree=165", "basis.degree"),
    ("hankel-svd basis.degree=400", "basis.degree"),
    ("hankel-svd basis.margin=200", "basis.margin"),
    ("build-basis quad.order=500", "quad.order"),
    ("lattice lattice.window=1e9", "lattice.window"),
    ("essential-norm basis.degree=2", "basis.degree"),
    ("thm11-report functional.shells=1e9", "functional.shells"),
    ("kz-profile functional.shells=1e9", "functional.shells"),
    # beyond the degree-50 kernel's reach, short of any overflow
    ("kz-profile functional.shells=6", "functional.shells"),
    ("kz-profile functional.shells=20", "functional.shells"),
    ("thm12-report functional.shells=1e9", "functional.shells"),
    ("compact-approx approx.t=1e9", "approx.t"),
    # probes beyond the kernel's or the lattice window's reach
    ("berezin probes.half_width=30", "probes.half_width"),
    ("berezin probes.half_width=100", "probes.half_width"),
    ("kernel-fit probes.half_width=100", "probes.half_width"),
    ("decompose probes.half_width=100", "probes.half_width"),
    ("certify-weight probes.half_width=1e300", "probes.half_width"),
    # more probes than the point cap: an array too large to allocate
    ("certify-weight probes.count=1000000000000", "probes.count"),
    ("berezin probes.count=1000000000000", "probes.count"),
    # a Gram that underflows (s_0 read 4.58e-150 against 1e-150), and
    # normalisations c_k that overflow
    ("hankel-svd weight.alpha=1e300", "weight.alpha"),
    ("hankel-svd weight.alpha=1e-20", "weight.alpha"),
    # at the ends of the weight.alpha domain: a dbar grid that cannot
    # resolve the weight's scale, and kz shells or a degree-50 basis that
    # overflow at it
    ("thm12-report weight.alpha=1e12", "weight.alpha"),
    ("thm12-report weight.alpha=1e-12", "weight.alpha"),
    ("compact-approx weight.alpha=1e12", "weight.alpha"),
    ("compact-approx weight.alpha=1e-12", "weight.alpha"),
    ("dbar-check weight.alpha=1e12", "weight.alpha"),
    ("dbar-check weight.alpha=1e-12", "weight.alpha"),
    ("kz-profile weight.alpha=1e12", "weight.alpha"),
    ("kz-profile weight.alpha=1e-12", "weight.alpha"),
    ("kernel-fit weight.alpha=1e12", "weight.alpha"),
    ("berezin weight.alpha=1e12", "weight.alpha"),
    # a fit or a mean whose |f|^q overflows, or an IRLS that cannot settle
    ("g-profile functional.q=1e6", "functional.q"),
    ("ida-norm functional.q=1e6", "functional.q"),
    ("decompose functional.q=1e6", "functional.q"),
    ("m-profile functional.q=400", "functional.q"),
    # a kz norm whose |.|^q underflows to 0 (conj-linear reads 0.342 at
    # q = 200), in both subcommands that take it
    ("kz-profile functional.q=1000", "functional.q"),
    ("thm11-report functional.q=1000", "functional.q"),
    # a kernel so wide that one family's H_f k_z samples all read 0
    ("thm11-report weight.alpha=1e-4", "weight.alpha"),
    # symbols whose |f|^2 overflows near 0
    ("kz-profile symbol.id=holo-poly symbol.coeffs=1e200", "symbol.coeffs"),
    ("m-profile symbol.id=holo-poly symbol.coeffs=1e300", "symbol.coeffs"),
    ("hankel-svd symbol.id=holo-poly symbol.coeffs=1e300,1e300",
     "symbol.coeffs"),
    # gauges whose values overflow
    ("schatten gauge.p=1e300", "gauge.p"),
    ("thm13-report gauge.c_grid=1e300", "gauge.c_grid"),
    # a ball radius whose G_{2,r} overflows
    ("thm13-report functional.r=1e100", "functional.r"),
    ("schatten functional.r=1e100", "functional.r"),
    # a ball radius whose fit or mean overflows, or whose balls widen the
    # thm11 lattice past the point cap
    ("g-profile functional.r=1e150", "functional.r"),
    ("m-profile functional.r=1e150", "functional.r"),
    ("ida-norm functional.r=1e150", "functional.r"),
    ("decompose functional.r=1e150", "functional.r"),
    ("thm11-report functional.r=1e150", "functional.r"),
    # a partition whose balls of radius 2 lattice.r overflow its fits, and
    # profile shells so far out that the symbol's power overflows
    ("decompose lattice.r=1e150", "lattice.r"),
    ("g-profile functional.shells=1e200", "functional.shells"),
    ("m-profile functional.shells=1e200", "functional.shells"),
    # a polar grid too coarse for the dbar solver's calibration
    ("dbar-check dbar.n_radial=1 dbar.n_angular=1", "dbar.n_radial"),
    ("thm12-report dbar.n_radial=1", "dbar.n_radial"),
    ("compact-approx dbar.n_angular=2", "dbar.n_angular"),
    # a probe grid whose points all lie within 1e-9 of each other
    ("kernel-fit probes.half_width=1e-300", "probes.half_width"),
])
def test_cli_capability_limit_exit_code(args, field, tmp_path, capsys):
    assert main(args.split() + ["--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / args.split()[0]).exists()


def test_thm11_report_fits_each_shell_once(monkeypatch, tmp_path):
    # g_max and the dbar f1 bound are read from the shell's control report
    from focklab import cli, decomposition
    calls = []

    def counted(g):
        def wrapped(f, z, *args):
            calls.append(np.size(z))
            return g(f, z, *args)
        return wrapped

    for module in (cli, decomposition):
        monkeypatch.setattr(module, "g_functional",
                            counted(module.g_functional))
    assert main(["thm11-report", "--out", str(tmp_path),
                 "functional.shells=2.0,3.0"]) == 0
    assert calls == [8] * (4 * 2)    # one per family and shell


def test_thm11_report_glues_each_shell_once(monkeypatch, tmp_path):
    # the four families share one partition pass over each shell's probe
    # balls: the 8 probes' ball-rule nodes reach the partition twice at two
    # shells, not once per family and shell
    from focklab.decomposition import PartitionOfUnity
    from focklab.quadrature import ball_rule
    points = []
    members = PartitionOfUnity.members

    def counted(self, z):
        points.append(np.size(z))
        return members(self, z)

    monkeypatch.setattr(PartitionOfUnity, "members", counted)
    assert main(["thm11-report", "--out", str(tmp_path),
                 "functional.shells=2.0,3.0"]) == 0
    assert sum(points) == 2 * 8 * len(ball_rule(0.0, 1.0).nodes)


@pytest.mark.parametrize("shells, narrow, wide", [
    ("2.0,3.0", 441, 625), ("2.0,3.0,4.0,5.0", 841, 1089)])
def test_thm11_report_lattice_stops_at_its_reach(shells, narrow, wide,
                                                 tmp_path, monkeypatch):
    # the partition lattice reaches shells[-1] + functional.r + 2 * 0.5:
    # a bump centred further out misses every probe's ball, so the wider
    # lattice of half-width shells[-1] + 1 + 2 functional.r writes the
    # same bytes
    lattice = cli._lattice
    outer = float(shells.split(",")[-1])
    centres, outputs = [], []
    for half in (None, outer + 1 + 2 * 1.0):     # functional.r = 1

        def sized(base, r, reach, key, half=half):
            L = lattice(base, r, reach if half is None else half, key)
            centres.append(len(L.points))
            return L

        monkeypatch.setattr(cli, "_lattice", sized)
        run_dir = run("thm11-report",
                      load_config(None, [f"functional.shells={shells}"],
                                  seed=0), str(tmp_path / str(half)))
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(run_dir.glob("*.csv"))})
    assert centres == [narrow, wide]
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]


def test_decompose_evaluates_dbar_f1_once(monkeypatch, tmp_path):
    # the abs_dbar_f1 column is read from the control report
    from focklab.decomposition import Decomposition
    calls = []
    dbar_f1 = Decomposition.dbar_f1

    def counted(self, z):
        calls.append(np.size(z))
        return dbar_f1(self, z)

    monkeypatch.setattr(Decomposition, "dbar_f1", counted)
    assert main(["decompose", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_thm12_report_rows_certified_at_defaults(tmp_path):
    # a reliable=1 row has its gap within 1e-3 of ess and both shifts
    # <= 1e-3; at degree 20 only t = 2 converged (t = 3 reads 0.977481
    # against the converged 1.000000), and each other row shows why
    assert main(["thm12-report", "--out", str(tmp_path)]) == 0
    run_dir, = (tmp_path / "thm12-report").iterdir()
    lines = (run_dir / "gaps.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [float(row["t"]) for row in rows] == [2.0, 3.0, 4.0, 5.0]
    for row in rows:
        if row["reliable"] == "1":
            assert abs(float(row["gap"]) - float(row["ess_tail"])) <= 1e-3
            assert float(row["margin_shift"]) <= 1e-3
            assert float(row["degree_shift"]) <= 1e-3
        else:
            assert float(row["degree_shift"]) > 1e-3
    assert [row["reliable"] for row in rows] == ["1", "0", "0", "0"]


def test_gap_row_needs_the_plateau_flag(tmp_path):
    # conj-gaussian's tail plateau is uncertified (essential-norm writes
    # reliable=0 for the ess_tail 1.278e-3 its gap row prints), so the gap
    # row reads reliable=0 although its two shifts are at roundoff
    rows = {}
    for sub, name in (("essential-norm", "essential_norm.csv"),
                      ("compact-approx", "gap.csv")):
        assert main([sub, "--out", str(tmp_path),
                     "symbol.id=conj-gaussian"]) == 0
        run_dir, = (tmp_path / sub).iterdir()
        header, line = (run_dir / name).read_text().splitlines()
        rows[sub] = dict(zip(header.split(","), line.split(",")))
    ess, gap = rows["essential-norm"], rows["compact-approx"]
    assert ess["reliable"] == "0"
    assert gap["ess_tail"] == ess["estimate"]
    assert float(gap["margin_shift"]) <= 1e-3
    assert float(gap["degree_shift"]) <= 1e-3
    assert gap["reliable"] == "0"


def test_gap_row_below_the_tail_is_unreliable(tmp_path, monkeypatch):
    # ||H_f - K|| >= ||H_f||_e for every compact K: a certified Gram whose
    # gap falls below ess_tail by more than SHIFT_TOL contradicts the
    # theorem.  The Gram of (f - h_t) / 2 keeps the default row's
    # certificate and halves its gap to 0.5 against ess_tail 1.0
    import dataclasses
    approximant = cli.compact_approximant
    grams = []

    def halved(*args):
        S = approximant(*args)
        grams.append(dataclasses.replace(S, matrix=S.matrix / 4,
                                         values=S.values / 2))
        return grams[-1]

    monkeypatch.setattr(cli, "compact_approximant", halved)
    assert main(["compact-approx", "--out", str(tmp_path)]) == 0
    run_dir, = (tmp_path / "compact-approx").iterdir()
    header, line = (run_dir / "gap.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    S, = grams
    assert S.reliable and abs(float(row["gap"]) - 0.5) <= 1e-3
    assert abs(float(row["ess_tail"]) - 1.0) <= 1e-9
    assert row["reliable"] == "0"


@pytest.mark.parametrize("overrides,reliable", [
    ((), "1"),
    (("symbol.id=step", "symbol.radius=3", "basis.degree=4"), "0")])
def test_stability_row_carries_the_gram_certificate(tmp_path, overrides,
                                                    reliable):
    # the default conj-linear spectrum is certified; step of radius 3 at
    # degree 4 moves its top by only 6.3e-6 when the margin grows, but by
    # 0.161 against its degree-2 block, so its row reads reliable=0
    assert main(["hankel-svd", "--out", str(tmp_path), *overrides]) == 0
    run_dir, = (tmp_path / "hankel-svd").iterdir()
    header, line = (run_dir / "stability.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert float(row["margin_shift"]) <= 1e-3
    assert (float(row["degree_shift"]) <= 1e-3) == (reliable == "1")
    assert row["reliable"] == reliable


def test_compact_approx_lattice_stops_at_its_reach(tmp_path, monkeypatch):
    # the lattice reaches t + 1 + 2 lattice.r = 5 whatever lattice.window
    # says: cells beyond it add exact zeros, so a window of 12 writes the
    # default's bytes and fits the default's 11 x 11 centres
    from focklab import cli
    centres = []
    decompose = cli.decompose

    def counted(f, P, *args, **kwargs):
        centres.append(len(P.lattice.points))
        return decompose(f, P, *args, **kwargs)

    monkeypatch.setattr(cli, "decompose", counted)
    gaps = []
    for window in ("5.0", "12.0"):
        run_dir = run("compact-approx",
                      load_config(None, [f"lattice.window={window}"], seed=0),
                      str(tmp_path / window))
        gaps.append((run_dir / "gap.csv").read_bytes())
    assert gaps[0] == gaps[1]
    assert centres == [121, 121]


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


@pytest.mark.parametrize("args", [["dbar-check"],
                                  ["thm12-report", "functional.shells=2.0"]])
def test_cold_and_warm_set_up_write_the_same_bytes(args, tmp_path):
    # the first run of a process solves the certificate; the second
    # finds it memoised
    from focklab import dbar
    dbar._residual.cache_clear()
    outputs = []
    for sub in ("cold", "warm"):
        run_dir = run(args[0], load_config(None, args[1:], seed=0),
                      str(tmp_path / sub))
        manifest = (run_dir / "manifest.txt").read_text().splitlines()
        outputs.append(({p.name: p.read_bytes()
                         for p in run_dir.glob("*.csv")},
                        [line for line in manifest
                         if line.startswith("calibration.")]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] and outputs[0][1] == [
        f"calibration.c0={dbar.C0}",
        "calibration.residual=8.245927790425177e-07"]
    assert dbar._residual.cache_info().misses == 1


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


@pytest.mark.parametrize("sub,name", [("g-profile", "g_profile.csv"),
                                      ("m-profile", "m_profile.csv"),
                                      ("kz-profile", "kz_profile.csv")])
def test_profile_shell_radius_is_the_configured_shell(tmp_path, sub, name):
    # |z| of a rounded sample point misses its shell in the last bit
    # (3.0000000000000004 on the shell 3.0); the column names the shell
    assert main([sub, "--out", str(tmp_path),
                 "functional.shells=2.0,3.0,4.0,5.0"]) == 0
    run_dir = next((tmp_path / sub).iterdir())
    rows = (run_dir / name).read_text().splitlines()[1:]
    radii = [float(row.split(",")[2]) for row in rows]
    assert radii == [rad for rad in (2.0, 3.0, 4.0, 5.0)
                     for _ in range(len(rows) // 4)]
    angles = cli.KZ_ANGLES if sub == "kz-profile" else cli.PROFILE_ANGLES
    assert len(rows) == 4 * len(angles)


@pytest.mark.parametrize("alpha,degree,radius,measured", [
    (1.5, 50, 5.0, 0.0206222593679), (2.0, 50, 5.0, 0.462483309146852),
    (1.0, 50, 5.0, None), (1.0, 20, 3.0, None), (1.0, 80, 5.0, None)])
def test_in_reach_loss_is_a_poisson_tail(alpha, degree, radius, measured):
    # e_k's closed form: the degree-D kernel keeps P(Poisson(alpha |z|^2)
    # <= D) of K(z, z); seen: 3.9e-15 at alpha = 2
    basis = build_basis(gaussian_weight(alpha), degree)
    z = radius * cli.KZ_ANGLES
    kept = np.sum(np.abs(basis.evaluate(z)) ** 2, axis=1)
    lost = 1.0 - kept / np.real(kernel(basis, z, z))
    tail = exact_spectra.poisson_split(alpha * radius ** 2, degree + 1)[1][-1]
    assert np.max(np.abs(lost - tail)) <= 1e-14
    if measured is not None:
        assert abs(tail - measured) <= 1e-12
    if tail > cli.KZ_MASS_LOSS:
        with pytest.raises(ConfigError, match=f"loses {tail:.2g} of"):
            cli._in_reach(basis, z, "functional.shells")
    else:
        assert cli._in_reach(basis, z, "functional.shells") is z


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
    "compact-approx": {"gap.csv": "t,gap,ess_tail,margin_shift,"
                                  "degree_shift,reliable"},
    "dbar-check": {"residuals.csv": "form,re,im,abs_residual,max_abs_form"},
    "decompose": {"controls.csv": "sup_dbar_f1,sup_m_f2,max_ratio_dbar,"
                                  "max_ratio_m",
                  "pointwise.csv": "re,im,abs_f,abs_f1,abs_f2,abs_dbar_f1,G"},
    "essential-norm": {"essential_norm.csv": "estimate,slope,window_lo,"
                                             "window_hi,reliable"},
    "g-profile": {"g_profile.csv": "re,im,shell_radius,value"},
    "hankel-svd": {"spectrum.csv": "k,s_k",
                   "stability.csv": "degree,projection_degree,margin_shift,"
                                    "degree_shift,reliable"},
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
    "thm12-report": {"gaps.csv": "t,gap,ess_tail,margin_shift,"
                                "degree_shift,reliable"},
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
