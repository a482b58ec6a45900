import numpy as np
import pytest

from focklab import symbols
from focklab.cli import Runner, main, run
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
])
def test_validation_names_offending_field(override, field):
    with pytest.raises(ConfigError) as exc:
        load_config(overrides=[override]).validate()
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
