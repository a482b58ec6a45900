"""Self-tests of the benchmark: oracles, tracer arithmetic, seeds.

    python3 -m pytest -q perfbench
"""

import hashlib
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import compare  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from layers import useful_pairs  # noqa: E402
from tracer import Hook, Tracer, self_times, summarize  # noqa: E402


def write_run(run_dir: Path, files: dict, extra=(), tamper=None) -> Path:
    """A run directory as focklab.cli.run writes it."""
    run_dir.mkdir(parents=True, exist_ok=True)
    lines = ["config_hash=abc", "seed=0", "version=0.1.0",
             "wall_time_s=0.1", *extra]
    for name, body in sorted(files.items()):
        (run_dir / name).write_text(body)
        sha = hashlib.sha256(body.encode()).hexdigest()
        lines.append(f"file={name} sha256={sha}")
    (run_dir / "manifest.txt").write_text("\n".join(lines) + "\n")
    if tamper:
        for name, body in tamper.items():
            (run_dir / name).write_text(body)
    return run_dir


C0_LINE = "calibration.c0=-0.3183098861837907"


def gaps(gap: float) -> str:
    return f"t,gap,ess_tail\n2.0,{gap!r},1.0\n"


def g_profile(value: float) -> str:
    return ("re,im,shell_radius,value\n"
            f"2.0,0.0,2.0,{value!r}\n0.0,2.0,2.0,0.6666666666666675\n")


G_Q1 = oracles.g_conj_linear(1.0, 1.0, "g_profile.csv", "value")


def check(run_dir, checks):
    return oracles.run_checks(oracles.read_output(run_dir), checks)


def test_gaps_oracle_passes_then_trips(tmp_path):
    good = write_run(tmp_path / "good", {"gaps.csv": gaps(1.2)}, [C0_LINE])
    assert check(good, [oracles.thm12_gap]) == []
    bad = write_run(tmp_path / "bad", {"gaps.csv": gaps(1.9893)}, [C0_LINE])
    problems = check(bad, [oracles.thm12_gap])
    assert len(problems) == 1 and "exceeds 0.5 ess" in problems[0]


def test_gaps_known_defect_is_pinned_to_its_values(tmp_path):
    (t, (gap, ess)), = oracles.THM12_KNOWN.items()
    body = f"t,gap,ess_tail\n{t!r},{gap!r},{ess!r}\n"
    run = write_run(tmp_path / "known", {"gaps.csv": body}, [C0_LINE])
    failures, known = oracles.split_known(check(run, [oracles.thm12_gap]))
    assert failures == [] and len(known) == 1
    # a different wrong gap at the same t fails the op
    worse = body.replace(repr(gap), repr(gap * (1 + 1e-6)))
    run = write_run(tmp_path / "worse", {"gaps.csv": worse}, [C0_LINE])
    failures, known = oracles.split_known(check(run, [oracles.thm12_gap]))
    assert len(failures) == 1 and known == []


def test_gaps_edited_after_manifest_trips_integrity(tmp_path):
    run = write_run(tmp_path, {"gaps.csv": gaps(1.2)}, [C0_LINE],
                    tamper={"gaps.csv": gaps(1.3)})
    problems = check(run, [oracles.thm12_gap])
    assert problems == ["gaps.csv: sha256 differs from the manifest"]


def test_gaps_wrong_orientation_constant_trips(tmp_path):
    run = write_run(tmp_path, {"gaps.csv": gaps(1.2)},
                    ["calibration.c0=0.3183098861837907"])
    assert "calibration.c0" in check(run, [oracles.thm12_gap])[0]


def test_g_profile_oracle_passes_then_trips(tmp_path):
    good = write_run(tmp_path / "good",
                     {"g_profile.csv": g_profile(2.0 / 3.0)})
    assert check(good, [G_Q1]) == []
    bad = write_run(tmp_path / "bad", {"g_profile.csv": g_profile(0.7)})
    assert len(check(bad, [G_Q1])) == 1
    nan = write_run(tmp_path / "nan", {"g_profile.csv": g_profile(np.nan)})
    assert len(check(nan, [G_Q1])) == 2      # not finite, not 2r/3


def test_truncated_g_profile_is_a_problem_not_a_crash(tmp_path):
    run = write_run(tmp_path, {"g_profile.csv": "re,im,shell_radius\n"})
    problems = check(run, [G_Q1])
    assert any("no rows" in p for p in problems)
    other = write_run(tmp_path / "x", {"other.csv": "a\n1\n"})
    assert check(other, [G_Q1])[0].startswith(
        "g_conj_linear(g_profile.csv): unreadable")


def test_self_times_on_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    spans = [["cli", 0.0, 10.0, None, 0],
             ["fock.x", 1.0, 4.0, 0, 0],
             ["quadrature", 2.0, 3.0, 1, 0],
             ["fock.x", 5.0, 9.0, 0, 0],
             ["cli", 10.0, 12.0, None, 1]]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0])
    s = summarize(spans)
    assert s["self_s"] == pytest.approx(
        {"cli": 5.0, "fock.x": 6.0, "quadrature": 1.0})
    assert s["calls"] == {"cli": 2, "fock.x": 2, "quadrature": 1}
    assert s["by_op"]["0"] == pytest.approx(
        {"cli": 3.0, "fock": 6.0, "quadrature": 1.0})
    assert sum(s["self_s"].values()) == pytest.approx(12.0)
    # overlapping children (spans from two threads) are counted once
    overlap = [["cli", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
               ["b", 3.0, 6.0, 0, 0]]
    assert self_times(overlap)[0] == pytest.approx(5.0)


def test_tracer_wraps_counts_and_restores(monkeypatch):
    mod = types.ModuleType("pb_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "pb_fake", mod)

    def count(tracer, args, kwargs, result, outermost):
        tracer.counts["outer.calls"] += outermost

    tr = Tracer(log=io.StringIO())
    tr.install([Hook("pb_fake.outer", "lay.outer", count),
                Hook("pb_fake.inner", "lay.inner"),
                Hook("pb_fake.gone", "lay.gone"),
                Hook("pb_missing_module.f", "lay.f")])
    try:
        tr.op = 7
        assert mod.outer(1) == 4
    finally:
        tr.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert tr.missing == ["pb_fake.gone", "pb_missing_module.f"]
    assert [s[0] for s in tr.spans] == ["lay.outer", "lay.inner"]
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == 7
    assert tr.counts["outer.calls"] == 1


def test_failing_counter_is_logged_not_raised(monkeypatch):
    mod = types.ModuleType("pb_fake2")
    mod.f = lambda x: x
    monkeypatch.setitem(sys.modules, "pb_fake2", mod)

    def bad_count(tracer, args, kwargs, result, outermost):
        return result.no_such_attribute

    tr = Tracer(log=io.StringIO())
    tr.install([Hook("pb_fake2.f", "lay.f", bad_count)])
    try:
        assert mod.f(3) == 3
    finally:
        tr.uninstall()
    assert tr.missing == ["pb_fake2.f:count"]


def test_useful_pairs_matches_brute_force():
    from focklab.lattice import Window, build_lattice
    rng = np.random.default_rng(3)
    for r, half in ((1.0, 5.0), (0.5, 3.0)):
        L = build_lattice(0.1 + 0.2j, r, Window.square(half))
        z = rng.uniform(-half - 1, half + 1, (500, 2)) @ np.array([1, 1j])
        brute = int(np.sum(np.abs(z[None, :] - L.points[:, None]) < 2 * r))
        assert useful_pairs(L, 2 * r, z) == brute


def _config(op, seed):
    from focklab.config import load_config
    return load_config(None, op.overrides, seed=seed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_moves_probes_not_problem_size(workload):
    from focklab.cli import Runner
    a, b = workloads.ops_for(workload, 0), workloads.ops_for(workload, 1)
    assert [op.sub for op in a] == [op.sub for op in b]
    moved = 0
    for op_a, op_b in zip(a, b):
        ca, cb = _config(op_a, 0), _config(op_b, 1)
        for key in workloads.SIZE_KEYS:
            assert ca.get(key) == cb.get(key), (op_a.label, key)
        pa = Runner(ca).probes(np.random.default_rng(ca.seed))
        pb = Runner(cb).probes(np.random.default_rng(cb.seed))
        assert pa.shape == pb.shape
        moved += not np.array_equal(pa, pb)
    assert moved == len(a)
    assert [op.label for op in workloads.ops_for(workload, 5)] == \
        [op.label for op in workloads.ops_for(workload, 5)]


def test_compare_reports_changed_digest_and_deviation(tmp_path):
    def run(value):
        body = f"k,s_k\n0,1.0\n1,{value!r}\n"
        return {"workload": "spectra", "seed": 1, "trace": 0, "ops": [{
            "label": "hankel-svd", "csv": {"spectrum.csv": body},
            "sha256": {"spectrum.csv": hashlib.sha256(
                body.encode()).hexdigest()}}]}

    def result_set(name, value):
        directory = tmp_path / name
        directory.mkdir()
        (directory / "spectra-seed1-trace0.json").write_text(
            json.dumps(run(value)))
        (directory / "spectra-seed1-trace1-spans.json").write_text(
            json.dumps({"ops": {"0": "hankel-svd"}, "spans": []}))
        return compare.load(directory)

    before = result_set("before", 0.5)
    same = compare.compare(before, result_set("same", 0.5))
    assert same["compared"] == 1
    assert same["changed"] == [] and same["max_deviation"] == 0.0
    moved = compare.compare(before, result_set("moved", 0.5 + 1e-9))
    assert len(moved["changed"]) == 1
    assert moved["max_deviation"] == pytest.approx(1e-9)
