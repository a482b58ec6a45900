"""Benchmark of focklab's command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI invocations (see workloads.py),
each made through ``focklab.cli.run`` with ``key=value`` overrides, and
each output checked by its oracles (oracles.py).

--trace 0: import focklab, set up (weight, default basis, calibrated
  dbar solver), then repeat the op list, with more set-ups spread
  between the passes, until the passes have taken about --seconds.
  Reports the end-to-end metrics: wall and CPU time of a pass made of
  each op's median, peak RSS, and the import plus the median set-up.
--trace 1: a warm-up pass, then the set-up and each op run untraced
  and traced back to back.  Reports the per-layer metrics of the traced
  runs (layers.py) and the tracing overhead; spans are written next to
  the results.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  An op fails if it raises or if any of
its oracle checks fails, except on a known defect of focklab pinned in
oracles.py: that is printed as KNOWN DEFECT and counted in fail_frac.
Results, with per-op CSV digests and bodies for compare.py, go to
perfbench/out/results/.  The benchmark pins the BLAS thread count so
two commits are measured alike.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
MIN_PASSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def pin_threads() -> int:
    """Fix the BLAS thread count before numpy loads; returns it."""
    n = min(2, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    # focklab's optional per-symbol thread pool stays at its default
    os.environ.pop("FOCKLAB_WORKERS", None)
    return n


def import_focklab():
    """Import focklab from this checkout's src/; returns (cli, config, s)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import focklab.cli
    import focklab.config
    elapsed = time.perf_counter() - t0
    if src not in Path(focklab.__file__).resolve().parents:
        raise ImportError(f"focklab imported from {focklab.__file__}, "
                          f"not from {src}")
    return focklab.cli, focklab.config, elapsed


@dataclass
class OpRecord:
    label: str
    wall_s: float
    cpu_s: float
    problems: list
    digests: dict = field(default_factory=dict)
    csv: dict = field(default_factory=dict)
    known: list = field(default_factory=list)


@dataclass
class Bench:
    cli: object
    config: object
    seed: int
    work: Path

    def set_up(self) -> None:
        """What every op does first: weight, default basis, dbar solver."""
        runner = self.cli.Runner(self.config.load_config(None, (),
                                                         seed=self.seed))
        runner.weight
        runner.basis()
        runner.solver

    def invoke(self, op, tracer=None) -> OpRecord:
        """One timed CLI invocation, then its oracle checks (untimed)."""
        idx = None if tracer is None else tracer.open("cli")
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            cfg = self.config.load_config(None, op.overrides, seed=self.seed)
            run_dir = self.cli.run(op.sub, cfg, str(self.work))
            error = None
        except Exception:
            # a raising op is a failed op; the run goes on
            error = traceback.format_exc().strip()
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if tracer is not None:
                tracer.close(idx)
        if error is not None:
            return OpRecord(op.label, wall, cpu, [error])
        try:
            out = oracles.read_output(run_dir)
        except (OSError, UnicodeDecodeError) as exc:
            return OpRecord(op.label, wall, cpu, [f"unreadable: {exc!r}"])
        problems, known = oracles.split_known(
            oracles.run_checks(out, op.checks))
        return OpRecord(op.label, wall, cpu, problems, out.actual,
                        out.texts, known)

    def run_pass(self, ops) -> list:
        return [self.invoke(op) for op in ops]


def warm_allocator() -> None:
    """Put the C allocator in the state a long-running process reaches.

    glibc serves large blocks by mmap until the first such block is
    freed; then it raises its mmap threshold (up to 32 MiB) and keeps
    freed memory for reuse.  Without this, the first pass of a run pays
    page faults that later passes do not, and the spread across runs
    depends on how many passes a run makes.
    """
    import numpy as np
    block = np.empty(30 * 2 ** 20, dtype=np.uint8)
    del block


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def check_repeats(passes) -> None:
    """Reruns of an op must give byte-identical CSVs."""
    first = passes[0]
    for later in passes[1:]:
        for a, b in zip(first, later):
            if b.digests != a.digests and not b.problems:
                b.problems.append("CSV digests differ from the first pass")


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads_in_effect():
    """Ask the OpenBLAS that numpy loaded; None if it cannot be found."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(threads_set: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_set": threads_set,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(ROOT / "src"),
    }


def median_pass(passes, attr: str) -> float:
    """A pass made of each op's median over the passes."""
    return sum(statistics.median(getattr(r, attr) for r in op_runs)
               for op_runs in zip(*passes))


def measure(bench: Bench, ops, seconds: float, import_s: float):
    """Untraced: whole passes until they have taken about `seconds`
    (at least MIN_PASSES), with SETUPS set-ups spread over the run.

    The passes stop once another would end more than half a pass past
    `seconds`, so a run's length does not jump by a whole pass.
    Spreading the set-ups over the run lets their median see the same
    mix of machine states as the passes; set-ups made back to back all
    land in whichever state the machine is in at the start.
    """
    setups = [timed(bench.set_up)]
    passes, passing = [], 0.0
    while (len(passes) < MIN_PASSES
           or passing + 0.5 * passing / len(passes) < seconds):
        t0 = time.perf_counter()
        passes.append(bench.run_pass(ops))
        passing += time.perf_counter() - t0
        due = 1 + min(SETUPS - 1, int(passing / seconds * (SETUPS - 1)))
        while len(setups) < due:
            setups.append(timed(bench.set_up))
    while len(setups) < SETUPS:
        setups.append(timed(bench.set_up))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": median_pass(passes, "wall_s"),
        "cpu_s": median_pass(passes, "cpu_s"),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": import_s + statistics.median(setups),
    }
    extra = {"setups_s": setups, "import_s": import_s,
             "pass_wall_s": [sum(r.wall_s for r in p) for p in passes]}
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            passes, extra)


def measure_traced(bench: Bench, ops, spans_path: Path):
    """A warm-up pass, then each op (and the set-up) untraced and traced
    back to back, so that drift in machine speed mostly cancels."""
    from layers import HOOKS, layer_metrics
    from tracer import Tracer, summarize
    bench.set_up()
    warm = bench.run_pass(ops)
    tracer = Tracer()

    def traced_call(op_id, fn):
        tracer.install(HOOKS)
        try:
            tracer.op = op_id
            return fn()
        finally:
            tracer.uninstall()

    def traced_set_up():
        idx = tracer.open("cli")
        try:
            return timed(bench.set_up)
        finally:
            tracer.close(idx)

    setup_u = timed(bench.set_up)
    setup_t = traced_call("setup", traced_set_up)
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(bench.invoke(op))
        traced.append(traced_call(i, lambda: bench.invoke(op, tracer)))
    wall_u = setup_u + sum(r.wall_s for r in plain)
    wall_t = setup_t + sum(r.wall_s for r in traced)
    summary = summarize(tracer.spans)
    metrics = layer_metrics(summary, tracer.counts, tracer.gauges,
                            tracer.missing, len(ops),
                            sum(len(text.encode()) for r in traced
                                for text in r.csv.values()),
                            wall_u, wall_t)
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "ops": {str(i): op.label for i, op in enumerate(ops)},
        "self_s_by_op_and_layer": summary["by_op"],
        "missing": tracer.missing,
        "spans": tracer.spans}))
    extra = {"untraced_wall_s": wall_u, "missing": tracer.missing}
    return metrics, [warm, plain, traced], extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy's generator)")

    threads = pin_threads()
    try:
        cli, config, import_s = import_focklab()
    except ImportError as exc:
        print(f"perfbench: cannot import focklab: {exc}", file=sys.stderr)
        return 2
    env = environment(threads)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / name
    results = OUT / "results"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)

    bench = Bench(cli, config, args.seed, work)
    ops = workloads.ops_for(args.workload, args.seed)
    warm_allocator()
    if args.trace:
        metrics, passes, extra = measure_traced(
            bench, ops, results / f"{name}-spans.json")
    else:
        metrics, passes, extra = measure(bench, ops, args.seconds, import_s)
    check_repeats(passes)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.problems)
    known = sum(1 for p in passes for r in p if r.known and not r.problems)
    fail_frac = (failed + known) / attempted
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (results / f"{name}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "metrics": values,
        "attempted": attempted, "failed": failed,
        "known_defect_ops": known, "fail_frac": fail_frac, **extra,
        "ops": [{"label": r.label, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                 "problems": r.problems, "known_defects": r.known,
                 "sha256": r.digests, "csv": r.csv}
                for r in passes[-1]]}, indent=1))

    print("env " + json.dumps(env))
    for r in (r for p in passes for r in p):
        if r.problems:
            print(f"FAILED {r.label}: " + "; ".join(r.problems))
        if r.known:
            print(f"KNOWN DEFECT {r.label}: " + "; ".join(r.known))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    print(f"fail_frac {fail_frac!r} ({failed + known}/{attempted} ops "
          f"failed an oracle check, {known} of them only on a known "
          "defect)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": values}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
