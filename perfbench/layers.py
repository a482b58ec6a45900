"""Which focklab names the traced run wraps, and the per-layer metrics.

Layers are focklab's modules.  Each hook rebinds the name a caller looks
up, so a module that imported a function by name is wrapped in its own
namespace (``focklab.spectral.build_hankel_gram`` and
``focklab.cli.build_hankel_gram`` are two hooks).  ``weights`` has no
hook: only closures of it run in the workloads.  The root ``cli`` span
is opened by the benchmark around each CLI invocation.
"""

import numpy as np

from tracer import Hook


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _fit_span(args, kwargs):
    """ida_distance and g_functional: the q = 2 projection or IRLS."""
    q = float(_arg(args, kwargs, 3, "q", 2.0))
    return "oscillation.fit" if q == 2.0 else "oscillation.irls"


def _count_fit(tracer, args, kwargs, result, outermost):
    if outermost:
        name = _fit_span(args, kwargs)
        tracer.counts[name + ".points"] += int(np.size(args[1]))


def _count_rule(tracer, args, kwargs, result, outermost):
    tracer.counts["quadrature.rules"] += 1


def _count_lattice(tracer, args, kwargs, result, outermost):
    tracer.counts["lattice.points"] += len(result.points)


def _count_symbol(tracer, args, kwargs, result, outermost):
    tracer.counts["symbols.eval_points"] += int(np.size(args[1]))


def _count_calls(key):
    def count(tracer, args, kwargs, result, outermost):
        tracer.counts[key] += 1
    return count


def _count_decompose(tracer, args, kwargs, result, outermost):
    tracer.counts["decomposition.decompose.centres"] += \
        len(args[1].lattice.points)


def useful_pairs(lattice, support: float, z) -> int:
    """(point, centre) pairs with |z - a| < support on a square lattice.

    Counts, row by row near each query point, the lattice points inside
    its support disk, so the cost is O(points * support / r), not
    O(points * N).
    """
    z = np.asarray(z, dtype=complex).ravel()
    if z.size == 0 or len(lattice.points) == 0:
        return 0
    r = lattice.r
    m_lo, s_lo = lattice.ms.min(axis=0)
    m_hi, s_hi = lattice.ms.max(axis=0)
    x = (z.real - lattice.base.real) / r
    y = (z.imag - lattice.base.imag) / r
    rad = support / r
    reach = int(np.ceil(rad))
    total = 0
    for k in range(-reach, reach + 1):
        s = np.floor(y) + k
        dy2 = (y - s) ** 2
        inside = (dy2 < rad * rad) & (s >= s_lo) & (s <= s_hi)
        half = np.sqrt(rad * rad - dy2[inside])
        xs = x[inside]
        lo = np.maximum(np.floor(xs - half) + 1, m_lo)
        hi = np.minimum(np.ceil(xs + half) - 1, m_hi)
        total += int(np.sum(np.maximum(hi - lo + 1, 0)))
    return total


def _count_eval(tracer, args, kwargs, result, outermost):
    if not outermost:
        return
    decomp, z = args[0], args[1]
    part = decomp.partition
    tracer.counts["decomposition.eval.points"] += int(np.size(z))
    tracer.counts["decomposition.eval.useful_pairs"] += useful_pairs(
        part.lattice, part.support_radius, z)


def _count_calibrate(tracer, args, kwargs, result, outermost):
    tracer.gauges["dbar.calibration_residual"] = \
        float(args[0].calibration_residual)


def _count_apply(tracer, args, kwargs, result, outermost):
    solver, n = args[0], int(np.size(args[2]))
    tracer.counts["dbar.apply.points"] += n
    tracer.counts["dbar.integrand_evals"] += \
        n * solver.n_radial * solver.n_angular


HOOKS = (
    # quadrature: every rule built, whichever module builds it
    Hook("focklab.fock.gaussian_plane_rule", "quadrature", _count_rule),
    Hook("focklab.oscillation.ball_rule", "quadrature", _count_rule),
    Hook("focklab.decomposition.ball_rule", "quadrature", _count_rule),
    Hook("focklab.spectral.ball_rule", "quadrature", _count_rule),
    Hook("focklab.quadrature.BallRule.shifted", "quadrature", _count_rule),
    Hook("focklab.cli.build_lattice", "lattice", _count_lattice),
    Hook("focklab.symbols.Symbol.__call__", "symbols", _count_symbol),
    Hook("focklab.cli.build_basis", "fock.build_basis"),
    Hook("focklab.spectral.build_basis", "fock.build_basis"),
    Hook("focklab.spectral.project", "fock.project"),
    # oscillation: the local fit, named by q at the call
    Hook("focklab.oscillation.ida_distance", _fit_span, _count_fit),
    Hook("focklab.decomposition.ida_distance", _fit_span, _count_fit),
    Hook("focklab.oscillation.g_functional", _fit_span, _count_fit),
    Hook("focklab.cli.g_functional", _fit_span, _count_fit),
    Hook("focklab.decomposition.g_functional", _fit_span, _count_fit),
    Hook("focklab.spectral.g_functional", _fit_span, _count_fit),
    Hook("focklab.oscillation.mean_oscillation", "oscillation.mean_osc"),
    Hook("focklab.decomposition.mean_oscillation", "oscillation.mean_osc"),
    Hook("focklab.cli.decompose", "decomposition.decompose",
         _count_decompose),
    Hook("focklab.cli.verify_controls", "decomposition.verify"),
    Hook("focklab.decomposition.Decomposition.f1", "decomposition.eval",
         _count_eval),
    Hook("focklab.decomposition.Decomposition.f2", "decomposition.eval",
         _count_eval),
    Hook("focklab.decomposition.Decomposition.dbar_f1",
         "decomposition.eval", _count_eval),
    # dbar: calibrate and apply include their raw integrals; raw_apply
    # is only counted so that both keep their quadrature work
    Hook("focklab.cli.calibrate_orientation", "dbar.calibrate",
         _count_calibrate),
    Hook("focklab.dbar.DbarSolver.raw_apply", None,
         _count_calls("dbar.raw_apply.calls")),
    Hook("focklab.dbar.DbarSolver.apply", "dbar.apply", _count_apply),
    Hook("focklab.cli.build_hankel_gram", "spectral.gram"),
    Hook("focklab.spectral.build_hankel_gram", "spectral.gram"),
    Hook("focklab.cli.singular_spectrum", "spectral.eig"),
    Hook("focklab.spectral.singular_spectrum", "spectral.eig"),
    Hook("focklab.cli.hankel_on_kernel", "spectral.kz"),
    Hook("focklab.cli.berezin_transform", "spectral.berezin"),
    Hook("focklab.cli.schatten_h_criterion", "spectral.schatten"),
    Hook("focklab.cli.compact_approximant", "spectral.approximant"),
)

# span names whose calls are reported as "<name>.calls"
CALL_COUNTED = ("fock.build_basis", "fock.project", "oscillation.mean_osc",
                "decomposition.verify", "spectral.gram", "spectral.eig",
                "spectral.kz", "spectral.berezin", "spectral.schatten")


def layer_metrics(summary: dict, counts, gauges, missing, ops: int,
                  csv_bytes: int, wall_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``wall_s`` and ``traced_wall_s`` cover the same set-up and ops, the
    first untraced, the second traced.
    """
    self_s = summary["self_s"]

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    m = {
        "cli.ops": (ops, "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "quadrature.rules": (counts["quadrature.rules"], "count"),
        "quadrature.self_s": (self_s.get("quadrature", 0.0), "s"),
        "lattice.points": (counts["lattice.points"], "count"),
        "lattice.self_s": (self_s.get("lattice", 0.0), "s"),
        "symbols.eval_points": (counts["symbols.eval_points"], "count"),
        "symbols.self_s": (self_s.get("symbols", 0.0), "s"),
    }
    for name in CALL_COUNTED:
        m[name + ".calls"] = (summary["calls"].get(name, 0), "count")
    for name in ("fock.build_basis", "fock.project", "oscillation.fit",
                 "oscillation.irls", "oscillation.mean_osc",
                 "decomposition.decompose", "decomposition.verify",
                 "decomposition.eval", "dbar.calibrate", "dbar.apply",
                 "spectral.gram", "spectral.eig", "spectral.kz",
                 "spectral.berezin", "spectral.schatten",
                 "spectral.approximant"):
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("oscillation.fit", "oscillation.irls"):
        pts = counts[name + ".points"]
        m[name + ".points"] = (pts, "count")
        m[name + ".ms_per_point"] = (
            per(self_s.get(name, 0.0), pts, 1e3), "ms")
    m["decomposition.decompose.centres"] = (
        counts["decomposition.decompose.centres"], "count")
    pairs = counts["decomposition.eval.useful_pairs"]
    m["decomposition.eval.points"] = (counts["decomposition.eval.points"],
                                      "count")
    m["decomposition.eval.useful_pairs"] = (pairs, "count")
    m["decomposition.eval.ns_per_useful_pair"] = (
        per(self_s.get("decomposition.eval", 0.0), pairs, 1e9), "ns")
    evals = counts["dbar.integrand_evals"]
    m["dbar.raw_apply.calls"] = (counts["dbar.raw_apply.calls"], "count")
    m["dbar.apply.points"] = (counts["dbar.apply.points"], "count")
    m["dbar.integrand_evals"] = (evals, "count")
    m["dbar.ns_per_integrand_eval"] = (
        per(self_s.get("dbar.apply", 0.0), evals, 1e9), "ns")
    m["dbar.calibration_residual"] = (
        gauges.get("dbar.calibration_residual", 0.0), "1")
    accounted = sum(self_s.values())
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.overhead_frac"] = (traced_wall_s / wall_s - 1.0, "1")
    m["trace.unaccounted_frac"] = (1.0 - accounted / traced_wall_s, "1")
    m["trace.missing"] = (len(missing), "count")
    return m
