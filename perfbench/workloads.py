"""The two workloads: fixed lists of CLI invocations with their oracles.

The seed becomes the CLI's ``--seed``, which sets the probe points, and
varies symbol parameters only where the op's oracle does not depend on
them.  It never changes a problem size: lattice spacing and window,
degree, margin, shells, probe count and ``dbar.n_*`` stay fixed.

Why each workload (see README.md for the layer map):
- approximant: ~85% of its time is dbar.raw_apply evaluating
  decomposition.dbar_f1 densely, the dense partition a local partition
  and a batched dbar solve would remove.  It does few local fits, so it
  is also the bypass for changes to the local-fit engine.
- fits-spectra: no dbar work, so it bypasses any dbar change.  It runs
  q = 2 fits and dense partition evaluation inside mean_oscillation(f2)
  (thm11, thm13), the same oscillation layer through the q != 2 IRLS
  path, where a batched q = 2 engine that slowed q != 2 would show, and
  Gram, eigensolve, kernel and Berezin ops with per-op CLI overhead.
  These share one workload so that each run can be long: the machine's
  speed drifts by tens of percent over minutes, and only long runs
  average that out.  The traced run still splits the time by op.
"""

import random
from dataclasses import dataclass

import oracles as o

WORKLOADS = ("approximant", "fits-spectra")
# the problem-size keys a seed must never change
SIZE_KEYS = ("basis.degree", "basis.margin", "quad.order", "lattice.r",
             "lattice.window", "functional.shells", "functional.d",
             "functional.r", "functional.q", "probes.count",
             "probes.half_width", "dbar.n_radial", "dbar.n_angular",
             "gauge.c_grid")


@dataclass(frozen=True)
class Op:
    sub: str
    overrides: tuple
    checks: tuple = ()

    @property
    def label(self) -> str:
        return " ".join((self.sub,) + self.overrides)


def _spectra(rng: random.Random) -> list:
    ops = []
    for degree in (20, 40, 60, 80):
        size = f"basis.degree={degree}"
        beta = f"symbol.beta={rng.uniform(0.75, 1.25):.6f}"
        ops += [
            Op("hankel-svd", (size, "symbol.id=conj-linear"),
               (o.conj_linear_spectrum,)),
            Op("hankel-svd", (size, "symbol.id=conj-gaussian", beta)),
            Op("hankel-svd", (size, "symbol.id=mixed",
                              f"symbol.radius={rng.uniform(0.8, 1.2):.6f}")),
            Op("hankel-svd", (size, "symbol.id=bump",
                              f"symbol.radius={rng.uniform(0.8, 1.2):.6f}")),
            Op("hankel-svd", (size, "symbol.id=holo-poly"), (o.holo_s0,)),
        ]
    ops += [Op("essential-norm", (f"basis.degree={d}",), (o.ess_is_one,))
            for d in (30, 60)]
    ops += [
        Op("kz-profile", (), (o.kz_conj_linear,)),
        Op("kz-profile", ("symbol.id=conj-gaussian",
                          f"symbol.beta={rng.uniform(0.75, 1.25):.6f}")),
        Op("berezin", ("probes.count=200",), (o.berezin_lebesgue,)),
        Op("berezin", ("probes.count=200", "measure.density=gaussian"),
           (o.berezin_density,)),
    ]
    return ops


def _local_fit() -> list:
    return [Op("thm11-report", ("functional.shells=2.0,3.0",),
               (o.criterion_08,
                o.g_conj_linear(2.0, 1.0, "ratios.csv", "g_max",
                                ("conj-linear", "mixed")))),
            Op("thm13-report", (), (o.thm13_agree,))]


def _irls() -> list:
    return [Op("ida-norm", ("functional.q=1", "symbol.id=conj-gaussian")),
            Op("ida-norm", ("functional.q=3", "symbol.id=step",
                            "lattice.r=0.5")),
            Op("g-profile", ("functional.q=1",),
               (o.g_conj_linear(1.0, 1.0, "g_profile.csv", "value"),)),
            Op("decompose", ("functional.q=1", "symbol.id=bump"))]


def ops_for(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "approximant":
        return [Op("thm12-report", ("functional.shells=2.0",), (o.thm12_gap,)),
                Op("dbar-check", (), (o.dbar_residual,))]
    if workload == "fits-spectra":
        return _local_fit() + _irls() + _spectra(rng)
    raise ValueError(f"unknown workload {workload!r}")
