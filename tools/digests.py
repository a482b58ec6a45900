"""Print the sha256 of every CSV the CLI writes on a fixed set of runs.

    python3 tools/digests.py > digests.txt

The runs are the 18 subcommands at their defaults (seed 0), plus
`hankel-svd basis.degree=80 symbol.id=bump` (a Gram with one live rotation
character), `hankel-svd basis.degree=40 symbol.id=mixed` (one with all
four), the four q != 2 ops of the `fits-spectra` benchmark workload,
`dbar-check weight.kind=perturbed-gaussian` (the one dbar calibration on
a non-Gaussian weight), the benchmark's `thm11-report
functional.shells=2.0,3.0`, `compact-approx dbar.n_angular=90` (an
A_phi grid that does not reach the Cauchy transform, so its gap.csv
digest is the default's), `compact-approx lattice.window=12.0`
(a window past the approximant's reach), `compact-approx
symbol.id=conj-gaussian` (a gap row on an uncertified tail plateau),
`compact-approx approx.t=4.0` (a ramp annulus far from the origin, its
row uncertified on its degree shift), `compact-approx symbol.id=step` (a
compact symbol inside the cutoff, whose gap is the ramp term alone),
`ida-norm functional.s=2` (the finite-s lattice sum and its boundary
check), `berezin measure.density=gaussian` (a measure with a density),
`hankel-svd symbol.id=holo-poly`, `lattice lattice.base_re=0.3
lattice.base_im=-0.7 lattice.K=3` (an offset lattice with 9
sublattices), `hankel-svd basis.degree=80 symbol.id=mixed` (the one run
with all four characters live over several node blocks, where the order
of the Gram's block and class loops could move bytes) and `hankel-svd
symbol.id=step symbol.radius=3 basis.degree=4` (a spectrum whose
stability.csv row reads reliable=0 on its degree shift), each into a
fresh output directory.
Each CSV gives one line `label file sha256`; each manifest calibration or
warning line gives one line `label manifest.txt <line>`.  A label is the
subcommand with its overrides joined by '/'.  Two checkouts are compared
with one `diff` of their outputs; running the script twice in separate
processes shows nondeterminism that one process cannot see.

Some digests depend on the BLAS thread count.  Before numpy loads, the
script sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to
2, the count perfbench/run.py pins on two or more cores, unless the
environment already sets them; it prints the setting as its first line.
Two outputs compare only when their first lines agree.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "2")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from focklab.cli import SUBCOMMANDS, run  # noqa: E402
from focklab.config import load_config  # noqa: E402

EXTRA = (
    ("hankel-svd", "basis.degree=80", "symbol.id=bump"),
    ("hankel-svd", "basis.degree=40", "symbol.id=mixed"),
    ("ida-norm", "functional.q=1", "symbol.id=conj-gaussian"),
    ("ida-norm", "functional.q=3", "symbol.id=step", "lattice.r=0.5"),
    ("g-profile", "functional.q=1"),
    ("decompose", "functional.q=1", "symbol.id=bump"),
    ("dbar-check", "weight.kind=perturbed-gaussian"),
    ("thm11-report", "functional.shells=2.0,3.0"),
    ("compact-approx", "dbar.n_angular=90"),
    ("compact-approx", "lattice.window=12.0"),
    ("compact-approx", "symbol.id=conj-gaussian"),
    ("compact-approx", "approx.t=4.0"),
    ("compact-approx", "symbol.id=step"),
    ("ida-norm", "functional.s=2"),
    ("berezin", "measure.density=gaussian"),
    ("hankel-svd", "symbol.id=holo-poly"),
    ("lattice", "lattice.base_re=0.3", "lattice.base_im=-0.7", "lattice.K=3"),
    ("hankel-svd", "basis.degree=80", "symbol.id=mixed"),
    ("hankel-svd", "symbol.id=step", "symbol.radius=3", "basis.degree=4"),
)


def digest_lines(sub: str, overrides: tuple) -> list[str]:
    label = "/".join((sub,) + overrides)
    with tempfile.TemporaryDirectory() as out:
        run_dir = run(sub, load_config(None, list(overrides), seed=0), out)
        lines = [f"{label} {p.name} "
                 f"{hashlib.sha256(p.read_bytes()).hexdigest()}"
                 for p in sorted(run_dir.glob("*.csv"))]
        manifest = (run_dir / "manifest.txt").read_text().splitlines()
    return lines + [f"{label} manifest.txt {line}" for line in manifest
                    if line.startswith(("calibration.", "warning="))]


def main() -> int:
    print(" ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS),
          flush=True)
    for sub, *overrides in [(s,) for s in sorted(SUBCOMMANDS)] + list(EXTRA):
        print("\n".join(digest_lines(sub, tuple(overrides))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
