"""Compare the CSV outputs of two benchmark result sets.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by run.py (perfbench/out/
results/ of a checkout).  Runs are matched by workload, seed and trace
mode, ops by position and label, and CSVs by name.  The report lists
every changed sha256 and the largest relative numeric deviation, where a
cell's deviation is |a - b| divided by the largest magnitude in its
column (so a roundoff-level cell in a column of O(1) values reads as
roundoff, not as a 100% change).
"""

import csv
import json
import sys
from pathlib import Path


def load(directory) -> dict:
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        data = json.loads(path.read_text())
        runs[(data["workload"], data["seed"], data["trace"])] = data
    return runs


def _floats(cells):
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def deviation(text_a: str, text_b: str):
    """Largest column-scaled deviation, or None if the tables differ in
    shape or in a non-numeric cell."""
    rows_a = list(csv.reader(text_a.splitlines()))
    rows_b = list(csv.reader(text_b.splitlines()))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return None
    worst = 0.0
    for col in range(len(rows_a[0])):
        a = [row[col] for row in rows_a[1:]]
        b = [row[col] for row in rows_b[1:]]
        fa, fb = _floats(a), _floats(b)
        if fa is None or fb is None:
            if a != b:
                return None
            continue
        scale = max([abs(x) for x in fa + fb if x == x], default=0.0)
        for x, y in zip(fa, fb):
            if x != y and scale > 0:
                worst = max(worst, abs(x - y) / scale)
    return worst


def compare(before: dict, after: dict) -> dict:
    changed, unmatched, worst, where, compared = [], [], 0.0, None, 0
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            unmatched.append(key)
            continue
        ops_a, ops_b = before[key]["ops"], after[key]["ops"]
        for i, (a, b) in enumerate(zip(ops_a, ops_b)):
            if a["label"] != b["label"]:
                unmatched.append(key + (i,))
                continue
            for name in sorted(set(a["sha256"]) | set(b["sha256"])):
                compared += 1
                if a["sha256"].get(name) == b["sha256"].get(name):
                    continue
                dev = None
                if name in a["csv"] and name in b["csv"]:
                    dev = deviation(a["csv"][name], b["csv"][name])
                changed.append((key, a["label"], name, dev))
                if dev is None:
                    continue
                if dev > worst:
                    worst, where = dev, (key, a["label"], name)
    return {"compared": compared, "changed": changed,
            "unmatched": unmatched, "max_deviation": worst, "where": where}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report = compare(load(argv[0]), load(argv[1]))
    for key, label, name, dev in report["changed"]:
        what = "shape or labels changed" if dev is None \
            else f"max relative deviation {dev:.3e}"
        print(f"changed {key[0]} seed={key[1]} trace={key[2]} "
              f"[{label}] {name}: {what}")
    for key in report["unmatched"]:
        print(f"unmatched {key}")
    print(f"{len(report['changed'])} of {report['compared']} CSV digests "
          f"changed; largest relative deviation "
          f"{report['max_deviation']:.3e}"
          + (f" at {report['where']}" if report["where"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
