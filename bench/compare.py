"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py SET_A SET_B

A set is a directory (or a list of files) holding the standard output of
``bench/run.py`` runs, one file per run; the ``bench-record`` line of each
file is read. For every workload and end-to-end metric this prints each
set's median and quartiles, the spread (q3 - q1) / median, the change of
B's median against A's, and the metric's bound from BENCHMARK.json. A row
is marked WORSE when B's median is worse than A's by more than the bound,
and SPREAD when either set's spread exceeds the bound. Exit code 1 if any
row is marked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import quartiles

PREFIX = "bench-record "


def load_set(arg: str) -> dict:
    """{(workload, metric): [values]} over the untraced runs of a set."""
    path = Path(arg)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    values: dict = {}
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            if not line.startswith(PREFIX):
                continue
            rec = json.loads(line[len(PREFIX):])
            if rec["trace"]:
                continue
            for name, value in rec["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(value)
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a, b = load_set(argv[0]), load_set(argv[1])
    marked = False
    print(f"{'workload':16s} {'metric':12s} {'n':>5s} {'A median':>10s} {'A spread':>9s} "
          f"{'B median':>10s} {'B spread':>9s} {'change':>8s} {'bound':>6s}")
    for workload, name in sorted(set(a) & set(b)):
        if name not in metrics:
            continue
        m = metrics[name]
        qa, qb = quartiles(a[workload, name]), quartiles(b[workload, name])
        spread_a = (qa[2] - qa[0]) / qa[1]
        spread_b = (qb[2] - qb[0]) / qb[1]
        change = (qb[1] - qa[1]) / qa[1]
        worse = change if m["better"] == "lower" else -change
        flags = []
        if worse > m["bound"]:
            flags.append("WORSE")
        if name != "setup_s" and max(spread_a, spread_b) > m["bound"]:
            flags.append("SPREAD")
        marked |= bool(flags)
        n = f"{len(a[workload, name])}/{len(b[workload, name])}"
        print(f"{workload:16s} {name:12s} {n:>5s} {qa[1]:10.4f} {spread_a:9.1%} "
              f"{qb[1]:10.4f} {spread_b:9.1%} {change:+8.1%} {m['bound']:6.2f} "
              f"{' '.join(flags)}")
        print(f"{'':16s} {'':12s} {'':5s} q1 {qa[0]:.4f} q3 {qa[2]:.4f}   "
              f"q1 {qb[0]:.4f} q3 {qb[2]:.4f}")
    return 1 if marked else 0


if __name__ == "__main__":
    sys.exit(main())
