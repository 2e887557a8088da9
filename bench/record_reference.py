"""Record the reference values the output checks compare against.

    PYTHONPATH=src python3 bench/record_reference.py

Runs one ``suites`` pass and one ``design_analysis`` pass and writes
``bench/reference.json``: SHA-256 digests of every CSV the suites write,
per-scenario summary values and trace column statistics, and the G1, G2,
Gd norms per filter time constant. The file is recorded once, at the commit
that defines the benchmark; re-recording it later would hide the very
changes the checks exist to catch.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import inputs
import workloads


def _suites(root: Path, work: Path) -> dict:
    from sea_l1ac.config_io import suite_from_ini

    spec = inputs.make_inputs("suites", 0, root, work)
    out = work / "out"
    record = workloads.run_pass(spec, workloads.setup(spec), out)
    if any(r["exit"] != 0 for r in (*record["suite"].values(), *record["metrics"].values())):
        raise SystemExit(f"suites pass failed: {record}")
    scenarios = {}
    for manifest in spec["manifests"]:
        suite = suite_from_ini(manifest)
        summary = checks.read_summary(out / f"{suite.name}_summary.csv")
        for scen in suite.scenarios:
            stats = checks.trace_stats(out / f"{scen.name}.csv")
            scenarios[scen.name] = {
                "suite": suite.name,
                "manifest": Path(manifest).name,
                "summary": {k: summary[scen.name][k] for k in checks.SUMMARY_TOL},
                "trace": {k: stats[k] for k in ("rows", "sum", "sumabs", "maxabs")},
            }
    files = {p.name: checks.sha256(p) for p in sorted(out.glob("*.csv"))}
    return {"files": files, "scenarios": scenarios}


def _design(root: Path, work: Path) -> dict:
    from sea_l1ac.params import benchmark_params

    spec = inputs.make_inputs("design_analysis", 0, root, work)
    out = work / "out"
    record = workloads.run_pass(spec, workloads.setup(spec), out)
    if any(r["exit"] != 0 for r in record.values()):
        raise SystemExit(f"design pass failed: {record}")
    rows = checks.read_csv(out / "condition.csv")
    return {
        "omega": benchmark_params().omega,
        "rootlocus_points": len(checks.read_csv(out / "rootlocus.csv")),
        "norms": {r["T"]: [float(r[k]) for k in ("norm_G1", "norm_G2", "norm_Gd")]
                  for r in rows},
    }


def main() -> int:
    root = Path.cwd()
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=root / ".bench_work"))
    try:
        reference = {
            "suites": _suites(root, work / "suites"),
            "design_analysis": _design(root, work / "design"),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
