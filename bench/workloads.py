"""Set-up and one pass of each workload, driven through the package's
public entry points exactly as a user or a sweep script would call them.

``setup`` imports the package and parses the workload's input files; this
is the work ``setup_s`` times in a fresh interpreter. ``run_pass`` does one
pass of the fixed work and returns a JSON-able record of what the package
returned; ``checks.check_pass`` judges that record and the files written.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path


class _NoTracer:
    item = None


def setup(spec: dict) -> dict:
    """Import the package and the CLI, then parse every input file."""
    import_package()
    return parse_inputs(spec)


def import_package():
    import sea_l1ac  # noqa: F401 - the import is part of what set-up costs
    import sea_l1ac.cli  # noqa: F401


def parse_inputs(spec: dict) -> dict:
    from sea_l1ac import config_io

    workload = spec["workload"]
    if workload == "suites":
        return {"suites": [config_io.suite_from_ini(m) for m in spec["manifests"]]}
    if workload == "ts_sweep":
        groups = []
        for group in spec["groups"]:
            cfgs = [config_io.scenario_from_ini(f).with_overrides(track_reference=True)
                    for f in group["files"]]
            groups.append(cfgs)
        return {"groups": groups}
    return {
        "rootlocus": config_io.rootlocus_job_from_ini(spec["ini"]),
        "condition": config_io.condition_job_from_ini(spec["ini"]),
    }


def _cli(argv: list[str]) -> dict:
    """Run one CLI command in-process; capture its output and exit code."""
    from sea_l1ac import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the command line
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - an escaping exception is a failed item
        return {"exit": None, "stdout": out.getvalue(), "error": repr(exc)}
    return {"exit": code, "stdout": out.getvalue(), "error": err.getvalue()}


def run_pass(spec: dict, state: dict, out_dir: Path, tracer=None) -> dict:
    """One pass of the workload's fixed work; outputs go to ``out_dir``."""
    tracer = tracer or _NoTracer()
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = spec["workload"]
    if workload == "suites":
        return _suites_pass(spec, out_dir, tracer)
    if workload == "ts_sweep":
        return _ts_sweep_pass(state, tracer)
    return _design_pass(spec, out_dir, tracer)


def _suites_pass(spec, out_dir: Path, tracer) -> dict:
    record = {"suite": {}, "metrics": {}}
    for manifest in spec["manifests"]:
        tracer.item = Path(manifest).stem
        record["suite"][Path(manifest).name] = _cli(
            ["suite", manifest, "--out-dir", str(out_dir)])
    traces = sorted(p.name for p in out_dir.glob("*.csv")
                    if not p.name.endswith("_summary.csv"))
    random.Random(spec["metrics_order_seed"]).shuffle(traces)
    for name in traces:
        tracer.item = name[:-4]
        record["metrics"][name] = _cli(["metrics", str(out_dir / name)])
    return record


def _ts_sweep_pass(state, tracer) -> dict:
    from sea_l1ac.harness import run_scenario

    groups = []
    for g, cfgs in enumerate(state["groups"]):
        tracer.item = f"group{g}"
        runs = []
        for cfg in cfgs:
            try:
                trace = run_scenario(cfg)
            except Exception as exc:  # noqa: BLE001 - a raising run fails its group
                runs.append({"error": repr(exc)})
                continue
            final = [float(trace[c][-1]) for c in
                     ("q_rad", "dq_rad_per_s", "theta_rad", "dtheta_rad_per_s")]
            runs.append({
                "T_s": cfg.T_s,
                "rows": len(trace),
                "xtilde_max": float(trace.aux["xtilde_max"]),
                "ref_err_max": float(trace.aux["ref_err_max"]),
                "final": final,
                "finite": all(map(math.isfinite, final)),
            })
        groups.append(runs)
    return {"groups": groups}


def _design_pass(spec, out_dir: Path, tracer) -> dict:
    record = {}
    for what in ("rootlocus", "condition"):
        tracer.item = what
        record[what] = _cli(["analyze", what, spec["ini"], "--out-dir", str(out_dir)])
    return record
