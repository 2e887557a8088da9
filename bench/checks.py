"""Output checks for one pass of a workload.

Each check compares what the package returned or wrote against values
recorded at the commit that defined the benchmark (``reference.json``), or
against a property the paper states. The tolerances below are the
benchmark's contract: a change that moves results by less than them passes,
and any change at all to the bytes of the ``suites`` outputs is reported
through ``outputs_changed``.

Only numpy and the standard library are used, so a broken package cannot
vouch for its own outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import SWEEP_DURATION

REFERENCE = Path(__file__).with_name("reference.json")

TRACE_COLUMNS = (
    "t_s", "q_rad", "dq_rad_per_s", "theta_rad", "dtheta_rad_per_s", "tau_m_Nm",
    "current_permil", "sigma22_hat", "xtilde_inf", "u1", "u2",
)

# Trace columns: |sum - ref| <= TRACE_REL * sum|ref| (and the same for the
# column's peak magnitude). Row count and header must match exactly.
# ABS_FLOOR is added to every tolerance so that exact zeros compare equal.
TRACE_REL = 1e-6
ABS_FLOOR = 1e-12

# Summary-table and `metrics` values: (kind, tolerance). Rise delay and
# settling time live on the 1 ms result grid, so two grid steps are allowed.
SUMMARY_TOL = {
    "static_error_rad": ("abs", 1e-6),
    "overshoot_pct": ("abs", 1e-4),
    "settling_time_s": ("abs", 2e-3),
    "peak_current_permil": ("rel", 1e-6),
    "rise_delay_s": ("abs", 2e-3),
    "peak_speed_after_contact": ("rel", 1e-6),
}

# design_analysis: impulse-response L1 norms of G1, G2, Gd against the
# recorded ones, and the lambda = 0 root-locus row against -omega.
NORM_REL = 1e-6
ROOT_REL = 1e-6

# A table cell holding a numpy scalar repr such as ``np.float64(-19.07)``
# instead of a plain number (the root-locus table at the commit that defined
# the benchmark). The value is still read and checked; every such cell is
# counted in ``malformed_cells`` so the format defect stays visible.
_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")

# What reading a missing, truncated or garbled output file can raise; a
# check that meets one fails its item instead of stopping the run.
UNREADABLE = (OSError, ValueError, KeyError, IndexError)


@dataclass
class CheckResult:
    """Items attempted, the reason each failed item failed, bytes changed."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)
    outputs_changed: int = 0
    malformed_cells: int = 0

    def fail(self, item: str, reason: str):
        self.failures.setdefault(item, reason)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(value, ref, kind: str, tol: float) -> bool:
    if ref is None or value is None:
        return ref is None and value is None
    if not math.isfinite(value):
        return False
    scale = abs(ref) if kind == "rel" else 1.0
    return abs(value - ref) <= tol * scale + ABS_FLOOR


def _opt_float(raw: str):
    return None if raw == "" else float(raw)


def check_pass(spec: dict, record: dict, out_dir: Path, reference: dict,
               first: dict | None = None) -> CheckResult:
    """Judge one pass; ``first`` is the first pass's record of this run."""
    workload = spec["workload"]
    if workload == "suites":
        return _check_suites(record, out_dir, reference["suites"])
    if workload == "ts_sweep":
        return _check_ts_sweep(record, first)
    return _check_design(record, out_dir, reference["design_analysis"])


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def trace_stats(path: Path) -> dict:
    """Row count, per-column sums, sums of magnitudes and peak magnitudes."""
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return {
        "header": header,
        "rows": int(data.shape[0]),
        "sum": data.sum(axis=0).tolist(),
        "sumabs": np.abs(data).sum(axis=0).tolist(),
        "maxabs": np.abs(data).max(axis=0).tolist(),
        "finite": bool(np.all(np.isfinite(data))),
    }


def _trace_problem(path: Path, ref: dict) -> str | None:
    if not path.exists():
        return "trace missing"
    stats = trace_stats(path)
    if stats["header"] != ",".join(TRACE_COLUMNS):
        return "trace header changed"
    if stats["rows"] != ref["rows"]:
        return f"trace has {stats['rows']} rows, expected {ref['rows']}"
    if not stats["finite"]:
        return "trace holds non-finite values"
    for j, col in enumerate(TRACE_COLUMNS):
        tol = TRACE_REL * ref["sumabs"][j] + ABS_FLOOR
        if abs(stats["sum"][j] - ref["sum"][j]) > tol:
            return f"column {col} sum {stats['sum'][j]!r} != {ref['sum'][j]!r}"
        tol = TRACE_REL * ref["maxabs"][j] + ABS_FLOOR
        if abs(stats["maxabs"][j] - ref["maxabs"][j]) > tol:
            return f"column {col} peak {stats['maxabs'][j]!r} != {ref['maxabs'][j]!r}"
    return None


def read_summary(path: Path) -> dict:
    """Summary rows keyed by scenario name, numeric fields as floats/None."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        raw = dict(zip(header, line.split(",")))
        row = {"status": raw["status"], "controller": raw["controller"]}
        for key in SUMMARY_TOL:
            row[key] = _opt_float(raw[key])
        rows[raw["scenario"]] = row
    return rows


def _values_problem(values: dict, ref: dict, what: str) -> str | None:
    for key, (kind, tol) in SUMMARY_TOL.items():
        if not _close(values.get(key), ref[key], kind, tol):
            return f"{what} {key} {values.get(key)!r} != {ref[key]!r} ({kind} tol {tol})"
    return None


def _suite_item_problem(name: str, sref: dict, record: dict, summary: dict,
                        out_dir: Path) -> str | None:
    run = record["suite"].get(sref["manifest"])
    if run is None or run["exit"] != 0:
        return f"suite command failed: {run and (run['error'] or run['exit'])}"
    row = summary.get(name)
    if row is None or row["status"] != "ok":
        return f"summary row missing or not ok: {row}"
    problem = _values_problem(row, sref["summary"], "summary")
    problem = problem or _trace_problem(out_dir / f"{name}.csv", sref["trace"])
    if problem:
        return problem
    met = record["metrics"].get(f"{name}.csv")
    if met is None or met["exit"] != 0:
        return f"metrics command failed: {met and (met['error'] or met['exit'])}"
    return _values_problem(json.loads(met["stdout"]), sref["summary"], "metrics")


def _check_suites(record: dict, out_dir: Path, ref: dict) -> CheckResult:
    result = CheckResult()
    for name, digest in ref["files"].items():
        path = out_dir / name
        if not path.exists() or sha256(path) != digest:
            result.outputs_changed += 1
    summaries = {}
    for suite in {s["suite"] for s in ref["scenarios"].values()}:
        try:
            summaries[suite] = read_summary(out_dir / f"{suite}_summary.csv")
        except UNREADABLE:
            summaries[suite] = {}
    for name, sref in ref["scenarios"].items():
        result.attempted += 1
        try:
            problem = _suite_item_problem(name, sref, record, summaries[sref["suite"]],
                                          out_dir)
        except UNREADABLE as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            result.fail(name, problem)
    return result


# ---------------------------------------------------------------------------
# ts_sweep
# ---------------------------------------------------------------------------

def _check_ts_sweep(record: dict, first: dict | None) -> CheckResult:
    """Criterion 8 per group: max|x~| and max|x_r - x| both shrink strictly
    as T_s goes 4 -> 2 -> 1 ms, with a finite state throughout. Repeated
    passes of one run must reproduce the first pass exactly."""
    result = CheckResult()
    for g, runs in enumerate(record["groups"]):
        item = f"group{g}"
        result.attempted += 1
        errors = [r["error"] for r in runs if "error" in r]
        if errors:
            result.fail(item, f"run raised: {errors[0]}")
            continue
        if not all(r["finite"] for r in runs):
            result.fail(item, "final state not finite")
            continue
        for r in runs:
            expected = round(SWEEP_DURATION / r["T_s"])
            if r["rows"] != expected:
                result.fail(item, f"{r['rows']} rows at T_s={r['T_s']}, expected {expected}")
        for key in ("xtilde_max", "ref_err_max"):
            vals = [r[key] for r in runs]
            if not all(map(math.isfinite, vals)) or not all(
                    a > b for a, b in zip(vals, vals[1:])):
                result.fail(item, f"{key} not strictly decreasing with T_s: {vals}")
        if first is not None and first["groups"][g] != runs:
            result.fail(item, "pass differs from the first pass of this run")
    return result


# ---------------------------------------------------------------------------
# design_analysis
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _num(cell: str) -> float:
    match = _NUMPY_REPR.match(cell)
    return float(match.group(1) if match else cell)


def _command_table(run: dict, path: Path, result: CheckResult) -> list[dict]:
    """Rows of the table a command wrote; none if it failed or is unreadable.
    Counts the table's numpy-repr cells into ``result``."""
    if run["exit"] != 0:
        return []
    try:
        rows = read_csv(path)
    except UNREADABLE:
        return []
    result.malformed_cells += sum(
        1 for row in rows for cell in row.values() if _NUMPY_REPR.match(cell))
    return rows


def _root_row_problem(k: int, row: dict, omega: float) -> str | None:
    roots = [complex(_num(row[f"root{j}_re"]), _num(row[f"root{j}_im"])) for j in range(1, 5)]
    if not all(math.isfinite(r.real) and math.isfinite(r.imag) for r in roots):
        return "non-finite root"
    if k == 0 and (_num(row["lambda"]) != 0.0 or any(
            abs(r - complex(-omega, 0.0)) > ROOT_REL * omega for r in roots)):
        return f"lambda=0 roots {roots} are not the 4-fold root -omega"
    return None


def _condition_problem(row: dict, norms: list[float]) -> str | None:
    got = [_num(row[k]) for k in ("norm_G1", "norm_G2", "norm_Gd")]
    if not all(_close(g, r, "rel", NORM_REL) for g, r in zip(got, norms)):
        return f"norms {got} != recorded {norms}"
    margin = _num(row["margin"])
    if math.isnan(margin) or (int(row["satisfied"]) == 1) != (margin > 0.0):
        return f"verdict {row['satisfied']} disagrees with margin {margin}"
    return None


def _check_design(record: dict, out_dir: Path, ref: dict) -> CheckResult:
    result = CheckResult()
    rows = _command_table(record["rootlocus"], out_dir / "rootlocus.csv", result)
    for k in range(ref["rootlocus_points"]):
        result.attempted += 1
        try:
            problem = _root_row_problem(k, rows[k], ref["omega"])
        except UNREADABLE as exc:
            problem = f"root-locus row missing or unreadable ({exc!r}): " \
                      f"{record['rootlocus']['error']}"
        if problem:
            result.fail(f"lambda{k}", problem)

    by_t = {}
    for row in _command_table(record["condition"], out_dir / "condition.csv", result):
        try:
            by_t[_num(row["T"])] = row
        except UNREADABLE:
            continue
    for t_key, norms in ref["norms"].items():
        result.attempted += 1
        try:
            problem = _condition_problem(by_t[float(t_key)], norms)
        except UNREADABLE as exc:
            problem = f"condition row missing or unreadable ({exc!r}): " \
                      f"{record['condition']['error']}"
        if problem:
            result.fail(f"T={t_key}", problem)
    return result
