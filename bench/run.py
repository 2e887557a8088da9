"""Benchmark of the sea-l1ac package: one command, three workloads.

    python3 bench/run.py --workload suites --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` is a separate run that records spans around
each module's entry points and reports the per-layer metrics. Every phase
runs in a process of its own. Human-readable lines come first, then a
``bench-record`` line with everything measured (``compare.py`` reads it),
and last the one-line JSON result. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
PHASE = str(BENCH / "phase.py")

MIN_CYCLES = 2        # measurement cycles per run, however short --seconds is
WARM_PER_CYCLE = 2    # warm passes per cycle, next to one set-up and one cold run
DEADLINE_S = 170.0    # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "cold_wall_s": "s",
    "warm_wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.import_scipy_signal_ms": "ms",
    "config_io.parse_ms": "ms",
    "config_io.files": "count",
    "nominal.build_us": "us",
    "controllers.construct_ms": "ms",
    "controllers.constructs": "count",
    "controllers.l1ac_step_us": "us",
    "controllers.adaptation_us": "us",
    "controllers.filter_us": "us",
    "controllers.predictor_us": "us",
    "controllers.l1ac_self_us": "us",
    "controllers.steps": "count",
    "controllers.rrc_step_us": "us",
    "controllers.dob_us": "us",
    "controllers.dob_calls": "count",
    "controllers.reference_step_us": "us",
    "plant.rk4_us": "us",
    "plant.rk4_calls": "count",
    "harness.run_scenario_ms": "ms",
    "harness.loop_self_ms": "ms",
    "harness.scenarios": "count",
    "harness.diverged": "count",
    "harness.metrics_ms": "ms",
    "traceio.export_ms": "ms",
    "traceio.import_ms": "ms",
    "traceio.bytes_written": "bytes",
    "traceio.rows_written": "count",
    "traceio.outputs_changed": "count",
    "analysis.condition_ms": "ms",
    "analysis.l1_norm_ms": "ms",
    "analysis.l1_norm_calls": "count",
    "analysis.reference_pieces_ms": "ms",
    "analysis.matrix_exponential_calls": "count",
    "analysis.root_locus_ms": "ms",
    "analysis.polynomial_roots_us": "us",
    "cli.command_self_ms": "ms",
    "trace_overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        versions = {name: metadata.version(name) for name in ("numpy", "scipy")}
    except metadata.PackageNotFoundError as exc:
        raise BenchError(f"dependency missing: {exc}") from exc
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "loadavg": list(os.getloadavg()),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Children:
    """Launches phase processes with ``src`` on the path, under one deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root, self.deadline = root, deadline
        self.env = dict(os.environ)
        path = [str(root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)

    def run(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        """Wall time from launch to exit, and the finished process."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0.0:
            raise BenchError("out of time before the run finished")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{args[:2]} did not finish in time") from exc
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{args[:2]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return elapsed, proc


def _import_times(children: Children) -> tuple[float, float]:
    """Cumulative import time [ms] of the package plus its CLI, and of
    scipy.signal within it, from ``-X importtime``."""
    _, proc = children.run("-X", "importtime", "-c", "import sea_l1ac, sea_l1ac.cli")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            try:
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
            except ValueError:
                continue  # the header line
    if "sea_l1ac" not in cumulative:
        raise BenchError("-X importtime did not list sea_l1ac")
    package = cumulative["sea_l1ac"] + cumulative.get("sea_l1ac.cli", 0.0)
    return package, cumulative.get("scipy.signal", 0.0)


class Server:
    """A ``phase.py serve`` process: set up once, one timed pass per request."""

    def __init__(self, children: Children, spec_path: str, trace: bool):
        self.children = children
        self.log = Path(spec_path).with_name("serve.log").open("w", encoding="utf-8")
        cmd = [sys.executable, PHASE, "serve", spec_path] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, cwd=children.root, env=children.env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log)
        self._read()

    def ask(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the exit is reported by _read
        return self._read()

    def _read(self) -> dict:
        remaining = self.children.deadline - time.perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        line = self.proc.stdout.readline() if ready else None
        if not line:
            self.close()
            tail = Path(self.log.name).read_text(encoding="utf-8")[-3000:]
            what = "did not answer in time" if line is None else "exited"
            raise BenchError(f"serve process {what}:\n{tail}")
        return json.loads(line)

    def close(self):
        """Close stdin, give the process a moment to exit, then kill it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=2.0)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def _cycles(start: float, seconds: float, step) -> None:
    """Call ``step()`` at least MIN_CYCLES times, then again while one more
    cycle of average length still ends within ``seconds`` of ``start``."""
    loop_start, done = time.perf_counter(), 0
    while True:
        step()
        done += 1
        now = time.perf_counter()
        if done >= MIN_CYCLES and now - start + (now - loop_start) / done > seconds:
            return


def measure_end_to_end(children: Children, spec_path: str, spec: dict,
                       seconds: float) -> dict:
    """Interleave set-up runs, cold runs and warm passes for ``seconds``, so
    that every metric samples the machine over the whole run."""
    import checks

    reference = checks.load_reference()
    workdir = Path(spec["workdir"])
    setup, cold, warm, cold_checks = [], [], [], []

    def cycle():
        setup.append(children.run(PHASE, "setup", spec_path)[0])
        cold.append(children.run(PHASE, "pass", spec_path)[0])
        record = json.loads((workdir / "record.json").read_text(encoding="utf-8"))
        cold_checks.append(checks.check_pass(spec, record, workdir / "out-cold", reference))
        warm.extend(server.ask("pass")["s"] for _ in range(WARM_PER_CYCLE))

    start = time.perf_counter()
    server = Server(children, spec_path, trace=False)
    try:
        _cycles(start, seconds, cycle)
        final = server.ask("done")
    finally:
        server.close()

    failures = dict(final["failures"])
    for res in cold_checks:
        failures.update(res.failures)
    q1, med, q3 = quartiles(warm)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "cold_wall_s": statistics.median(cold),
            "warm_wall_s": med,
            "peak_rss_mb": final["peak_rss_mb"],
        },
        "attempted": final["attempted"] + sum(r.attempted for r in cold_checks),
        "failed": final["failed"] + sum(len(r.failures) for r in cold_checks),
        "failures": failures,
        "outputs_changed": max([final["outputs_changed"]]
                               + [r.outputs_changed for r in cold_checks]),
        "malformed_cells": max([final["malformed_cells"]]
                               + [r.malformed_cells for r in cold_checks]),
        "detail": {
            "setup_samples_s": setup,
            "cold_samples_s": cold,
            "warm_pass_s": warm,
            "warm_q1_s": q1,
            "warm_q3_s": q3,
        },
    }


def measure_per_layer(children: Children, spec_path: str, seconds: float) -> dict:
    """Alternate untraced and traced passes in one process for ``seconds``,
    with an ``-X importtime`` sample between pairs."""
    imports, plain, traced = [], [], []

    def cycle():
        imports.append(_import_times(children))
        plain.append(server.ask("pass")["s"])
        traced.append(server.ask("traced"))

    start = time.perf_counter()
    server = Server(children, spec_path, trace=True)
    try:
        _cycles(start, seconds, cycle)
        final = server.ask("done")
    finally:
        server.close()

    traced_s = [t["s"] for t in traced]
    metrics = {
        "cli.import_ms": statistics.median(s[0] for s in imports),
        "cli.import_scipy_signal_ms": statistics.median(s[1] for s in imports),
        "config_io.parse_ms": final["parse_ms"],
        "config_io.files": final["parse_files"],
        "traceio.bytes_written": final["bytes_written"],
        "traceio.rows_written": final["rows_written"],
        "traceio.outputs_changed": final["outputs_changed"],
        "trace_overhead_pct":
            100.0 * (statistics.median(traced_s) / statistics.median(plain) - 1.0),
    }
    for name, first in traced[0]["metrics"].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        metrics[name] = median(t["metrics"][name] for t in traced)
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "attempted": final["attempted"],
        "failed": final["failed"],
        "failures": final["failures"],
        "outputs_changed": final["outputs_changed"],
        "malformed_cells": final["malformed_cells"],
        "detail": {
            "layers_ms": {layer: statistics.median(t["layers_ms"][layer] for t in traced)
                          for layer in traced[0]["layers_ms"]},
            "unattributed_ms": statistics.median(t["unattributed_ms"] for t in traced),
            "traced_pass_s": traced_s,
            "untraced_pass_s": plain,
            "spans_file": final["spans_file"],
        },
    }


def _print_report(rec: dict):
    p = print
    m = rec["machine"]
    p(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
      f"seconds {rec['seconds']}")
    p(f"machine  {m['cpus']} cpus, {m['cpu_model']}; python {m['python']}, "
      f"numpy {m['numpy']}, scipy {m['scipy']}; loadavg at start {m['loadavg']}")
    units = PER_LAYER if rec["trace"] else END_TO_END
    d = rec["detail"]
    for name, value in rec["metrics"].items():
        extra = ""
        if name == "warm_wall_s":
            extra = (f"  (q1 {d['warm_q1_s']:.4f}, q3 {d['warm_q3_s']:.4f}, "
                     f"{len(d['warm_pass_s'])} passes)")
        elif name == "setup_s":
            extra = f"  (median of {len(d['setup_samples_s'])} fresh interpreters)"
        elif name == "cold_wall_s":
            extra = f"  (median of {len(d['cold_samples_s'])} fresh processes)"
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        p(f"  {name:36s} {shown} {units[name]}{extra}")
    p(f"  {'failed_frac':36s} {rec['failed_frac']:>14.6g} fraction  "
      f"({rec['failed']} of {rec['attempted']} items failed)")
    if not rec["trace"]:
        p(f"  {'traceio.outputs_changed':36s} {rec['outputs_changed']:>14d} files")
    if rec["malformed_cells"]:
        p(f"  {'malformed_cells':36s} {rec['malformed_cells']:>14d} table cells written "
          "as numpy reprs such as np.float64(...), not plain numbers")
    if rec["trace"]:
        wall = statistics.median(d["traced_pass_s"]) * 1e3
        p(f"self time per traced pass (median {wall:.1f} ms):")
        for layer, ms in d["layers_ms"].items():
            p(f"  {layer:12s} {ms:10.2f} ms {100 * ms / wall:6.1f} %")
        ms = d["unattributed_ms"]
        p(f"  {'unattributed':12s} {ms:10.2f} ms {100 * ms / wall:6.1f} %")
    for item, reason in list(rec["failures"].items())[:10]:
        p(f"FAILED {item}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sea-l1ac benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "sea_l1ac" / "__init__.py").is_file():
        print("bench: run from the root of a sea-l1ac checkout (src/sea_l1ac missing)",
              file=sys.stderr)
        return 2
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        machine = machine_facts()
        spec = inputs.make_inputs(args.workload, args.seed, root, workdir)
        spec_path = str(workdir / "spec.json")
        children = Children(root, deadline)
        if args.trace:
            result = measure_per_layer(children, spec_path, args.seconds)
        else:
            result = measure_end_to_end(children, spec_path, spec, args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "machine": machine, **result}
    if not rec["attempted"]:
        print("bench: no item was attempted", file=sys.stderr)
        return 1
    rec["failed_frac"] = rec["failed"] / rec["attempted"]
    _print_report(rec)
    print("bench-record " + json.dumps(rec))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in rec["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
