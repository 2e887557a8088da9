"""One measurement phase of a workload, run in a process of its own.

    python3 bench/phase.py setup SPEC
    python3 bench/phase.py pass  SPEC
    python3 bench/phase.py serve SPEC [--trace]

``setup`` imports the package and parses the inputs, nothing else.
``pass`` adds one pass and leaves its record next to the spec for the
orchestrator to check. ``serve`` sets up once, runs one untimed warm-up
pass, then answers commands read from stdin, one per line: ``pass`` runs a
timed pass, ``traced`` a timed pass with spans recorded, ``done`` ends with
a summary. Every answer is one line of JSON on stdout; anything else the
process prints goes to stderr. ``run.py`` launches these; it is the
command to use.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads


def _fresh(out_dir: Path) -> Path:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    return out_dir


def _timed_pass(spec, state, out_dir, tracer=None) -> tuple[float, dict]:
    _fresh(out_dir)
    start = time.perf_counter()
    record = workloads.run_pass(spec, state, out_dir, tracer)
    return time.perf_counter() - start, record


class _Tally:
    """Items attempted and failed over the passes of one process."""

    def __init__(self, spec, out_dir):
        import checks  # not at module level: set-up timing must not pay for it

        self._check = checks.check_pass
        self.spec, self.out_dir = spec, out_dir
        self.reference = checks.load_reference()
        self.first = None
        self.attempted = self.failed = self.outputs_changed = self.malformed_cells = 0
        self.reasons: dict = {}

    def add(self, record: dict):
        res = self._check(self.spec, record, self.out_dir, self.reference, self.first)
        self.first = self.first or record
        self.attempted += res.attempted
        self.failed += len(res.failures)
        self.outputs_changed = max(self.outputs_changed, res.outputs_changed)
        self.malformed_cells = max(self.malformed_cells, res.malformed_cells)
        for item, reason in res.failures.items():
            self.reasons.setdefault(item, reason)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.reasons, "outputs_changed": self.outputs_changed,
                "malformed_cells": self.malformed_cells}


def _output_counts(out_dir: Path) -> tuple[int, int]:
    """Bytes in every file written, and data rows in every CSV written."""
    nbytes = rows = 0
    for path in out_dir.iterdir():
        nbytes += path.stat().st_size
        if path.suffix == ".csv":
            lines = path.read_text(encoding="utf-8").splitlines()
            rows += sum(1 for line in lines if line and not line.startswith("#")) - 1
    return nbytes, rows


def serve(spec: dict, trace: bool) -> int:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def reply(obj: dict):
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    tracer = None
    workloads.import_package()
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    state = workloads.parse_inputs(spec)
    parse = {"calls": 0, "self_ns": 0}
    if tracer:
        tracer.uninstall()
        stats, _ = tracing.aggregate(tracer.take())
        if "config_io.parse" in stats:
            parse = {"calls": stats["config_io.parse"].calls,
                     "self_ns": stats["config_io.parse"].self_ns}

    out_dir = Path(spec["workdir"]) / "out"
    tally = _Tally(spec, out_dir)
    tally.add(_timed_pass(spec, state, out_dir)[1])  # warm-up: checked, not timed
    reply({"ready": True})
    last_spans = []
    for line in sys.stdin:
        command = line.strip()
        if command == "pass":
            elapsed, record = _timed_pass(spec, state, out_dir)
            tally.add(record)
            reply({"s": elapsed})
        elif command == "traced" and tracer:
            tracer.install()
            try:
                elapsed, record = _timed_pass(spec, state, out_dir, tracer)
            finally:
                tracer.uninstall()
            tally.add(record)
            last_spans = tracer.take()
            stats, roots_ns = tracing.aggregate(last_spans)
            reply({
                "s": elapsed,
                "metrics": tracing.pass_metrics(stats),
                "layers_ms": {k: v / 1e6 for k, v in tracing.layer_self_ns(stats).items()},
                "unattributed_ms": elapsed * 1e3 - roots_ns / 1e6,
            })
        elif command == "done":
            break
        else:
            raise SystemExit(f"unknown command {command!r}")

    nbytes, rows = _output_counts(out_dir)
    spans_file = None
    if last_spans:
        spans_file = Path(spec["workdir"]).parent / (
            f"{spec['workload']}-seed{spec['seed']}-spans.csv.gz")
        tracing.write_spans(last_spans, spans_file)
    reply({
        **tally.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "parse_ms": parse["self_ns"] / 1e6,
        "parse_files": parse["calls"],
        "bytes_written": nbytes,
        "rows_written": rows,
        "spans_file": str(spans_file) if spans_file else None,
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "pass", "serve"])
    parser.add_argument("spec", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    if args.mode == "setup":
        workloads.setup(spec)
        return 0
    if args.mode == "pass":
        out_dir = _fresh(Path(spec["workdir"]) / "out-cold")
        record = workloads.run_pass(spec, workloads.setup(spec), out_dir)
        (Path(spec["workdir"]) / "record.json").write_text(json.dumps(record))
        return 0
    return serve(spec, args.trace)


if __name__ == "__main__":
    sys.exit(main())
