"""Spans around the calls into each package module, recorded from outside.

``Tracer.install`` replaces each entry point listed in ``TARGETS`` with a
wrapper, in every ``sea_l1ac`` namespace that holds the same function
object, so a name imported into another module (the plant's RK4 step as
``harness`` sees it) is traced where it is called. ``uninstall`` puts the
originals back. Spans live in memory as tuples
``(name, start_ns, end_ns, parent_index, item, error)``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, attribute). The layer is the part of the
# span name before the first dot.
TARGETS = (
    ("config_io.parse", "config_io", "scenario_from_ini"),
    ("config_io.parse", "config_io", "suite_from_ini"),
    ("config_io.parse", "config_io", "rootlocus_job_from_ini"),
    ("config_io.parse", "config_io", "condition_job_from_ini"),
    ("nominal.build", "nominal", "build_rrc_gains"),
    ("nominal.build", "nominal", "build_nominal_model"),
    ("controllers.construct", "controllers", "DisturbanceObserver.__init__"),
    ("controllers.construct", "controllers", "RrcController.__init__"),
    ("controllers.construct", "controllers", "L1Controller.__init__"),
    ("controllers.construct", "controllers", "ReferenceSystem.__init__"),
    ("controllers.dob", "controllers", "DisturbanceObserver.estimate"),
    ("controllers.dob", "controllers", "DisturbanceObserver.advance"),
    ("controllers.rrc_step", "controllers", "RrcController.step"),
    ("controllers.l1ac_step", "controllers", "L1Controller.step"),
    ("controllers.adaptation", "controllers", "L1Controller.adaptation_update"),
    ("controllers.filter", "controllers", "L1Controller.l1_control_update"),
    ("controllers.predictor", "controllers", "L1Controller.predictor_step"),
    ("controllers.reference_step", "controllers", "ReferenceSystem.step"),
    ("plant.rk4", "plant", "_rk4_tuple"),
    ("harness.run_scenario", "harness", "run_scenario"),
    ("harness.metrics", "harness", "compute_metrics"),
    ("harness.run_suite", "harness", "run_suite"),
    ("traceio.export", "traceio", "export_trace"),
    ("traceio.export", "traceio", "export_plotscript"),
    ("traceio.export", "traceio", "export_table"),
    ("traceio.import", "traceio", "import_trace"),
    ("analysis.condition", "analysis", "check_stability_condition"),
    ("analysis.reference_pieces", "analysis", "reference_loop_pieces"),
    ("analysis.l1_norm", "analysis", "l1_norm"),
    ("analysis.matrix_exponential", "analysis", "matrix_exponential"),
    ("analysis.root_locus", "analysis", "root_locus"),
    ("analysis.polynomial_roots", "analysis", "polynomial_roots"),
    ("cli.command", "cli", "main"),
)

LAYERS = ("config_io", "nominal", "controllers", "plant", "harness", "traceio",
          "analysis", "cli")

PACKAGE = "sea_l1ac"


class Tracer:
    """Records nested spans of the wrapped entry points while installed."""

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, item_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_item = tracer.item
            if item_of is not None:
                tracer.item = item_of(args)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.item, error)
                tracer.item = outer_item

        return wrapper

    def install(self):
        """Wrap every target; ``uninstall`` before installing again."""
        modules = {k: m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for name, module, attr in TARGETS:
            owner = modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            item_of = (lambda args: args[0].name) if name == "harness.run_scenario" else None
            wrapper = self._wrap(name, orig, item_of)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: dict = field(default_factory=dict)


def aggregate(spans: list) -> tuple[dict, int]:
    """Per span name: calls, inclusive and self time, error counts.

    Self time is a span's duration minus the time its direct children
    cover. Also returns the summed duration of the root spans, which equals
    the sum of all self times.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _item, _err in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, SpanStats] = {}
    roots_ns = 0
    for i, (name, start, end, parent, _item, err) in enumerate(spans):
        s = stats.setdefault(name, SpanStats())
        dur = end - start
        s.calls += 1
        s.total_ns += dur
        s.self_ns += dur - child_ns[i]
        if err:
            s.errors[err] = s.errors.get(err, 0) + 1
        if parent < 0:
            roots_ns += dur
    return stats, roots_ns


def layer_self_ns(stats: dict) -> dict:
    out = dict.fromkeys(LAYERS, 0)
    for name, s in stats.items():
        out[name.split(".")[0]] += s.self_ns
    return out


def _ms(stats, name, attr="total_ns") -> float:
    return getattr(stats[name], attr) / 1e6 if name in stats else 0.0


def _us_per_call(stats, name, attr="total_ns") -> float:
    s = stats.get(name)
    return getattr(s, attr) / s.calls / 1e3 if s and s.calls else 0.0


def _calls(stats, name) -> int:
    return stats[name].calls if name in stats else 0


def pass_metrics(stats: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``*_ms`` is time summed over the pass, ``*_us`` the mean per call, and
    the remaining names count calls. Inclusive unless named ``self``.
    """
    run = stats.get("harness.run_scenario")
    return {
        "nominal.build_us": _us_per_call(stats, "nominal.build"),
        "controllers.construct_ms": _ms(stats, "controllers.construct"),
        "controllers.constructs": _calls(stats, "controllers.construct"),
        "controllers.l1ac_step_us": _us_per_call(stats, "controllers.l1ac_step"),
        "controllers.adaptation_us": _us_per_call(stats, "controllers.adaptation"),
        "controllers.filter_us": _us_per_call(stats, "controllers.filter"),
        "controllers.predictor_us": _us_per_call(stats, "controllers.predictor"),
        "controllers.l1ac_self_us": _us_per_call(stats, "controllers.l1ac_step", "self_ns"),
        "controllers.steps": _calls(stats, "controllers.l1ac_step"),
        "controllers.rrc_step_us": _us_per_call(stats, "controllers.rrc_step"),
        "controllers.dob_us": _us_per_call(stats, "controllers.dob"),
        "controllers.dob_calls": _calls(stats, "controllers.dob"),
        "controllers.reference_step_us": _us_per_call(stats, "controllers.reference_step"),
        "plant.rk4_us": _us_per_call(stats, "plant.rk4"),
        "plant.rk4_calls": _calls(stats, "plant.rk4"),
        "harness.run_scenario_ms": _ms(stats, "harness.run_scenario"),
        "harness.loop_self_ms": _ms(stats, "harness.run_scenario", "self_ns"),
        "harness.scenarios": _calls(stats, "harness.run_scenario"),
        "harness.diverged": run.errors.get("SimulationDivergence", 0) if run else 0,
        "harness.metrics_ms": _ms(stats, "harness.metrics"),
        "traceio.export_ms": _ms(stats, "traceio.export"),
        "traceio.import_ms": _ms(stats, "traceio.import"),
        "analysis.condition_ms": _ms(stats, "analysis.condition"),
        "analysis.l1_norm_ms": _ms(stats, "analysis.l1_norm"),
        "analysis.l1_norm_calls": _calls(stats, "analysis.l1_norm"),
        "analysis.reference_pieces_ms": _ms(stats, "analysis.reference_pieces"),
        "analysis.matrix_exponential_calls": _calls(stats, "analysis.matrix_exponential"),
        "analysis.root_locus_ms": _ms(stats, "analysis.root_locus"),
        "analysis.polynomial_roots_us": _us_per_call(stats, "analysis.polynomial_roots"),
        "cli.command_self_ms": _ms(stats, "cli.command", "self_ns"),
    }


def write_spans(spans: list, path):
    """Gzipped CSV, one row per span; times in ns from the first span."""
    t0 = spans[0][1] if spans else 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("index,name,start_ns,end_ns,parent,item,error\n")
        for i, (name, start, end, parent, item, err) in enumerate(spans):
            fh.write(f"{i},{name},{start - t0},{end - t0},{parent},{item or ''},{err or ''}\n")
