"""Command-line entry point.

Subcommands:
    run       execute one scenario file, write trace CSV + plot script, print metrics
    suite     execute a suite manifest, write per-scenario traces + summary
    analyze   rootlocus or design-condition tables
    metrics   recompute metrics from an exported trace

Exit codes: 0 success, 2 configuration error, 3 numeric/simulation error,
4 I/O error. Errors also emit one JSON line on stderr with a machine-readable
category. A suite whose scenarios fail exits with the gravest of their codes,
each classified as the same error in ``run`` would be.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis
from .config_io import (
    condition_job_from_ini,
    finite_float,
    rootlocus_job_from_ini,
    scenario_from_ini,
    suite_from_ini,
)
from .controllers import L1Config
from .harness import (
    ConfigError,
    ScenarioConfig,
    SimulationDivergence,
    SuiteConfig,
    SuiteResult,
    compute_metrics,
    run_suite,
    summary_table,
)
from .traceio import export_plotscript, export_table, export_trace, import_trace

_EXIT_CODES = {"config": 2, "numeric": 3, "io": 4}


def _fail(category: str, detail: str) -> int:
    sys.stderr.write(json.dumps({"error": category, "detail": detail}) + "\n")
    return _EXIT_CODES[category]


def _category(exc: Exception) -> str | None:
    """The error category the CLI reports ``exc`` under; None for any other
    exception, which is a defect and propagates."""
    if isinstance(exc, ConfigError):
        return "config"
    if isinstance(exc, (SimulationDivergence, ArithmeticError, analysis.UnstableSystemError,
                        np.linalg.LinAlgError)):
        return "numeric"
    if isinstance(exc, OSError):
        return "io"
    if isinstance(exc, ValueError):
        return "config"
    return None


@contextlib.contextmanager
def _naming(prefix: str):
    """Put ``prefix`` before the detail of a configuration ValueError; numeric ones pass."""
    try:
        yield
    except ValueError as exc:
        if _category(exc) != "config":
            raise
        raise ValueError(f"{prefix}: {exc}") from None


def _warn_condition(cfg: ScenarioConfig):
    if cfg.controller == "rrc":
        return
    budget = analysis.StabilityBudget.from_envelope(
        cfg.params, [cfg.mass], max_contact_stiffness=cfg.contact_stiffness,
        gravity_comp=cfg.gravity_feedforward)
    report = analysis.check_stability_condition(
        cfg.params, L1Config(T_s=cfg.T_s, T=cfg.T, K_a=cfg.K_a), budget,
        qd_peak=abs(cfg.q_d_amplitude),
    )
    if not report.satisfied:
        sys.stderr.write(
            f"warning: filter design condition violated for {cfg.name!r} "
            f"(margin={report.margin:.3g}); running anyway\n"
        )


def _run_and_export(suite: SuiteConfig, args) -> tuple[SuiteConfig, SuiteResult, Path]:
    """Apply the command-line overrides, warn under --check-condition, run the
    suite, and write ``<name>.csv`` and ``plot_<name>.py`` per finished
    scenario, or ``<name>_partial.csv`` for one that diverged."""
    overrides = {"T_s": args.ts, "T": args.t_filter, "K_a": args.ka, "decimate": args.decimate}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    suite = SuiteConfig(name=suite.name,
                        scenarios=tuple(s.with_overrides(**overrides) for s in suite.scenarios))
    if args.check_condition:
        for scen in suite.scenarios:
            _warn_condition(scen)
    out_dir = Path(args.out_dir)
    result = run_suite(suite)
    for name in (scen.name for scen in suite.scenarios):
        if name in result.traces:
            export_trace(result.traces[name], out_dir / f"{name}.csv")
            export_plotscript(f"{name}.csv", out_dir / f"plot_{name}.py")
        exc = result.errors.get(name)
        if isinstance(exc, SimulationDivergence) and exc.partial_trace is not None:
            export_trace(exc.partial_trace, out_dir / f"{name}_partial.csv")
    return suite, result, out_dir


def _cmd_run(args) -> int:
    cfg = scenario_from_ini(args.scenario)
    _, result, out_dir = _run_and_export(SuiteConfig(name=cfg.name, scenarios=(cfg,)), args)
    if not result.ok:
        raise result.errors[cfg.name]
    print(f"trace: {out_dir / f'{cfg.name}.csv'}")
    print(json.dumps(asdict(result.metrics[cfg.name])))
    return 0


def _cmd_suite(args) -> int:
    suite, result, out_dir = _run_and_export(suite_from_ini(args.manifest), args)
    path = export_table(summary_table(suite, result), out_dir / f"{suite.name}_summary.csv")
    sys.stdout.write(path.read_text(encoding="utf-8"))
    if not result.ok:
        failed = ", ".join(sorted(result.errors))
        # run_suite isolates any exception; one without a category counts as numeric
        categories = (_category(exc) or "numeric" for exc in result.errors.values())
        return _fail(max(categories, key=_EXIT_CODES.get), f"scenarios failed: {failed}")
    return 0


def _cmd_analyze(args) -> int:
    if args.what == "rootlocus":
        job = rootlocus_job_from_ini(args.config)
        with _naming(args.config):  # a lambda the contact polynomial cannot take
            rows = analysis.root_locus(job["params"].omega, job["lambdas"]).csv_rows()
    else:
        job = condition_job_from_ini(args.config)
        rows = [[
            "T_s", "T", "K_a", "satisfied", "margin", "lhs", "rhs_best", "rho_best",
            "norm_G1", "norm_G2", "norm_Gd", "reason",
        ]]
        for cfg in job["configs"]:
            with _naming(f"{args.config}: T = {cfg.T}"):  # a row too stiff to certify
                rep = analysis.check_stability_condition(job["params"], cfg, job["budget"],
                                                         qd_peak=job["qd_peak"])
            rows.append([
                cfg.T_s, cfg.T, cfg.K_a, int(rep.satisfied), rep.margin, rep.lhs,
                rep.rhs_best, rep.rho_best, rep.norm_g1, rep.norm_g2, rep.norm_gd,
                rep.reason,
            ])
    path = export_table(rows, Path(args.out_dir) / f"{args.what}.csv")
    if args.what == "condition":
        sys.stdout.write(path.read_text(encoding="utf-8"))
    print(f"{args.what} table: {path}")
    return 0


def _cmd_metrics(args) -> int:
    trace = import_trace(args.trace)
    with _naming(args.trace):
        report = compute_metrics(trace)
    print(json.dumps(asdict(report)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, such as a non-finite --ts, as a ConfigError."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared by every
    later one in the process: parsing leaves no state in it, and building it
    costs about 1 ms, which a process that runs many commands pays once."""
    parser = _Parser(
        prog="sea-l1ac",
        description="Elastic-joint position control simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out-dir", default="results", help="output directory")
        p.add_argument("--decimate", type=int, default=None,
                       help="record every Nth controller step")
        p.add_argument("--ts", type=finite_float, default=None, help="override sample period T_s")
        p.add_argument("--t-filter", type=finite_float, default=None,
                       help="override filter time constant T")
        p.add_argument("--ka", type=finite_float, default=None, help="override filter gain K_a")
        p.add_argument("--check-condition", action="store_true",
                       help="evaluate the filter design condition first (warn only)")

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a suite manifest")
    p_suite.add_argument("manifest")
    add_common(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_an = sub.add_parser("analyze", help="design analysis tables")
    p_an.add_argument("what", choices=["rootlocus", "condition"])
    p_an.add_argument("config")
    p_an.add_argument("--out-dir", default="results")
    p_an.set_defaults(func=_cmd_analyze)

    p_met = sub.add_parser("metrics", help="metrics from an exported trace")
    p_met.add_argument("trace")
    p_met.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - re-raised below unless categorized
        category = _category(exc)
        if category is None:
            raise
        return _fail(category, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
