"""Seeded input generation for the benchmark workloads.

Everything the package is given comes from files written here, so the same
seed always hands the package the same bytes. This module uses only the
standard library: the orchestrator imports it without paying for numpy or
the package itself.
"""

from __future__ import annotations

import configparser
import json
import math
import random
import shutil
from pathlib import Path

WORKLOADS = ("suites", "ts_sweep", "design_analysis")

SHIPPED_MANIFESTS = ("load_variation_suite.ini", "collision_suite.ini")

# ts_sweep: the criterion-8 ladder, coarsest period first. Every pass holds
# the same number of groups of each controller kind, so the work per pass
# does not depend on the seed.
SWEEP_PERIODS = ((0.004, 4), (0.002, 2), (0.001, 1))
SWEEP_DURATION = 2.5
SWEEP_KINDS = ("l1ac", "l1ac-nogc")
SWEEP_GROUPS_PER_KIND = 3
SWEEP_MASS_RANGE = (0.5, 2.5)

# design_analysis: the shipped design points; the seed only moves the
# disturbance envelope, which changes verdicts and margins but not the work.
DESIGN_TIME_CONSTANTS = (0.005, 0.01, 0.02)
DESIGN_FILTER_GAIN = 10.0
DESIGN_SAMPLE_PERIOD = 0.001
DESIGN_MASSES = 3
DESIGN_MASS_RANGE = (0.5, 2.5)
DESIGN_STIFFNESS_RANGE = (0.0, 1000.0)
ROOTLOCUS = {"lambda_min": 0.01, "lambda_max": 10000.0, "points": 61}


def make_inputs(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's input files under ``workdir``; return its spec.

    The spec is plain JSON: it names every input file and the values drawn
    from the seed, and is handed to every phase process unchanged.
    """
    rng = random.Random(f"{workload}:{seed}")
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "workdir": str(workdir)}
    if workload == "suites":
        spec.update(_suites(rng, root / "configs", inputs))
    elif workload == "ts_sweep":
        spec.update(_ts_sweep(rng, inputs))
    elif workload == "design_analysis":
        spec.update(_design_analysis(rng, inputs))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "spec.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return spec


def _suites(rng: random.Random, configs: Path, inputs: Path) -> dict:
    manifests = []
    for name in SHIPPED_MANIFESTS:
        src = configs / name
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not parser.read(src):
            raise FileNotFoundError(f"shipped manifest missing: {src}")
        shutil.copyfile(src, inputs / name)
        for entry in parser.get("suite", "scenarios").replace(",", "\n").split():
            shutil.copyfile(configs / entry, inputs / entry)
        manifests.append(str(inputs / name))
    # The inputs are the shipped suites, byte for byte; the seed only
    # orders the calls, so the outputs can be checked against digests.
    rng.shuffle(manifests)
    return {"manifests": manifests, "metrics_order_seed": rng.randrange(2**31)}


def _draw(rng: random.Random, lo_hi: tuple[float, float], digits: int = 3) -> float:
    return round(rng.uniform(*lo_hi), digits)


def _ts_sweep(rng: random.Random, inputs: Path) -> dict:
    kinds = [k for k in SWEEP_KINDS for _ in range(SWEEP_GROUPS_PER_KIND)]
    rng.shuffle(kinds)
    groups = []
    for g, kind in enumerate(kinds):
        mass = _draw(rng, SWEEP_MASS_RANGE)
        files = []
        for t_s, substeps in SWEEP_PERIODS:
            name = f"sweep_g{g}_{kind}_ts{round(t_s * 1e3)}ms"
            path = inputs / f"{name}.ini"
            path.write_text(
                f"[scenario]\nname = {name}\ncontroller = {kind}\n"
                f"duration = {SWEEP_DURATION!r}\nmass = {mass!r}\ngravity = on\n\n"
                f"[target]\namplitude = {math.pi / 2!r}\nstart = 0.0\n\n"
                f"[tuning]\nsample_period = {t_s!r}\nsubsteps = {substeps}\n",
                encoding="utf-8",
            )
            files.append(str(path))
        groups.append({"kind": kind, "mass": mass, "files": files})
    return {"groups": groups}


def _design_analysis(rng: random.Random, inputs: Path) -> dict:
    masses = sorted(_draw(rng, DESIGN_MASS_RANGE) for _ in range(DESIGN_MASSES))
    stiffness = _draw(rng, DESIGN_STIFFNESS_RANGE, 1)
    path = inputs / "analysis.ini"
    path.write_text(
        "[rootlocus]\n"
        f"lambda_min = {ROOTLOCUS['lambda_min']!r}\n"
        f"lambda_max = {ROOTLOCUS['lambda_max']!r}\n"
        f"points = {ROOTLOCUS['points']}\nlog_scale = yes\ninclude_zero = yes\n\n"
        "[condition]\n"
        f"filter_time_constants = {', '.join(map(repr, DESIGN_TIME_CONSTANTS))}\n"
        f"filter_gain = {DESIGN_FILTER_GAIN!r}\n"
        f"sample_period = {DESIGN_SAMPLE_PERIOD!r}\n"
        f"qd_peak = {math.pi / 2!r}\n"
        f"masses = {', '.join(map(repr, masses))}\n"
        f"max_contact_stiffness = {stiffness!r}\n"
        "gravity_comp = on\n",
        encoding="utf-8",
    )
    return {"ini": str(path), "masses": masses, "max_contact_stiffness": stiffness}
