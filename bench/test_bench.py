"""Tests of the benchmark itself: seeded inputs, output checks, tracing,
the compare command, and refusal to run outside a checkout.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec(workload, seed, tmp_path):
    return inputs.make_inputs(workload, seed, ROOT, tmp_path / f"{workload}-{seed}")


def _files(spec):
    inputs_dir = Path(spec["workdir"]) / "inputs"
    return {p.name: p.read_bytes() for p in sorted(inputs_dir.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a = _spec(workload, 3, tmp_path / "a")
    b = _spec(workload, 3, tmp_path / "b")
    assert _files(a) == _files(b)


def test_seed_moves_inputs_but_not_the_work(tmp_path):
    a = _spec("ts_sweep", 1, tmp_path)
    b = _spec("ts_sweep", 2, tmp_path)
    assert [g["mass"] for g in a["groups"]] != [g["mass"] for g in b["groups"]]
    for spec in (a, b):
        kinds = sorted(g["kind"] for g in spec["groups"])
        assert kinds == sorted(inputs.SWEEP_KINDS * inputs.SWEEP_GROUPS_PER_KIND)
    c = _spec("design_analysis", 1, tmp_path)
    d = _spec("design_analysis", 2, tmp_path)
    assert (c["masses"], c["max_contact_stiffness"]) != (d["masses"], d["max_contact_stiffness"])


@pytest.fixture(scope="module")
def suites_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("suites")
    spec = inputs.make_inputs("suites", 1, ROOT, tmp / "work")
    out = tmp / "out"
    record = workloads.run_pass(spec, workloads.setup(spec), out)
    return spec, record, out


def test_suites_outputs_match_reference(suites_run):
    spec, record, out = suites_run
    res = checks.check_pass(spec, record, out, checks.load_reference())
    assert res.failures == {}
    assert res.attempted == 12
    assert res.outputs_changed == 0


def test_tampered_trace_is_caught(suites_run, tmp_path):
    spec, record, out = suites_run
    tampered = tmp_path / "out"
    shutil.copytree(out, tampered)
    path = tampered / "load_step_l1ac_m2250.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1500].split(",")
    cells[1] = repr(float(cells[1]) + 0.01)  # q_rad, mid-trace
    lines[1500] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")

    res = checks.check_pass(spec, record, tampered, checks.load_reference())
    assert list(res.failures) == ["load_step_l1ac_m2250"]
    assert "q_rad" in res.failures["load_step_l1ac_m2250"]
    assert res.outputs_changed == 1


def test_failed_suite_command_fails_its_scenarios(suites_run):
    spec, record, out = suites_run
    broken = json.loads(json.dumps(record))
    broken["suite"]["collision_suite.ini"]["exit"] = 3
    res = checks.check_pass(spec, broken, out, checks.load_reference())
    assert sorted(res.failures) == sorted(
        n for n, s in checks.load_reference()["suites"]["scenarios"].items()
        if s["suite"] == "collision")


def test_design_checks_catch_wrong_norm_and_root(tmp_path):
    spec = _spec("design_analysis", 4, tmp_path)
    out = tmp_path / "out"
    record = workloads.run_pass(spec, workloads.setup(spec), out)
    ref = checks.load_reference()
    assert checks.check_pass(spec, record, out, ref).failures == {}

    cond = out / "condition.csv"
    text = cond.read_text(encoding="utf-8")
    g1 = checks.read_csv(cond)[0]["norm_G1"]
    cond.write_text(text.replace(g1, repr(float(g1) * 1.001), 1), encoding="utf-8")
    locus = out / "rootlocus.csv"
    lines = locus.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[1] = "-19.0"  # root1_re of the lambda = 0 row
    lines[1] = ",".join(cells)
    locus.write_text("".join(lines), encoding="utf-8")

    failures = checks.check_pass(spec, record, out, ref).failures
    assert set(failures) == {"T=0.005", "lambda0"}


def _sweep_record(xtilde, ref_err):
    runs = [{"T_s": t, "rows": round(inputs.SWEEP_DURATION / t), "xtilde_max": x,
             "ref_err_max": r, "final": [0.0] * 4, "finite": True}
            for (t, _), x, r in zip(inputs.SWEEP_PERIODS, xtilde, ref_err)]
    return {"groups": [runs]}


def test_ts_sweep_check_needs_the_monotone_trend():
    spec = {"workload": "ts_sweep"}
    good = _sweep_record([3.0, 2.0, 1.0], [0.3, 0.2, 0.1])
    assert checks.check_pass(spec, good, Path(), {}, good).failures == {}
    flat = _sweep_record([3.0, 2.0, 2.0], [0.3, 0.2, 0.1])
    assert "xtilde_max" in checks.check_pass(spec, flat, Path(), {}).failures["group0"]
    other = _sweep_record([3.0, 2.0, 0.5], [0.3, 0.2, 0.1])
    assert "first pass" in checks.check_pass(spec, other, Path(), {}, good).failures["group0"]


def test_self_time_excludes_children():
    # parent 0..100 with children 10..30 and 40..90, the latter holding 50..60
    spans = [("cli.command", 0, 100, -1, None, None),
             ("harness.run_scenario", 10, 30, 0, None, None),
             ("harness.run_scenario", 40, 90, 0, None, "SimulationDivergence"),
             ("plant.rk4", 50, 60, 2, None, None)]
    stats, roots_ns = tracing.aggregate(spans)
    assert stats["cli.command"].self_ns == 30
    assert stats["harness.run_scenario"].self_ns == 20 + 40
    assert stats["harness.run_scenario"].calls == 2
    assert roots_ns == 100 == sum(tracing.layer_self_ns(stats).values())
    assert tracing.pass_metrics(stats)["harness.diverged"] == 1


def test_tracer_wraps_imported_names_and_restores_them():
    import sea_l1ac.harness as harness
    import sea_l1ac.plant as plant

    orig = plant._rk4_tuple
    assert harness._rk4_tuple is orig
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness._rk4_tuple is not orig and plant._rk4_tuple is harness._rk4_tuple
        cfg = harness.ScenarioConfig(name="t", controller="l1ac", duration=0.01)
        harness.run_scenario(cfg)
    finally:
        tracer.uninstall()
    assert harness._rk4_tuple is orig
    spans = tracer.take()
    stats, _ = tracing.aggregate(spans)
    assert stats["plant.rk4"].calls == 10
    assert stats["controllers.l1ac_step"].calls == 10
    assert {s[4] for s in spans} == {"t"}


def test_benchmark_json_matches_the_metrics_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)


def _record_file(path, workload, value):
    rec = {"workload": workload, "trace": 0, "metrics": {"warm_wall_s": value}}
    path.write_text("noise\nbench-record " + json.dumps(rec) + "\n{}\n", encoding="utf-8")


def test_compare_flags_a_regression(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    for name, values in (("a", [1.0, 1.01, 0.99, 1.0]), ("b", [1.5, 1.49, 1.51, 1.5])):
        (tmp_path / name).mkdir()
        for i, v in enumerate(values):
            _record_file(tmp_path / name / f"{i}.txt", "suites", v)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "WORSE" in capsys.readouterr().out


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
