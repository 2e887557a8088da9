import ast
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sea_l1ac
from sea_l1ac import (
    ConfigError,
    DisturbanceObserver,
    EnvironmentModel,
    L1Config,
    L1Controller,
    PlantParams,
    RrcController,
    RunTrace,
    ScenarioConfig,
    SimulationDivergence,
    StabilityBudget,
    SuiteConfig,
    analytic_nominal_response,
    benchmark_params,
    compute_metrics,
    export_plotscript,
    export_trace,
    import_trace,
    run_scenario,
    run_suite,
    summary_table,
)
from sea_l1ac import traceio
from sea_l1ac.cli import main
from sea_l1ac.config_io import scenario_from_ini
from sea_l1ac.harness import STATE_BOUND, TRACE_COLUMNS, _columns, _rise_delay
from sea_l1ac.traceio import _BLOCK_ROWS, _READ_CHARS, _meta_line, _parse_lines


def _quick(name="quick", **kw):
    defaults = dict(controller="l1ac", duration=0.5, mass=1.5)
    defaults.update(kw)
    return ScenarioConfig(name=name, **defaults)


def _trace_from_q(t, q, meta):
    cols = {name: np.zeros(len(t)) for name in TRACE_COLUMNS}
    cols["t_s"] = np.asarray(t, dtype=float)
    cols["q_rad"] = np.asarray(q, dtype=float)
    return RunTrace(columns=cols, meta=meta)


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_controller():
    with pytest.raises(ConfigError):
        ScenarioConfig(controller="pid")


def test_config_rejects_bad_duration():
    with pytest.raises(ConfigError):
        ScenarioConfig(duration=0.0)


@pytest.mark.parametrize("factory, kwargs", [
    (L1Config, {"T_s": math.nan}),
    (L1Config, {"T_s": math.inf}),
    (L1Config, {"T": math.nan}),
    (L1Config, {"T": math.inf}),
    (L1Config, {"K_a": math.nan}),
    (L1Config, {"K_a": math.inf}),
    (ScenarioConfig, {"duration": math.nan}),
    (ScenarioConfig, {"duration": math.inf}),
    (ScenarioConfig, {"T_s": math.nan}),
    (ScenarioConfig, {"substeps": math.nan}),
    (ScenarioConfig, {"decimate": math.inf}),
    (ScenarioConfig, {"mass": math.nan}),
    (ScenarioConfig, {"mass": math.inf}),
    (ScenarioConfig, {"torque_limit": math.nan}),
    (ScenarioConfig, {"torque_limit": math.inf}),
], ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(f"{k}={x}" for k, x in v.items()))
def test_config_dataclasses_reject_nonfinite(factory, kwargs):
    with pytest.raises(ValueError, match="must"):
        factory(**kwargs)


def _plant(**kwargs):
    return replace(benchmark_params(), **kwargs)


def _observer(g_ob=500.0, dt=1e-3):
    return DisturbanceObserver(g_ob, benchmark_params(), dt)


def _rrc(**kwargs):
    return RrcController(benchmark_params(), **kwargs)


def _l1(**kwargs):
    return L1Controller(benchmark_params(), L1Config(), **kwargs)


@pytest.mark.parametrize("factory, kwargs, error", [
    (ScenarioConfig, {"q_d_amplitude": math.nan}, ConfigError),
    (ScenarioConfig, {"q_d_amplitude": math.inf}, ConfigError),
    (ScenarioConfig, {"q_d_start": math.nan}, ConfigError),
    (ScenarioConfig, {"q_d_start": -math.inf}, ConfigError),
    (ScenarioConfig, {"contact_position": math.inf}, ConfigError),
    (ScenarioConfig, {"contact_position": math.nan}, ConfigError),
    (ScenarioConfig, {"contact_stiffness": -5.0}, ConfigError),
    (ScenarioConfig, {"contact_stiffness": math.nan}, ConfigError),
    (ScenarioConfig, {"contact_stiffness": math.inf}, ConfigError),
    (ScenarioConfig, {"decimate": 1.5}, ConfigError),
    (ScenarioConfig, {"substeps": 1.5}, ConfigError),
    (ScenarioConfig, {"substeps": 2.0}, ConfigError),
    (ScenarioConfig, {"substeps": True}, ConfigError),
    (ScenarioConfig, {"decimate": True}, ConfigError),
    (ScenarioConfig, {"gravity_on": "off"}, ConfigError),
    (ScenarioConfig, {"ideal_dob": 1}, ConfigError),
    (ScenarioConfig, {"bilateral_contact": "no"}, ConfigError),
    (ScenarioConfig, {"track_reference": None}, ConfigError),
    (ScenarioConfig, {"name": "../escaped"}, ConfigError),
    (ScenarioConfig, {"name": "a/b"}, ConfigError),
    (ScenarioConfig, {"name": "a\\b"}, ConfigError),
    (ScenarioConfig, {"name": ""}, ConfigError),
    (ScenarioConfig, {"name": "."}, ConfigError),
    (ScenarioConfig, {"name": ".."}, ConfigError),
    (ScenarioConfig, {"name": 7}, ConfigError),
    (ScenarioConfig, {"controller": None}, ConfigError),
    (ScenarioConfig, {"controller": 3}, ConfigError),
    (ScenarioConfig, {"duration": 4e-4}, ConfigError),  # rounds to 0 steps of T_s = 1 ms
    (ScenarioConfig, {"duration": 0.01, "T_s": 0.02}, ConfigError),  # 0.5 rounds to 0
    (ScenarioConfig, {"mass": "1.5"}, ConfigError),
    (ScenarioConfig, {"mass": -1.0}, ConfigError),
    (ScenarioConfig, {"params": None}, ConfigError),
    (ScenarioConfig, {"duration": True}, ConfigError),
    (SuiteConfig, {"name": "../escaped", "scenarios": ()}, ConfigError),
    (EnvironmentModel, {"K_e": math.nan}, ValueError),
    (EnvironmentModel, {"K_e": math.inf}, ValueError),
    (EnvironmentModel, {"q_0": math.inf}, ValueError),
    (EnvironmentModel, {"q_0": math.nan}, ValueError),
    (_observer, {"g_ob": math.nan}, ValueError),
    (_observer, {"g_ob": math.inf}, ValueError),
    (_observer, {"g_ob": -math.inf}, ValueError),
    (_observer, {"g_ob": 0.0}, ValueError),
    (_observer, {"g_ob": -500.0}, ValueError),
    (_observer, {"g_ob": 50.0}, ValueError),
    (_observer, {"dt": math.nan}, ValueError),
    (_observer, {"dt": math.inf}, ValueError),
    (EnvironmentModel, {"K_e": 100.0, "bilateral": "no"}, ValueError),
    (_rrc, {"gravity_comp": "off"}, ValueError),
    (_rrc, {"torque_limit": math.nan}, ValueError),
    (_rrc, {"torque_limit": -5.0}, ValueError),
    (_l1, {"gravity_comp": "off"}, ValueError),
    (_l1, {"torque_limit": math.nan}, ValueError),
    (_l1, {"torque_limit": -5.0}, ValueError),
    (StabilityBudget, {"L_2": math.nan, "B_2": 1.0}, ValueError),
    (StabilityBudget, {"B_2": math.inf}, ValueError),
    (_plant, {"f_m": math.nan}, ValueError),
    (_plant, {"G_0": math.nan}, ValueError),
    (_plant, {"G_0": -math.inf}, ValueError),
    (_plant, {"J_m": math.inf}, ValueError),
    (_plant, {"K_t": math.inf}, ValueError),
], ids=lambda v: v.__name__ if callable(v) else "-".join(f"{k}={x}" for k, x in v.items()))
def test_configs_reject_values_they_cannot_run(factory, kwargs, error):
    # each of these used to construct, then ran with the command or the wall
    # silently off, recorded the wrong rows, or failed mid-run with another error
    with pytest.raises(error, match="must"):
        factory(**kwargs)


def test_reference_tracking_needs_adaptive_controller():
    # refused when the config is built, before the run builds a controller
    with pytest.raises(ConfigError, match="reference tracking needs the adaptive controller"):
        _quick(controller="rrc", track_reference=True)
    with pytest.raises(ConfigError, match="reference tracking needs the adaptive controller"):
        _quick(controller="rrc").with_overrides(track_reference=True)


@pytest.mark.parametrize("contact_stiffness", [0.0, 500.0])
def test_reference_error_compares_the_same_sample_instants(contact_stiffness):
    # l1ac-nogc with the ideal observer and no substeps: every reference input
    # is a function of the trace row, so the oracle rebuilds them and loops
    # ReferenceSystem.step from [x(0); 0]; x_r(k) is compared with x(k) for k = 1..n
    from sea_l1ac.controllers import (
        L1Controller, ReferenceSystem, ideal_motor_side_compensation,
    )
    from sea_l1ac.plant import _link_gravity_gains, _rk4_tuple, contact_torque, gravity_gain

    cfg = _quick(controller="l1ac-nogc", ideal_dob=True, substeps=1, mass=2.25,
                 duration=1.0, track_reference=True,
                 contact_stiffness=contact_stiffness, contact_position=1.2)
    trace = run_scenario(cfg)
    params, env = cfg.params, cfg.make_environment()
    ref = ReferenceSystem(L1Controller(params, L1Config(T_s=cfg.T_s, T=cfg.T, K_a=cfg.K_a)))
    cols = ("q_rad", "dq_rad_per_s", "theta_rad", "dtheta_rad_per_s")
    xs = np.column_stack([trace[c] for c in cols])
    final = _rk4_tuple(tuple(xs[-1]), float(trace["tau_m_Nm"][-1]), cfg.T_s, params, env,
                       _link_gravity_gains(params, cfg.mass, cfg.gravity_on))
    after = np.vstack([xs[1:], final])  # x(k + 1), the state each step leads to
    s, worst = np.concatenate([xs[0], np.zeros(len(ref._M) - 4)]), 0.0
    for t, x, x_next in zip(trace["t_s"], xs, after):
        q, _, theta, dtheta = x
        tau_dob = ideal_motor_side_compensation(x, params)
        sigma1 = (tau_dob - params.f_m * dtheta - params.K_f * (theta - q)) / params.J_m
        link = contact_torque(env, q) + gravity_gain(params, cfg.mass) * math.sin(q)
        q_d = cfg.q_d_amplitude if t >= cfg.q_d_start else 0.0
        s = ref.step(s, np.array([sigma1, 0.0, -link / params.J_a, 0.0, q_d, 0.0, 0.0, 0.0, 0.0]))
        worst = max(worst, float(np.max(np.abs(s[:4] - x_next))))
    assert len(trace) == 1000 and worst > 0.0
    assert np.max(trace["q_rad"]) > cfg.contact_position  # the wall, when there is one, is hit
    assert trace.aux["ref_err_max"] == pytest.approx(worst, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# determinism and export round trip
# ---------------------------------------------------------------------------

def test_repeated_runs_are_bit_identical(tmp_path):
    cfg = _quick()
    a = export_trace(run_scenario(cfg), tmp_path / "a.csv").read_bytes()
    b = export_trace(run_scenario(cfg), tmp_path / "b.csv").read_bytes()
    assert a == b


def test_export_import_round_trip_exact(tmp_path):
    trace = run_scenario(_quick())
    p1 = export_trace(trace, tmp_path / "t.csv")
    back = import_trace(p1)
    p2 = export_trace(back, tmp_path / "t2.csv")
    assert p1.read_bytes() == p2.read_bytes()
    for name in TRACE_COLUMNS:
        assert np.array_equal(trace[name], back[name])


def test_round_trip_keeps_numeric_looking_names_textual(tmp_path):
    trace = run_scenario(_quick(name="2250", duration=0.05))
    p1 = export_trace(trace, tmp_path / "n.csv")
    back = import_trace(p1)
    assert back.meta["name"] == "2250"
    assert p1.read_bytes() == export_trace(back, tmp_path / "n2.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(name=st.text(st.characters(categories=("L", "M", "N", "P", "S")) | st.sampled_from(" =#%")))
@example(name="my run")
@example(name="a = b # c % d")
def test_round_trip_exact_for_any_printable_name(tmp_path_factory, name):
    assert name.isprintable()
    out = tmp_path_factory.mktemp("names")
    trace = _trace_from_q([0.0, 1e-3], [0.0, 0.5],
                          {"name": name, "controller": "l1ac", "q_d_amplitude": 1.0})
    p1 = export_trace(trace, out / "a.csv")
    back = import_trace(p1)
    assert back.meta["name"] == name
    assert p1.read_bytes() == export_trace(back, out / "b.csv").read_bytes()
    assert p1.read_text(encoding="utf-8").splitlines()[0].startswith("# ")


_SPECIAL_CELLS = (-0.0, 0.0, 5e-324, 1.5e-310, 1e16, 1e-5, 1e-4, math.nan, math.inf, -math.inf)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("rows", [None, 0, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1],
                         ids=["drawn", "empty", "one_block", "two_blocks_and_one"])
def test_export_writes_the_repr_of_every_cell(tmp_path_factory, data, rows):
    # rows None draws 0 to 6; a larger trace repeats 7 drawn cells down each
    # column, so drawn cells sit on both sides of every block boundary
    if rows is None:
        rows = data.draw(st.integers(0, 6))
    cell = st.sampled_from(_SPECIAL_CELLS) | st.floats()
    drawn = min(rows, 7)
    columns = {name: np.resize(np.array(data.draw(st.lists(cell, min_size=drawn, max_size=drawn)),
                                        dtype=float), rows) for name in TRACE_COLUMNS}
    trace = RunTrace(columns=columns, meta={"name": "cells", "q_d_amplitude": 1.0})
    out = tmp_path_factory.mktemp("cells")
    p1 = export_trace(trace, out / "a.csv")
    # the per-cell formula export_trace must keep writing
    expected = _meta_line(trace.meta) + "\n" + ",".join(TRACE_COLUMNS) + "\n" + "".join(
        ",".join(repr(float(columns[name][i])) for name in TRACE_COLUMNS) + "\n"
        for i in range(rows)
    )
    assert p1.read_bytes() == expected.encode("utf-8")
    assert export_trace(import_trace(p1), out / "b.csv").read_bytes() == p1.read_bytes()


def _assert_columns_bit_identical(a, b):
    """Every column holds the same doubles, -0.0 included; nan matches nan."""
    for name in TRACE_COLUMNS:
        x, y = np.asarray(a[name], dtype=float), np.asarray(b[name], dtype=float)
        assert x.shape == y.shape and np.array_equal(np.isnan(x), np.isnan(y))
        assert x[~np.isnan(x)].tobytes() == y[~np.isnan(y)].tobytes()


def test_export_refuses_columns_of_unequal_length_before_writing(tmp_path):
    columns = {name: np.zeros(3) for name in TRACE_COLUMNS}
    columns["u2"] = np.zeros(2)
    path = tmp_path / "new" / "t.csv"
    with pytest.raises(ValueError, match="differ in length"):
        export_trace(RunTrace(columns=columns, meta={}), path)
    assert not path.parent.exists()


def _read_line_by_line(path):
    meta, data = _parse_lines(path)
    return RunTrace(columns=_columns(data), meta=meta)


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_reads_as_the_loop(path):
    """import_trace gives what the per-line loop gives: the same doubles
    (nan payloads included) and metadata, or the same exception text."""
    fast, loop = _outcome(import_trace, path), _outcome(_read_line_by_line, path)
    if isinstance(loop, str):
        assert fast == loop
        return
    assert not isinstance(fast, str), fast
    _assert_columns_bit_identical(fast, loop)
    for name in TRACE_COLUMNS:
        assert fast[name].tobytes() == loop[name].tobytes()
        assert fast[name].flags.c_contiguous
    assert repr(fast.meta) == repr(loop.meta)


# cells both parsers read, then text where they part: float() reads 1_0 and
# Arabic-Indic digits, numpy reads U+001F at a cell's end as a blank, and
# str.splitlines ends a line at \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029
_PLAIN_CELL = (st.sampled_from(_SPECIAL_CELLS).map(repr) | st.floats().map(repr)
               | st.sampled_from(("-nan", "+inf", "Infinity", "1E5", ".5", "5.", " 2.5 ",
                                  "1e-400", "0001.5", "\t-3")))
_ODD_TEXT = st.sampled_from(("_", "1_0", "\u0661", "#", "#x", " ", "\t", "", ",", "e", "\x00",
                             "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                             "\u2028", "\u2029", "\u3000", "\r", "\r\n", "\n", "\n\n", " \n",
                             "\udcff"))  # U+DCFF is written as the byte 0xff, not UTF-8


@st.composite
def _trace_files(draw):
    """The text of a trace file: a plain body with one to three odd texts
    put in anywhere, the header and the metadata line included."""
    lines = [",".join(TRACE_COLUMNS)] + draw(st.lists(
        st.lists(_PLAIN_CELL, min_size=len(TRACE_COLUMNS), max_size=len(TRACE_COLUMNS))
        .map(",".join) | st.just(""), max_size=4))
    if draw(st.booleans()):
        lines.insert(0, "# name=x q_d_amplitude=1.0")
    text = "".join(line + draw(st.sampled_from(("\n", "\n", "\r\n", "\r"))) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    for _ in range(draw(st.integers(1, 3))):
        # mostly at the edge of a cell, where the parsers' blanks differ
        edges = [i for i in range(len(text) + 1)
                 if text[i - 1:i] in ",\n" or text[i:i + 1] in ",\r\n"]
        at = draw(st.sampled_from(edges) | st.integers(0, len(text)))
        text = text[:at] + draw(_ODD_TEXT) + text[at:]
    return text


_HEADER = ",".join(TRACE_COLUMNS)
_ROW = ",".join(["1.5"] * len(TRACE_COLUMNS))


@settings(max_examples=300, deadline=None)
@given(text=_trace_files())
@example(text=f"# name=x\n{_HEADER}\n{_ROW}\n")
@example(text=f"{_HEADER}\n")
@example(text=f"# name=x\n{_HEADER}\n\n\n")
@example(text=f"# name=x\n{_HEADER}\n{_ROW}\n#x\n")
@example(text=f"# name=x\n{_HEADER}\n{_ROW}\n \n{_ROW}\n")
@example(text=f"# name=x\r\n{_HEADER}\r\n{_ROW}\r\n{_ROW}")
@example(text=f"# name=x\n{_HEADER}\n1.5\x0c{_ROW[3:]}\n")
@example(text=f"# name=x\n{_HEADER}\n{_ROW}\x0c\n")
@example(text=f"# name=x\n{_HEADER}\n1.5\x1f{_ROW[3:]}\n")
@example(text=f"# name=x\n{_HEADER}\n1_0{_ROW[3:]}\n")
@example(text=f"# name=x\n{_HEADER}\n\u0661{_ROW[3:]}\n")
@example(text=f"# name=x\n{_HEADER}\n,{_ROW[4:]}\n")
@example(text=f"# name=x\n{_HEADER}\n{_ROW},1.5\n{_ROW}\n")
@example(text=f"# name=x\n{_HEADER}\n{_ROW}\n\udcff\n")
def test_import_reads_what_the_per_line_loop_reads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("bodies") / "t.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    _assert_reads_as_the_loop(path)


def test_import_reads_in_one_numpy_parse_across_read_chunks(tmp_path, monkeypatch):
    # rows that straddle the chunks import_trace reads, and an empty trace
    columns = {name: np.linspace(-1.0, 1.0, 1000) ** (j + 1)
               for j, name in enumerate(TRACE_COLUMNS)}
    for rows in (1000, 0):
        trace = RunTrace(columns={k: v[:rows] for k, v in columns.items()}, meta={"name": "n"})
        path = export_trace(trace, tmp_path / f"{rows}.csv")
        assert path.stat().st_size > 10 * _READ_CHARS or rows == 0
        _assert_reads_as_the_loop(path)
        with monkeypatch.context() as m:
            m.setattr(traceio, "_parse_lines", None)  # the numpy path alone
            back = import_trace(path)
        _assert_columns_bit_identical(trace, back)
        assert all(back[name].shape == (rows,) for name in TRACE_COLUMNS)


def test_trace_io_memory_is_bounded_by_a_block_of_rows(tmp_path):
    # tracemalloc peaks as multiples of the trace's own doubles; holding the
    # whole text, or one Python float per cell, takes about 10x
    configs = Path(__file__).resolve().parents[1] / "configs"
    trace = run_scenario(scenario_from_ini(configs / "load_step_l1ac_m1500.ini"))
    assert len(trace) == 3000
    array_bytes = sum(trace[name].nbytes for name in TRACE_COLUMNS)
    path = tmp_path / "t.csv"
    import_trace(export_trace(trace, path))  # first calls, which may import lazily

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a block of rows as Python floats and text; the file is 2.3x
    assert peak(lambda: export_trace(trace, path)) < 1.0 * array_bytes
    # the parsed rows and their transposed copy are 2x
    assert peak(lambda: import_trace(path)) < 2.5 * array_bytes


_EXTREME_CELLS = (-0.0, 5e-324, -2.2250738585072e-310, 1.7976931348623157e308,
                  -1.7976931348623157e308, math.nan, math.inf, -math.inf)
_META_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from(" =#%é→日"), max_size=12)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
@example(data=None)
def test_round_trip_exact_for_every_valid_trace(tmp_path_factory, data):
    # export -> import -> export is byte-identical and the columns come back
    # bit for bit, for any doubles and any text in the text-valued keys
    if data is None:  # the deterministic case: every extreme cell in every column
        columns = {name: np.array(_EXTREME_CELLS) for name in TRACE_COLUMNS}
        meta = {"name": "a b=c#d%e é→日", "controller": "%20", "mass": -0.0,
                "omega": 5e-324, "q_d_amplitude": math.nan, "K_t": -math.inf}
    else:
        rows = data.draw(st.integers(0, 5))
        cell = st.sampled_from(_EXTREME_CELLS) | st.floats()
        columns = {name: np.array(data.draw(st.lists(cell, min_size=rows, max_size=rows)),
                                  dtype=float) for name in TRACE_COLUMNS}
        meta = {"name": data.draw(_META_TEXT), "controller": data.draw(_META_TEXT)}
        for key in ("q_d_amplitude", "mass", "contact_position"):
            meta[key] = data.draw(cell)
    out = tmp_path_factory.mktemp("trips")
    p1 = export_trace(RunTrace(columns=columns, meta=meta), out / "a.csv")
    back = import_trace(p1)
    assert export_trace(back, out / "b.csv").read_bytes() == p1.read_bytes()
    _assert_columns_bit_identical(columns, back)
    assert list(back.meta) == list(meta)
    for key, value in meta.items():
        if isinstance(value, str):
            assert back.meta[key] == value
        else:
            assert repr(back.meta[key]) == repr(value)


_NUMBER_TEXT = st.from_regex(
    r"\s?[+-]?([0-9](_?[0-9])*(\.[0-9]*)?([eE][+-]?[0-9]{1,3})?|nan|inf|Infinity)\s?",
    fullmatch=True) | st.floats().map(str)


@settings(max_examples=100, deadline=None)
@given(meta=st.dictionaries(st.sampled_from(("K_t", "note", "mass", "tag")) | _META_TEXT,
                            st.integers(-10**20, 10**20) | st.booleans() | _NUMBER_TEXT
                            | _META_TEXT, max_size=4))
@example(meta={"K_t": 2, "note": "1_0", "tag": " 7", "mass": True})
@example(meta={"a b": 1.0, "k=v": 2.0})
def test_round_trip_exact_for_any_metadata_value(tmp_path_factory, meta):
    # outside name and controller the import reads number-like text as a
    # float, so the export must already write that float: K_t=2.0, note=10.0;
    # keys are encoded as text values are, so a key with a space or = survives
    columns = {name: np.zeros(1) for name in TRACE_COLUMNS}
    out = tmp_path_factory.mktemp("meta")
    meta = {"name": "m", **meta}
    p1 = export_trace(RunTrace(columns=columns, meta=meta), out / "a.csv")
    back = import_trace(p1)
    assert list(back.meta) == list(meta)
    assert export_trace(back, out / "b.csv").read_bytes() == p1.read_bytes()


@settings(max_examples=20, deadline=None)
@given(mass=st.integers(0, 4), amplitude=st.integers(-2, 2), start=st.integers(0, 1),
       contact_stiffness=st.integers(0, 500), contact_position=st.integers(-1, 1))
@example(mass=2, amplitude=1, start=0, contact_stiffness=0, contact_position=0)
def test_round_trip_exact_for_an_integer_valued_config(tmp_path_factory, mass, amplitude, start,
                                                        contact_stiffness, contact_position):
    # integer values are stored as floats, so the first export already
    # writes mass=2.0, as the import reads it back
    cfg = ScenarioConfig(name="intmass", controller="rrc", mass=mass, duration=0.01,
                         q_d_amplitude=amplitude, q_d_start=start,
                         contact_stiffness=contact_stiffness, contact_position=contact_position)
    assert all(type(getattr(cfg, f)) is float for f in ("mass", "duration", "q_d_amplitude",
                                                          "q_d_start", "contact_stiffness"))
    assert cfg.torque_limit is None
    out = tmp_path_factory.mktemp("ints")
    trace = run_scenario(cfg)
    p1 = export_trace(trace, out / "a.csv")
    assert f" mass={float(mass)!r} " in p1.read_text(encoding="utf-8").splitlines()[0]
    back = import_trace(p1)
    assert export_trace(back, out / "b.csv").read_bytes() == p1.read_bytes()
    _assert_columns_bit_identical(trace, back)


def test_export_header_lists_exact_columns(tmp_path):
    path = export_trace(run_scenario(_quick(duration=0.05)), tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    assert lines[1] == ",".join(TRACE_COLUMNS)


def test_current_column_is_torque_over_kt():
    trace = run_scenario(_quick(duration=0.2))
    k_t = benchmark_params().K_t
    assert np.allclose(trace["current_permil"], trace["tau_m_Nm"] / k_t, rtol=1e-12)


def test_decimation_thins_grid_uniformly():
    full = run_scenario(_quick(duration=0.2))
    thin = run_scenario(_quick(duration=0.2, decimate=4))
    assert len(thin) == math.ceil(len(full) / 4)
    assert np.allclose(np.diff(thin["t_s"]), 4e-3, atol=1e-12)


def test_plot_script_written(tmp_path):
    path = export_plotscript("t.csv", tmp_path / "plot_t.py")
    text = path.read_text()
    assert "sigma22" in text and "matplotlib" in text


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_of_analytic_trace_are_clean(params):
    t = np.arange(0.0, 3.0, 1e-3)
    q = analytic_nominal_response(math.pi / 2, params.omega, t)
    trace = _trace_from_q(t, q, {
        "q_d_amplitude": math.pi / 2, "q_d_start": 0.0, "omega": params.omega,
    })
    rep = compute_metrics(trace)
    assert rep.overshoot_pct == 0.0
    assert abs(rep.static_error_rad) < 1e-9
    assert rep.rise_delay_s == 0.0
    assert rep.peak_speed_after_contact is None


def test_metrics_constant_trace_settles_immediately(params):
    t = np.arange(0.0, 1.0, 1e-3)
    q = np.full_like(t, 0.7)
    trace = _trace_from_q(t, q, {
        "q_d_amplitude": 0.7, "q_d_start": 0.0, "omega": params.omega,
    })
    rep = compute_metrics(trace)
    assert rep.settling_time_s == 0.0
    assert rep.static_error_rad == pytest.approx(0.0, abs=1e-12)


def test_metrics_flags_unsettled_trace(params):
    t = np.arange(0.0, 1.0, 1e-3)
    q = np.linspace(0.0, 0.5, len(t))  # still far from the 1.0 target at the end
    trace = _trace_from_q(t, q, {
        "q_d_amplitude": 1.0, "q_d_start": 0.0, "omega": params.omega,
    })
    assert compute_metrics(trace).settling_time_s is None


def test_metrics_empty_trace_rejected():
    trace = _trace_from_q(np.zeros(0), np.zeros(0), {"q_d_amplitude": 1.0,
                                                     "q_d_start": 0.0})
    with pytest.raises(ValueError):
        compute_metrics(trace)


def test_metrics_name_the_missing_metadata_key(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + ",".join(["0.0"] * len(TRACE_COLUMNS)) + "\n")
    with pytest.raises(ValueError, match="q_d_amplitude"):
        compute_metrics(import_trace(path))
    assert main(["metrics", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err and str(path) in err and "q_d_amplitude" in err
    # omega sets the nominal response the rise delay is measured against:
    # a trace that lost it is rejected, not measured against the benchmark plant
    path.write_text("# q_d_amplitude=1.0 q_d_start=0.0\n" + ",".join(TRACE_COLUMNS) + "\n"
                    + ",".join(["0.0"] * len(TRACE_COLUMNS)) + "\n")
    with pytest.raises(ValueError, match="no 'omega'"):
        compute_metrics(import_trace(path))
    assert main(["metrics", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err and str(path) in err and "omega" in err


@pytest.mark.parametrize("key", ["q_d_amplitude", "q_d_start", "omega",
                                 "contact_stiffness", "contact_position"])
@pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-inf"])
def test_metrics_reject_metadata_that_is_not_a_finite_number(tmp_path, capsys, key, raw):
    meta = {"q_d_amplitude": 1.0, "q_d_start": 0.0, "omega": 30.0,
            "contact_stiffness": 100.0, "contact_position": 0.5}
    meta[key] = raw
    path = tmp_path / "bad_meta.csv"
    row = ",".join(["0.0"] * len(TRACE_COLUMNS))
    path.write_text("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
                    + ",".join(TRACE_COLUMNS) + "\n" + row + "\n" + row + "\n")
    with pytest.raises(ValueError, match=key):
        compute_metrics(import_trace(path))
    assert main(["metrics", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err and str(path) in err and key in err


@pytest.mark.parametrize("column", ["t_s", "q_rad", "current_permil", "dq_rad_per_s"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_metrics_reject_a_non_finite_sample(tmp_path, capsys, column, raw):
    # import_trace keeps nan and inf, which round-trip; metrics must not
    # read them as numbers (max(0.0, nan) is 0.0, and inf prints Infinity)
    meta = "# q_d_amplitude=1.0 q_d_start=0.0 omega=30.0 contact_stiffness=100.0 " \
           "contact_position=0.5\n"
    rows = [[repr(0.001 * i)] + ["0.75"] * (len(TRACE_COLUMNS) - 1) for i in range(4)]
    rows[2][TRACE_COLUMNS.index(column)] = raw
    path = tmp_path / "bad_sample.csv"
    path.write_text(meta + ",".join(TRACE_COLUMNS) + "\n"
                    + "".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=f"{column} sample 2 = "):
        compute_metrics(import_trace(path))
    assert main(["metrics", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"error": "config"' in captured.err and str(path) in captured.err
    assert column in captured.err


def _oracle_costs(t, q, amplitude, start, omega, max_shift=0.5, step=1e-3):
    """Every shift and its cost, each delayed response evaluated at t itself."""
    shifts = np.arange(0.0, max_shift + step / 2, step)
    costs = np.array([
        np.sum((q - analytic_nominal_response(amplitude, omega, t - start - shift)) ** 2)
        for shift in shifts])
    return shifts, costs


def _rise_delay_oracle(*args):
    """The loop over every shift; the smallest shift of least cost wins ties."""
    shifts, costs = _oracle_costs(*args)
    return float(shifts[np.argmin(costs)])


@settings(max_examples=80, deadline=None)
@given(
    T_s=st.sampled_from([0.5e-3, 1e-3, 2e-3]),
    decimate=st.sampled_from([1, 2, 4]),
    duration=st.floats(0.02, 1.2),
    amplitude=st.sampled_from([0.0, math.pi / 2, -0.8]) | st.floats(-3.0, 3.0),
    start=st.sampled_from([0.0, 0.25]) | st.floats(0.0, 0.4),
    true_shift=st.floats(0.0, 0.6),
    noise=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.3]),
    jitter=st.sampled_from([0.0, 1e-12, 1e-8, 0.3]),
    omega=st.sampled_from([benchmark_params().omega]) | st.floats(2.0, 400.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(T_s=1e-3, decimate=1, duration=1.0, amplitude=0.0, start=0.0, true_shift=0.1,
         noise=1e-3, jitter=0.0, omega=benchmark_params().omega, seed=1)
@example(T_s=1e-3, decimate=1, duration=1.0, amplitude=math.pi / 2, start=0.05, true_shift=0.1,
         noise=0.0, jitter=0.0, omega=benchmark_params().omega, seed=3)
@example(T_s=0.5e-3, decimate=1, duration=0.8, amplitude=-0.8, start=0.1, true_shift=0.0415,
         noise=0.0, jitter=0.0, omega=benchmark_params().omega, seed=2)
@example(T_s=2e-3, decimate=1, duration=3.0, amplitude=math.pi / 2, start=0.25, true_shift=0.094,
         noise=1e-3, jitter=0.0, omega=benchmark_params().omega, seed=4)
@example(T_s=5e-3, decimate=1, duration=3.0, amplitude=-0.8, start=0.1, true_shift=0.0415,
         noise=0.0, jitter=0.0, omega=benchmark_params().omega, seed=5)
def test_rise_delay_matches_the_loop_over_every_shift(T_s, decimate, duration, amplitude, start,
                                                      true_shift, noise, jitter, omega, seed):
    rng = np.random.default_rng(seed)
    # the harness records t = i * T_s for every decimate-th step i
    t = np.arange(0, max(1, int(round(duration / T_s))), decimate) * T_s
    t = t + jitter * decimate * T_s * rng.uniform(-1.0, 1.0, len(t))
    q = analytic_nominal_response(amplitude, omega, t - start - true_shift)
    q = q + noise * (abs(amplitude) + 0.1) * rng.standard_normal(len(t))
    args = (t, q, amplitude, start, omega)
    # the extended grid reads each delayed response from one evaluation, so
    # its costs equal the loop's up to rounding: the shift it returns costs
    # the loop at most `bound` more than the least, and is the loop's shift
    # whenever no other shift comes within `bound` of the least cost
    delay = _rise_delay(*args)
    shifts, costs = _oracle_costs(*args)
    k = round(delay / 1e-3)
    assert delay == shifts[k]
    bound = 1e-12 * len(t) * max(abs(amplitude), float(np.max(np.abs(q)))) ** 2
    least, runner_up = np.sort(costs)[:2]
    assert costs[k] - least <= bound
    if runner_up - least > bound:
        assert delay == _rise_delay_oracle(*args)


def test_rise_delay_on_a_grid_far_finer_than_the_shift_step():
    # 1e-12 s spacing divides the 1 ms step 1e9 times; extending this grid
    # back by 0.5 s would take 5e11 samples
    t = np.arange(50) * 1e-12
    q = np.linspace(0.0, 1e-3, 50)
    args = (t, q, 1.0, 0.0, benchmark_params().omega)
    assert _rise_delay(*args) == _rise_delay_oracle(*args)


@pytest.mark.parametrize("dt, evaluations", [
    (0.5e-3, 1), (1e-3, 1), (2e-3, 1), (5e-3, 1), (1.5e-3, 501)])
def test_rise_delay_evaluates_one_response_when_the_grid_shares_the_shift_step(
        monkeypatch, dt, evaluations):
    # spacings that divide the 1 ms shift step or are whole steps of it read
    # every shift from one response; a 1.5 ms grid evaluates each shift
    omega = benchmark_params().omega
    t = np.arange(round(1.0 / dt)) * dt
    q = analytic_nominal_response(1.0, omega, t - 0.05)
    calls = []

    def counted(*args):
        calls.append(args)
        return analytic_nominal_response(*args)

    monkeypatch.setattr(sea_l1ac.harness, "analytic_nominal_response", counted)
    assert _rise_delay(t, q, 1.0, 0.0, omega) == 0.05
    assert len(calls) == evaluations


def test_rise_delay_keeps_the_first_of_two_tied_shifts():
    # At omega = 1e5 rad/s the response rises within one 1 ms sample, so
    # shift a has one rising sample (index a) and shift a + 1 the next one.
    # q halfway between the two shifts' slices of the response on the grid
    # extended back by 0.5 s gives both shifts the same squared errors, and
    # so bit-equal costs, whenever the halving is exact.
    omega, a, n, span = 1e5, 120, 400, 500
    ties = 0
    for phase in np.linspace(0.011, 0.089, 24):
        t = (np.arange(n) + phase) * 1e-3
        dt = (t[-1] - t[0]) / (n - 1)
        grid = np.concatenate((t[0] - dt * np.arange(span, 0, -1), t))
        response = analytic_nominal_response(1.0, omega, grid)
        ref_a, ref_b = response[span - a:][:n], response[span - a - 1:][:n]
        q = (ref_a + ref_b) / 2.0
        d_a, d_b = q - ref_a, q - ref_b
        if d_a @ d_a != d_b @ d_b:
            continue
        ties += 1
        assert _rise_delay(t, q, 1.0, 0.0, omega) == a * 1e-3
    assert ties >= 8


@pytest.mark.parametrize("controller, mass", [("rrc", 1.5), ("l1ac", 0.75)])
def test_mirrored_command_mirrors_the_metrics(controller, mass):
    # every term of the plant and of both laws is odd in (q, theta, q_d), and
    # IEEE rounding is symmetric under negation, so the runs mirror bit for
    # bit; each mass gives its law an overshoot and a settling time to mirror
    up, down = (compute_metrics(run_scenario(_quick(controller=controller, mass=mass,
                                                    duration=1.5, q_d_amplitude=a)))
                for a in (math.pi / 2, -math.pi / 2))
    assert up.overshoot_pct > 0.0 and up.settling_time_s is not None
    assert down.static_error_rad == -up.static_error_rad
    for name in ("overshoot_pct", "settling_time_s", "rise_delay_s", "peak_current_permil"):
        assert getattr(down, name) == getattr(up, name)


def test_zero_command_has_no_transient():
    report = compute_metrics(run_scenario(_quick(controller="rrc", q_d_amplitude=0.0)))
    assert (report.overshoot_pct, report.settling_time_s, report.rise_delay_s) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_empty_suite_succeeds():
    result = run_suite(SuiteConfig(name="empty", scenarios=()))
    assert result.ok
    rows = summary_table(SuiteConfig(name="empty", scenarios=()), result)
    assert len(rows) == 1  # header only


def test_suite_isolates_failures():
    good = _quick(name="good", duration=0.1)
    bad = _quick(name="bad", duration=0.1, T=1.0)  # unstable filter design
    result = run_suite(SuiteConfig(name="mixed", scenarios=(good, bad)))
    assert not result.ok
    assert "good" in result.traces and "bad" in result.errors
    rows = summary_table(SuiteConfig(name="mixed", scenarios=(good, bad)), result)
    assert rows[1][-1] == "ok" and rows[2][-1] != "ok"


def test_suite_rejects_duplicate_names():
    with pytest.raises(ConfigError):
        SuiteConfig(name="dup", scenarios=(_quick(name="x"), _quick(name="x")))


# ---------------------------------------------------------------------------
# cross-controller behavior on the nominal plant
# ---------------------------------------------------------------------------

def test_baseline_nominal_step_quality():
    cfg = _quick(name="rrc_nom", controller="rrc", duration=3.0)
    rep = compute_metrics(run_scenario(cfg))
    assert abs(rep.static_error_rad) < 1e-3
    assert rep.overshoot_pct < 0.5


def test_controllers_agree_on_final_value_without_disturbance():
    final = {}
    for ctl in ("rrc", "l1ac"):
        cfg = _quick(name=ctl, controller=ctl, duration=3.0)
        final[ctl] = run_scenario(cfg)["q_rad"][-1]
    assert abs(final["rrc"] - final["l1ac"]) < 1e-3


def test_adaptive_without_gravity_feedforward_still_tracks(params):
    cfg = ScenarioConfig(name="nogc", controller="L1AC-no-gravity-comp",
                         mass=2.25, duration=3.0)
    assert cfg.controller == "l1ac-nogc"
    trace = run_scenario(cfg)
    rep = compute_metrics(trace)
    assert abs(rep.static_error_rad) < 0.01
    # without the feedforward the estimate carries the whole gravity torque
    full_gravity = (2.25 / params.m_0) * params.G_0 / params.J_a
    tail = float(np.mean(trace["sigma22_hat"][-300:]))
    assert tail == pytest.approx(-full_gravity, rel=0.05)


def test_baseline_static_error_grows_with_load_mismatch():
    def err(mass):
        cfg = _quick(name=f"rrc_{mass}", controller="rrc", duration=3.0, mass=mass)
        return abs(compute_metrics(run_scenario(cfg)).static_error_rad)

    nominal, light, heavy = err(1.5), err(0.75), err(2.25)
    assert light > nominal and heavy > nominal


# ---------------------------------------------------------------------------
# divergence reporting
# ---------------------------------------------------------------------------

def test_divergence_carries_partial_trace():
    # an unstably discretized observer (g_ob * h = 4) blows the loop up
    cfg = _quick(name="diverge", duration=6.0, T_s=8e-3, substeps=1,
                 g_ob=500.0)
    with pytest.raises(SimulationDivergence) as exc_info:
        run_scenario(cfg)
    partial = exc_info.value.partial_trace
    assert partial is not None and len(partial) > 0
    assert "ref_err_max" not in partial.aux


def test_divergence_keeps_the_reference_error_of_the_steps_done():
    cfg = _quick(name="diverge", duration=6.0, T_s=8e-3, substeps=1, g_ob=500.0,
                 track_reference=True)
    with pytest.raises(SimulationDivergence) as exc_info:
        run_scenario(cfg)
    partial = exc_info.value.partial_trace
    assert len(partial) > 1
    assert set(partial.aux) == {"xtilde_max", "ref_err_max"}
    # the maximum over the steps that completed: a run of exactly those steps
    # gives it, so the diverged step, whose state is past the bound, is left
    # out; a few steps earlier the error has already grown to the bound's scale
    def ref_err(steps):
        return run_scenario(cfg.with_overrides(duration=steps * cfg.T_s)).aux["ref_err_max"]

    assert partial.aux["ref_err_max"] == ref_err(len(partial) - 1)
    assert partial.aux["ref_err_max"] >= ref_err(len(partial) - 3) > 1e-3 * STATE_BOUND


def test_divergence_inside_a_period_of_substeps_reports_that_period():
    # the baseline at T_s = 16 ms in four substeps: h = 4 ms with g_ob = 500,
    # where the sampled loop is unstable, so the bound is met in some substep
    cfg = _quick(name="substeps", controller="rrc", duration=3.0, T_s=0.016, substeps=4)
    with pytest.raises(SimulationDivergence) as exc_info:
        run_scenario(cfg)
    partial = exc_info.value.partial_trace
    start = (len(partial) - 1) * cfg.T_s  # the diverging period's start
    assert f"at t={start:.4f} s" in str(exc_info.value)
    assert partial["t_s"][-1] == start and len(partial) < 3.0 / cfg.T_s
    # a run of the periods before it finishes, with the same rows bit for bit
    done = run_scenario(cfg.with_overrides(duration=(len(partial) - 1) * cfg.T_s))
    assert len(done) == len(partial) - 1
    for name in TRACE_COLUMNS:
        assert done[name].tobytes() == partial[name][:-1].tobytes(), name


def test_harness_reads_no_plant_constant():
    # the plant's equations, the true disturbances included, live in plant.py;
    # the harness wires the loop and reads the plant only through its functions
    tree = ast.parse(Path(sea_l1ac.harness.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not read & {"K_f", "f_m", "J_m", "J_a", "G_0"}


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def test_scenario_ini_plant_overrides(tmp_path):
    from sea_l1ac.config_io import scenario_from_ini

    ini = tmp_path / "p.ini"
    ini.write_text(
        "[scenario]\nname = custom\ncontroller = rrc\nmass = 2.0\n"
        "\n[plant]\nJ_a = 0.5\nK_f = 100.0\n"
    )
    cfg = scenario_from_ini(ini)
    assert cfg.params.J_a == 0.5 and cfg.params.K_f == 100.0 and cfg.mass == 2.0
    assert cfg.params.J_m == benchmark_params().J_m  # untouched fields keep defaults


@pytest.mark.parametrize("section", ["scenario", "rootlocus", "condition"])
def test_plant_section_reads_every_field_back(tmp_path, section):
    from sea_l1ac import config_io

    # every PlantParams field is one [plant] key, read the same by each loader
    plant = PlantParams(J_m=0.3, J_a=0.4, K_f=120.0, G_0=9.0, m_0=1.25, K_t=0.1, f_m=4.0)
    assert all(v != getattr(benchmark_params(), k) for k, v in vars(plant).items())
    ini = tmp_path / "p.ini"
    ini.write_text(f"[{section}]\n[plant]\n"
                   + "".join(f"{k} = {v!r}\n" for k, v in vars(plant).items()))
    load = {"scenario": config_io.scenario_from_ini,
            "rootlocus": config_io.rootlocus_job_from_ini,
            "condition": config_io.condition_job_from_ini}[section]
    loaded = load(ini)
    assert (loaded.params if section == "scenario" else loaded["params"]) == plant


def test_the_load_mass_belongs_to_the_scenario_alone():
    # the plant holds the actuator's constants; a scenario always carries one
    with pytest.raises(TypeError):
        PlantParams(**vars(benchmark_params()), m=1.0)
    assert ScenarioConfig().params == benchmark_params()


def test_scenario_ini_reads_every_key_and_keeps_the_dataclass_defaults(tmp_path):
    from sea_l1ac.config_io import scenario_from_ini

    bare = tmp_path / "bare.ini"
    bare.write_text("[scenario]\n")
    assert scenario_from_ini(bare) == ScenarioConfig(name="bare")
    full = tmp_path / "full.ini"
    full.write_text(
        "[scenario]\nname = x\ncontroller = rrc\nduration = 2.0\nmass = 0.75\n"
        "gravity = off\n[target]\namplitude = 0.5\nstart = 0.1\n"
        "[environment]\ncontact_stiffness = 100.0\ncontact_position = 0.3\n"
        "bilateral = yes\n[tuning]\nsample_period = 0.002\n"
        "filter_time_constant = 0.02\nfilter_gain = 5.0\nobserver_bandwidth = 400.0\n"
        "substeps = 2\n[limits]\ntorque = 30.0\n[simulation]\nideal_dob = yes\n"
        "decimate = 3\n"
    )
    assert scenario_from_ini(full) == ScenarioConfig(
        name="x", controller="rrc", duration=2.0, mass=0.75, gravity_on=False,
        q_d_amplitude=0.5, q_d_start=0.1, contact_stiffness=100.0,
        contact_position=0.3, bilateral_contact=True, T_s=0.002, T=0.02, K_a=5.0,
        g_ob=400.0, substeps=2, torque_limit=30.0, ideal_dob=True, decimate=3,
    )


def test_shipped_configs_parse():
    from sea_l1ac.config_io import (
        condition_job_from_ini,
        rootlocus_job_from_ini,
        scenario_from_ini,
        suite_from_ini,
    )

    configs = Path(__file__).resolve().parents[1] / "configs"
    fidelity = scenario_from_ini(configs / "nominal_fidelity_rrc.ini")
    assert fidelity.ideal_dob and not fidelity.gravity_on and fidelity.T_s == 1e-4
    load = suite_from_ini(configs / "load_variation_suite.ini")
    assert len(load.scenarios) == 6
    assert sorted({s.mass for s in load.scenarios}) == [0.75, 1.5, 2.25]
    collision = suite_from_ini(configs / "collision_suite.ini")
    assert len(collision.scenarios) == 6
    assert all(s.torque_limit == 40.0 for s in collision.scenarios)
    assert all(s.contact_position == pytest.approx(0.7 * math.pi / 2)
               for s in collision.scenarios)
    # every shipped file passes the unknown-key check of its loader(s)
    for path in configs.glob("*.ini"):
        if path.name == "analysis.ini":
            rootlocus_job_from_ini(path)
            condition_job_from_ini(path)
        elif path.name.endswith("_suite.ini"):
            suite_from_ini(path)
        else:
            scenario_from_ini(path)


@pytest.mark.parametrize("loader, text, section, key", [
    ("run", "[scenario]\nname = s\n\n[tuning]\nsample_perod = 0.5\n", "tuning", "sample_perod"),
    ("run", "[scenario]\nname = s\n\n[plant]\nJ_x = 0.5\n", "plant", "j_x"),
    ("suite", "[suite]\nname = s\nscenaros = a.ini\n", "suite", "scenaros"),
    ("rootlocus", "[rootlocus]\npoints = 5\nlambda_mx = 9.0\n", "rootlocus", "lambda_mx"),
    ("condition", "[condition]\nfilter_gain = 9.0\nmass = 1.0\n", "condition", "mass"),
])
def test_unknown_config_key_is_rejected(tmp_path, capsys, loader, text, section, key):
    from sea_l1ac.config_io import (
        condition_job_from_ini,
        rootlocus_job_from_ini,
        scenario_from_ini,
        suite_from_ini,
    )

    ini = tmp_path / "typo.ini"
    ini.write_text(text)
    load = {"run": scenario_from_ini, "suite": suite_from_ini,
            "rootlocus": rootlocus_job_from_ini, "condition": condition_job_from_ini}[loader]
    with pytest.raises(ConfigError) as exc_info:
        load(ini)
    message = str(exc_info.value)
    assert str(ini) in message and f"[{section}]" in message and repr(key) in message
    argv = [loader, str(ini)] if loader in ("run", "suite") else ["analyze", loader, str(ini)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert '"error": "config"' in capsys.readouterr().err


@pytest.mark.parametrize("loader, section, key, value", [
    ("run", "tuning", "observer_bandwidth", "nan"),
    ("run", "tuning", "sample_period", "nan"),
    ("run", "environment", "contact_stiffness", "nan"),
    ("run", "plant", "K_f", "inf"),
    ("rootlocus", "rootlocus", "lambda_max", "inf"),
    ("condition", "condition", "masses", "1.5 inf"),
    ("condition", "condition", "filter_time_constants", "0.01, -inf"),
])
def test_nonfinite_config_value_is_rejected(tmp_path, capsys, loader, section, key, value):
    from sea_l1ac.config_io import condition_job_from_ini, rootlocus_job_from_ini, scenario_from_ini

    text = f"[{section}]\n{key} = {value}\n"
    if loader == "run":
        text = "[scenario]\nname = s\n\n" + text
    ini = tmp_path / "nonfinite.ini"
    ini.write_text(text)
    load = {"run": scenario_from_ini, "rootlocus": rootlocus_job_from_ini,
            "condition": condition_job_from_ini}[loader]
    with pytest.raises(ConfigError) as exc_info:
        load(ini)
    message = str(exc_info.value)
    assert str(ini) in message and f"[{section}] {key}:" in message
    argv = ["run", str(ini)] if loader == "run" else ["analyze", loader, str(ini)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert '"error": "config"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("loader, text, message", [
    ("run", None, "config file not found"),
    ("run", "[tuning]\nsubsteps = 2\n", "missing [scenario] section"),
    ("suite", "[scenario]\n", "missing [suite] section"),
    ("rootlocus", "[condition]\n", "missing [rootlocus] section"),
    ("condition", "[rootlocus]\n", "missing [condition] section"),
    ("rootlocus", "[rootlocus]\nlambda_min = 0.0\n", "lambda_min must be positive on a log grid"),
    ("rootlocus", "[rootlocus]\nlambda_min = 2.0\nlambda_max = 1.0\n", "bad lambda grid"),
    ("rootlocus", "[rootlocus]\npoints = 0\n", "bad lambda grid"),
    ("rootlocus", "[rootlocus]\n[plant]\nJ_m = -1.0\n", "J_m must be strictly positive"),
    ("run", "[scenario]\nduration = -1.0\n", "duration must be positive"),
    ("suite", "[suite]\nscenarios = one.ini, one.ini\n", "scenario names within a suite"),
    ("condition", "[condition]\nfilter_gain = -1.0\n", "K_a must be positive"),
    ("condition", "[condition]\nfilter_time_constants = 0.0005\n",
     "filter time constant T must exceed the period T_s"),
    ("condition", "[condition]\nmasses = -3.0\n", "test mass -3.0 must be nonnegative"),
], ids=["absent", "no-scenario", "no-suite", "no-rootlocus", "no-condition", "log-grid",
        "reversed-grid", "no-points", "plant", "scenario", "suite", "condition-gain",
        "condition-time-constant", "condition-mass"])
def test_config_errors_start_with_the_file_path(tmp_path, capsys, loader, text, message):
    from sea_l1ac.config_io import (
        condition_job_from_ini,
        rootlocus_job_from_ini,
        scenario_from_ini,
        suite_from_ini,
    )

    (tmp_path / "one.ini").write_text("[scenario]\nname = one\n")
    ini = tmp_path / "bad.ini"
    if text is not None:
        ini.write_text(text)
    load = {"run": scenario_from_ini, "suite": suite_from_ini,
            "rootlocus": rootlocus_job_from_ini, "condition": condition_job_from_ini}[loader]
    with pytest.raises(ConfigError) as exc_info:
        load(ini)
    assert str(exc_info.value).startswith(f"{ini}: {message}")
    argv = [loader, str(ini)] if loader in ("run", "suite") else ["analyze", loader, str(ini)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert f'"error": "config", "detail": "{ini}: {message}' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_each_tuning_default_holds_its_value(tmp_path):
    from sea_l1ac.config_io import condition_job_from_ini

    l1, cfg = L1Config(), ScenarioConfig()
    assert (cfg.T_s, cfg.T, cfg.K_a) == (l1.T_s, l1.T, l1.K_a) == (1e-3, 0.01, 10.0)
    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text("[condition]\n")
    job = condition_job_from_ini(cfgfile)
    assert {(c.T_s, c.K_a) for c in job["configs"]} == {(cfg.T_s, cfg.K_a)} == {(1e-3, 10.0)}
    assert job["qd_peak"] == cfg.q_d_amplitude == math.pi / 2


def test_shipped_load_variation_suite_reproduces_the_comparison():
    from sea_l1ac.config_io import suite_from_ini

    configs = Path(__file__).resolve().parents[1] / "configs"
    suite = suite_from_ini(configs / "load_variation_suite.ini")
    result = run_suite(suite)
    assert result.ok
    # the adaptive law removes the static error the baseline leaves behind
    for scen in suite.scenarios:
        err = abs(result.metrics[scen.name].static_error_rad)
        if scen.controller == "l1ac":
            assert err < 0.01
        elif scen.mass != 1.5:
            assert 0.15 < err < 0.2


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

SCENARIO_INI = """
[scenario]
name = cli_smoke
controller = l1ac
duration = 0.3
mass = 2.25
gravity = on

[target]
amplitude = 1.0
start = 0.0
"""

SUITE_INI = """
[suite]
name = cli_suite
scenarios =
    one.ini
    two.ini
"""


def test_cli_run_and_metrics(tmp_path, capsys):
    scen = tmp_path / "s.ini"
    scen.write_text(SCENARIO_INI)
    shipped = Path(__file__).resolve().parents[1] / "configs" / "load_step_l1ac_m1500.ini"
    # the shipped scenario on a 2 ms grid, two 1 ms rise-delay shift steps
    # (the strided path), and on a 1.5 ms grid, which neither divides the
    # shift step nor is whole steps (the per-shift path)
    runs = [(scen, "cli_smoke", []), (shipped, shipped.stem, ["--ts", "0.002"]),
            (shipped, shipped.stem, ["--ts", "0.0015"])]
    for k, (ini, name, overrides) in enumerate(runs):
        out = tmp_path / f"out{k}"
        assert main(["run", str(ini), "--out-dir", str(out), *overrides]) == 0
        trace_file = out / f"{name}.csv"
        assert trace_file.exists() and (out / f"plot_{name}.py").exists()
        trace_line, run_metrics = capsys.readouterr().out.splitlines()
        assert trace_line == f"trace: {trace_file}"
        assert main(["metrics", str(trace_file)]) == 0
        payload = capsys.readouterr().out
        assert "static_error_rad" in payload
        # export and import are exact, so run's metrics are the trace file's to the bit
        assert run_metrics + "\n" == payload, overrides


def test_cli_run_with_overrides(tmp_path):
    scen = tmp_path / "s.ini"
    scen.write_text(SCENARIO_INI)
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out-dir", str(out), "--decimate", "5",
                 "--ts", "0.002", "--t-filter", "0.02", "--ka", "8.0"]) == 0
    trace = import_trace(out / "cli_smoke.csv")
    assert np.allclose(np.diff(trace["t_s"]), 0.01, atol=1e-12)


def _write_suite(tmp_path):
    (tmp_path / "one.ini").write_text(SCENARIO_INI.replace("cli_smoke", "one"))
    (tmp_path / "two.ini").write_text(
        SCENARIO_INI.replace("cli_smoke", "two").replace("l1ac", "rrc"))
    manifest = tmp_path / "suite.ini"
    manifest.write_text(SUITE_INI)
    return manifest


def test_cli_suite(tmp_path):
    manifest = _write_suite(tmp_path)
    out = tmp_path / "res"
    assert main(["suite", str(manifest), "--out-dir", str(out)]) == 0
    assert (out / "cli_suite_summary.csv").exists()
    assert (out / "one.csv").exists() and (out / "two.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--decimate", "0"), ("--ts", "0"), ("--ts", "nan"), ("--t-filter", "inf"), ("--ka", "nan"),
], ids=["--decimate", "--ts", "--ts-nan", "--t-filter-inf", "--ka-nan"])
def test_cli_suite_rejects_zero_override(tmp_path, capsys, flag, value):
    manifest = _write_suite(tmp_path)
    out = tmp_path / "res"
    assert main(["suite", str(manifest), "--out-dir", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err
    if value != "0":
        assert f"argument {flag}:" in err
    assert not (out / "one.csv").exists()


@pytest.mark.parametrize("text, where", [
    ("", ""),
    ("# name=x\n", ""),
    ("# name=x\n" + ",".join(TRACE_COLUMNS) + "\n0.0,1.0,2.0\n", "line 3"),
], ids=["empty", "metadata-only", "short-row"])
def test_malformed_trace_is_rejected(tmp_path, capsys, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc_info:
        import_trace(path)
    assert str(path) in str(exc_info.value) and where in str(exc_info.value)
    assert main(["metrics", str(path)]) == 2
    assert '"error": "config"' in capsys.readouterr().err


@pytest.mark.parametrize("manifest", ["load_variation_suite.ini", "collision_suite.ini"])
def test_cli_metrics_on_suite_traces_match_the_summary(tmp_path, capsys, manifest):
    import csv
    import json

    configs = Path(__file__).resolve().parents[1] / "configs"
    out = tmp_path / "res"
    assert main(["suite", str(configs / manifest), "--out-dir", str(out)]) == 0
    (summary,) = out.glob("*_summary.csv")
    rows = list(csv.DictReader(summary.read_text().splitlines()))
    assert len(rows) == 6
    capsys.readouterr()
    for row in rows:
        assert main(["metrics", str(out / f"{row['scenario']}.csv")]) == 0
        got = json.loads(capsys.readouterr().out)
        for key, value in got.items():
            assert row[key] == ("" if value is None else repr(value)), (row["scenario"], key)


def test_cli_run_and_suite_write_the_same_files_for_one_scenario(tmp_path, capsys):
    # one run-and-export path: the shipped scenario run alone, under
    # --check-condition, writes what the shipped suite writes for it, and its
    # design condition holds, so the check prints nothing
    configs = Path(__file__).resolve().parents[1] / "configs"
    name = "load_step_l1ac_m1500"
    assert main(["suite", str(configs / "load_variation_suite.ini"),
                 "--out-dir", str(tmp_path / "suite")]) == 0
    capsys.readouterr()
    assert main(["run", str(configs / f"{name}.ini"), "--check-condition",
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
    for file in (f"{name}.csv", f"plot_{name}.py"):
        assert (tmp_path / "run" / file).read_bytes() == (tmp_path / "suite" / file).read_bytes()


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    src = str(Path(sea_l1ac.__file__).resolve().parents[1])
    code = f"import sys, sea_l1ac, sea_l1ac.cli; print({_SCIPY_MODULES})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=src)
    assert proc.stdout.strip() == "[]"


def test_the_one_scipy_import_is_the_hold_pairs():
    # the import inside hold_response, and none at module level: an AST scan
    # of the package source
    found = []
    for path in sorted(Path(sea_l1ac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append((path.name, owner.get(node)))
    assert found == [("analysis.py", "hold_response")]


@pytest.mark.parametrize("what", ["condition", "rootlocus"])
def test_cli_design_tables_do_not_depend_on_the_blas_thread_count(tmp_path, what):
    # one OpenBLAS thread in a fresh interpreter, the default pool in this one
    src = str(Path(sea_l1ac.__file__).resolve().parents[1])
    config = str(Path(__file__).resolve().parents[1] / "configs" / "analysis.ini")
    argv = ["analyze", what, config, "--out-dir"]
    subprocess.run([sys.executable, "-m", "sea_l1ac.cli", *argv, str(tmp_path / "one")],
                   capture_output=True, check=True, cwd=src,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert main([*argv, str(tmp_path / "default")]) == 0
    one, default = (tmp_path / d / f"{what}.csv" for d in ("one", "default"))
    assert one.read_bytes() == default.read_bytes()


def _scipy_probe_argv(tmp_path, case):
    """Command-line arguments for one case of the scipy-loading test."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    out = ["--out-dir", str(tmp_path / "out")]
    if case == "metrics":
        trace = export_trace(run_scenario(_quick(controller="rrc", duration=0.2)),
                             tmp_path / "rrc.csv")
        return ["metrics", str(trace)]
    if case == "run-l1ac":
        scen = tmp_path / "s.ini"
        scen.write_text(SCENARIO_INI.replace("duration = 0.3", "duration = 0.05"))
        return ["run", str(scen), *out]
    return {
        "rootlocus": ["analyze", "rootlocus", str(configs / "analysis.ini"), *out],
        "condition": ["analyze", "condition", str(configs / "analysis.ini"), *out],
        "run-rrc": ["run", str(configs / "nominal_fidelity_rrc.ini"), *out],
        "run-rrc-check": ["run", str(configs / "collision_rrc_ke100.ini"), "--check-condition",
                          *out],
    }[case]


@pytest.mark.parametrize("case, loads_scipy", [
    ("metrics", False),
    ("rootlocus", False),
    ("run-rrc", False),
    ("run-rrc-check", False),
    ("run-l1ac", True),
    ("condition", False),
])
def test_cli_loads_scipy_only_to_build_the_adaptive_controller(tmp_path, case, loads_scipy):
    # a fresh interpreter per command, so nothing this test process loaded counts
    src = str(Path(sea_l1ac.__file__).resolve().parents[1])
    code = ("import sys\nfrom sea_l1ac.cli import main\nrc = main(sys.argv[1:])\n"
            f"print({_SCIPY_MODULES})\nsys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", code, *_scipy_probe_argv(tmp_path, case)],
                          capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    if loads_scipy:
        assert "'scipy.linalg'" in loaded
    else:
        assert loaded == "[]"


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_run_exports_partial_trace_on_divergence(tmp_path, capsys, command):
    scen = tmp_path / "d.ini"
    scen.write_text(
        "[scenario]\nname = diverge\ncontroller = l1ac\nduration = 6.0\n"
        "\n[tuning]\nsample_period = 0.008\n"
    )
    target = scen
    if command == "suite":
        target = tmp_path / "suite.ini"
        target.write_text("[suite]\nname = s\nscenarios = d.ini\n")
    out = tmp_path / "out"
    rc = main([command, str(target), "--out-dir", str(out)])
    assert rc == 3
    assert (out / "diverge_partial.csv").exists()
    assert not (out / "diverge.csv").exists()
    assert '"error": "numeric"' in capsys.readouterr().err


def test_divergence_stops_the_run_at_the_state_bound():
    # the baseline at T_s = 5 ms: the sampled observer loop is unstable, and
    # the run stops in the substep where the state's norm reaches the bound,
    # long before it would overflow
    cfg = _quick(name="bounded", controller="rrc", duration=3.0, T_s=5e-3)
    with pytest.raises(SimulationDivergence, match="past") as exc_info:
        run_scenario(cfg)
    partial = exc_info.value.partial_trace
    states = np.column_stack([partial[c] for c in TRACE_COLUMNS[1:5]])
    assert np.all(np.hypot.reduce(states, axis=1) < STATE_BOUND)
    assert len(partial) < 3.0 / 5e-3
    # a run that ends before it reaches the bound completes
    assert len(run_scenario(cfg.with_overrides(duration=(len(partial) - 1) * 5e-3))) > 0


def test_cli_run_past_the_state_bound_exits_3_with_a_partial_trace(capsys, tmp_path):
    # a state bounded only by overflow used to finish as a normal run, exit 0
    cfg = Path(__file__).resolve().parents[1] / "configs" / "load_step_rrc_m1500.ini"
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--ts", "0.005", "--out-dir", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["load_step_rrc_m1500_partial.csv"]
    err = capsys.readouterr().err
    assert '"error": "numeric"' in err and "past |x| = 1e+06" in err
    back = import_trace(out / "load_step_rrc_m1500_partial.csv")
    assert 0.0 < back["t_s"][-1] < 0.2


def test_cli_rejects_a_scenario_that_runs_no_step(tmp_path, capsys):
    scen = tmp_path / "s.ini"
    scen.write_text("[scenario]\nname = short\nduration = 0.0004\n")
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "must" in err
    assert not out.exists()


def test_cli_missing_config_reports_config_error(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.ini"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert '"error": "config"' in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "suite", "rootlocus", "condition", "metrics"])
def test_cli_io_error_exits_4_and_names_the_path(tmp_path, capsys, command):
    # an --out-dir that is a regular file, or a trace that is not there
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    manifest = _write_suite(tmp_path)
    analysis_ini = tmp_path / "an.ini"
    analysis_ini.write_text(
        "[rootlocus]\npoints = 3\n\n[condition]\nfilter_time_constants = 0.01\n")
    argv, path = {
        "run": (["run", str(tmp_path / "one.ini")], blocker),
        "suite": (["suite", str(manifest)], blocker),
        "rootlocus": (["analyze", "rootlocus", str(analysis_ini)], blocker),
        "condition": (["analyze", "condition", str(analysis_ini)], blocker),
        "metrics": (["metrics", str(tmp_path / "absent.csv")], tmp_path / "absent.csv"),
    }[command]
    if command != "metrics":
        argv += ["--out-dir", str(blocker)]
    assert main(argv) == 4
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "io" and str(path) in error["detail"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("tuning, category, code, shown", [
    ("filter_time_constant = 0.0005", "config", 2, "T must exceed the period T_s"),
    ("filter_gain = -1.0", "config", 2, "K_a must be positive"),
    ("filter_gain = 100.0", "config", 2, "C(s) is unstable"),  # K_a T >= 8/9
    ("observer_bandwidth = 50.0", "config", 2, "(g_ob=50, 10*omega=190.71)"),  # below 10 omega
    # 10 omega printed with :g, not as the 24 digits of its float
    ("[plant]\nK_f = 2e43", "config", 2, "(g_ob=500, 10*omega=7.61387e+22)"),
    ("sample_period = 0.008", "numeric", 3, "past |x|"),  # the loop diverges
], ids=["T", "K_a", "K_a-T", "g_ob", "K_f", "diverges"])
def test_cli_suite_reports_a_failed_scenario_as_run_does(tmp_path, capsys, tuning, category,
                                                           code, shown):
    (tmp_path / "one.ini").write_text(
        f"[scenario]\nname = one\ncontroller = l1ac\nduration = 6.0\n\n[tuning]\n{tuning}\n")
    manifest = tmp_path / "suite.ini"
    manifest.write_text("[suite]\nname = s\nscenarios = one.ini\n")
    for argv in (["run", str(tmp_path / "one.ini")], ["suite", str(manifest)]):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == code
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["error"] == category
        if argv[0] == "run":  # only the diverged loop writes a file: its partial trace
            assert (tmp_path / "out").exists() == (category == "numeric")
            # a value only the run refuses is named by its file, as the loader's are
            named = error["detail"].startswith(f"{tmp_path / 'one.ini'}: ")
            assert named == (category == "config") and shown in error["detail"]
    # with both kinds of failure the suite reports the graver one
    (tmp_path / "two.ini").write_text(
        "[scenario]\nname = two\n\n[tuning]\nfilter_time_constant = 0.0005\n")
    manifest.write_text("[suite]\nname = s\nscenarios =\n    one.ini\n    two.ini\n")
    assert main(["suite", str(manifest), "--out-dir", str(tmp_path / "out")]) == code
    assert f'"error": "{category}"' in capsys.readouterr().err


def test_cli_suite_summary_keeps_a_cell_that_holds_a_comma(tmp_path, capsys):
    # the failed scenario's name and its status both hold commas
    (tmp_path / "one.ini").write_text(
        "[scenario]\nname = a,b\ncontroller = l1ac\n\n[tuning]\nfilter_gain = 1000.0\n")
    manifest = tmp_path / "suite.ini"
    manifest.write_text("[suite]\nname = s\nscenarios = one.ini\n")
    assert main(["suite", str(manifest), "--out-dir", str(tmp_path / "out")]) == 2
    text = (tmp_path / "out" / "s_summary.csv").read_text()
    assert capsys.readouterr().out == text  # stdout shows the table as written
    header, *rows = csv.reader(text.splitlines())
    assert [len(row) for row in rows] == [len(header)]
    assert rows[0][0] == "a,b"
    assert rows[0][-1] == "closed low-pass filter C(s) is unstable for this (T, K_a)"


@pytest.mark.parametrize("line", ["", "scenarios =\n", "scenarios = ,\n", "scenarios = ,\n  ,\n"],
                         ids=["absent", "blank", "comma", "commas"])
def test_cli_suite_rejects_a_manifest_that_lists_no_scenario(tmp_path, capsys, line):
    manifest = tmp_path / "empty.ini"
    manifest.write_text(f"[suite]\nname = empty\n{line}")
    out = tmp_path / "res"
    assert main(["suite", str(manifest), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "[suite] scenarios" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [",", " , ,"])
def test_cli_condition_rejects_an_empty_time_constant_list(tmp_path, capsys, value):
    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text(f"[condition]\nfilter_time_constants = {value}\n")
    out = tmp_path / "an"
    assert main(["analyze", "condition", str(cfgfile), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "[condition] filter_time_constants" in err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "filter_gain = 1e-6\n",
    # the realization of the loop is so badly scaled that its eigenvalues
    # leave the left half-plane, though every pole is -omega or one of C(s)
    "[plant]\nK_f = 1e60\n",
    "[plant]\nK_f = 1e200\n",
    "[plant]\nK_f = 1e-200\n",
], ids=["slow_filter", "stiff_spring", "stiffer_spring", "soft_spring"])
def test_cli_condition_names_the_file_and_the_row_too_stiff_to_certify(tmp_path, capsys, line):
    cfgfile = tmp_path / "stiff.ini"
    cfgfile.write_text("[condition]\nfilter_time_constants = 0.01, 0.02\n" + line)
    out = tmp_path / "an"
    assert main(["analyze", "condition", str(cfgfile), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f'"error": "config", "detail": "{cfgfile}: T = 0.01: L1 norm too stiff' in err
    assert not out.exists()


@pytest.mark.parametrize("line, named", [
    ("max_contact_stiffness = -5\n", "max contact stiffness -5.0 "),
    ("masses = 1e308\n", "test masses [1e+308] "),
    ("max_contact_stiffness = 1e300\n[plant]\nJ_a = 1e-300\n",
     "max contact stiffness 1e+300 over J_a = 1e-300 "),
    ("[plant]\nK_f = 1e-300\nJ_a = 1e300\n", "K_f / J_a = 1e-300 / 1e+300 "),
    ("[plant]\nK_f = 1e300\nJ_a = 1e-300\n", "K_f / J_a = 1e+300 / 1e-300 "),
    ("[plant]\nJ_a = 1e-308\n", "K_f / J_a = 125.478 / 1e-308 "),
    ("[plant]\nK_f = 1e308\nJ_a = 1\n", "K_f / J_a = 1e+308 / 1.0 "),
], ids=["stiffness", "masses", "stiffness_over_inertia", "ratio_underflow", "ratio_overflow",
        "tiny_inertia", "gain_overflow"])
def test_cli_condition_names_the_envelope_value_it_refuses(tmp_path, capsys, line, named):
    # not the internal bound (L_2 or B_2) that the value would have made, a
    # table row, masses in range, or a numpy message: the plant refuses a
    # ratio K_f / J_a that is 0, or that overflows the baseline gain 5 K_f / J_a,
    # before any row is certified
    cfgfile = tmp_path / "envelope.ini"
    cfgfile.write_text("[condition]\n" + line)
    out = tmp_path / "an"
    assert main(["analyze", "condition", str(cfgfile), "--out-dir", str(out)]) == 2
    detail = json.loads(capsys.readouterr().err.splitlines()[-1])["detail"]
    assert detail.startswith(f"{cfgfile}: {named}")
    assert not out.exists()


def test_cli_condition_keeps_an_unstable_system_numeric(tmp_path, capsys, monkeypatch):
    from sea_l1ac import analysis

    def unstable(*args, **kwargs):
        raise analysis.UnstableSystemError("impulse response does not decay")

    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text("[condition]\n")
    out = tmp_path / "an"
    monkeypatch.setattr(analysis, "check_stability_condition", unstable)
    assert main(["analyze", "condition", str(cfgfile), "--out-dir", str(out)]) == 3
    assert '"detail": "impulse response does not decay"' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["", "filter_time_constants =\n"], ids=["absent", "blank"])
def test_condition_time_constants_keep_the_default_when_absent_or_blank(tmp_path, line):
    from sea_l1ac.config_io import condition_job_from_ini

    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text(f"[condition]\n{line}")
    assert [c.T for c in condition_job_from_ini(cfgfile)["configs"]] == [0.005, 0.01, 0.02]


def test_cli_analyze(tmp_path):
    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text(
        "[rootlocus]\nlambda_min = 1.0\nlambda_max = 100.0\npoints = 5\n"
        "\n[condition]\nfilter_time_constants = 0.01\nfilter_gain = 10.0\n"
    )
    out = tmp_path / "an"
    assert main(["analyze", "rootlocus", str(cfgfile), "--out-dir", str(out)]) == 0
    assert (out / "rootlocus.csv").exists()
    assert main(["analyze", "condition", str(cfgfile), "--out-dir", str(out)]) == 0
    assert (out / "condition.csv").exists()
    assert ",1," in (out / "condition.csv").read_text().splitlines()[1] or \
        (out / "condition.csv").read_text().splitlines()[1].split(",")[3] == "1"


def test_cli_rootlocus_cells_are_plain_numbers(tmp_path):
    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text("[rootlocus]\nlambda_min = 1.0\nlambda_max = 1e6\npoints = 12\n")
    out = tmp_path / "an"
    assert main(["analyze", "rootlocus", str(cfgfile), "--out-dir", str(out)]) == 0
    header, *rows = (out / "rootlocus.csv").read_text().splitlines()
    assert rows and header.startswith("lambda,")
    for row in rows:
        for cell in row.split(","):
            float(cell)


@pytest.mark.parametrize("lambda_min, points, rows", [(0.0, 3, 3), (1.0, 3, 4)])
def test_cli_rootlocus_writes_the_zero_row_once(tmp_path, lambda_min, points, rows):
    # include_zero prepends lambda = 0 unless the linear grid already starts there
    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text(
        f"[rootlocus]\nlambda_min = {lambda_min}\nlambda_max = 100.0\npoints = {points}\n"
        "log_scale = no\ninclude_zero = yes\n")
    out = tmp_path / "an"
    assert main(["analyze", "rootlocus", str(cfgfile), "--out-dir", str(out)]) == 0
    _, *body = (out / "rootlocus.csv").read_text().splitlines()
    lambdas = [float(row.split(",")[0]) for row in body]
    assert len(lambdas) == rows and lambdas[0] == 0.0 and lambdas.count(0.0) == 1
    assert lambdas == sorted(lambdas)


@pytest.mark.parametrize("grid, named", [
    ("lambda_min = 1.0\nlambda_max = 1e308\npoints = 3\n", "lambda gridpoint 1e+308 overflows"),
    ("lambda_min = -1\nlog_scale = off\n", "lambda gridpoint -1.0 must be finite"),
], ids=["overflow", "negative"])
def test_cli_rootlocus_rejects_a_stiffness_it_cannot_solve(tmp_path, capsys, grid, named):
    # both pass the grid's own checks: 1e308 overflows 2 w^2 lambda, and a
    # linear grid may start below 0; the detail names the file first
    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text("[rootlocus]\n" + grid)
    out = tmp_path / "an"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "rootlocus", str(cfgfile), "--out-dir", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config" and err["detail"].startswith(f"{cfgfile}: {named}")
    assert not out.exists()


def test_cli_usage_error_leaves_the_next_command_unchanged(tmp_path, capsys):
    # one parser serves every call in the process: an error or an override in
    # one call must not reach the next
    scen = tmp_path / "s.ini"
    scen.write_text(SCENARIO_INI.replace("controller = l1ac", "controller = rrc")
                    .replace("duration = 0.3", "duration = 0.05"))
    assert main(["run", str(scen), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(scen), "--ts", "nan", "--out-dir", str(tmp_path / "x")]) == 2
    assert main(["run", str(scen), "--bogus"]) == 2
    assert main(["analyze"]) == 2
    assert main(["run", str(scen), "--ts", "0.002", "--out-dir", str(tmp_path / "c")]) == 0
    assert main(["run", str(scen), "--out-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    first, last = ((tmp_path / d / "cli_smoke.csv").read_bytes() for d in "ab")
    assert first == last
    assert (tmp_path / "c" / "cli_smoke.csv").read_bytes() != first
    assert not (tmp_path / "x").exists()


def test_cli_builds_its_parser_at_the_first_command_not_at_import():
    src = str(Path(sea_l1ac.__file__).resolve().parents[1])
    code = ("import sea_l1ac.cli as cli; before = cli.build_parser.cache_info().currsize; "
            "cli.main(['analyze']); cli.main(['analyze']); info = cli.build_parser.cache_info(); "
            "print(before, info.currsize, info.misses)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=src)
    assert proc.stdout.split() == ["0", "1", "1"]


def test_cli_rejects_a_scenario_name_that_leaves_the_output_directory(tmp_path, capsys):
    scen = tmp_path / "s.ini"
    scen.write_text(SCENARIO_INI.replace("name = cli_smoke", "name = ../escaped"))
    out = tmp_path / "t" / "o1"
    assert main(["run", str(scen), "--out-dir", str(out)]) == 2
    assert "scenario name must be a plain file name" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_cli_condition_rejects_a_negative_test_mass(tmp_path, capsys):
    cfgfile = tmp_path / "an.ini"
    cfgfile.write_text("[condition]\nfilter_time_constants = 0.01\nmasses = -3.0, 1.5\n")
    assert main(["analyze", "condition", str(cfgfile), "--out-dir", str(tmp_path / "an")]) == 2
    assert "test mass -3.0 must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "an").exists()


@pytest.mark.parametrize("command", ["analyze", "run"])
def test_cli_refuses_a_filter_too_stiff_to_certify(tmp_path, capsys, command):
    # K_a = 1e-6 puts a 1e6 s pole in C(s): the L1 march would need 2e11 samples
    if command == "analyze":
        cfgfile = tmp_path / "an.ini"
        cfgfile.write_text("[condition]\nfilter_time_constants = 0.01\nfilter_gain = 1e-6\n")
        argv = ["analyze", "condition", str(cfgfile)]
    else:
        scen = tmp_path / "s.ini"
        scen.write_text(SCENARIO_INI)
        argv = ["run", str(scen), "--check-condition", "--ka", "1e-6"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert '"error": "config"' in err and "samples (at most 1e+07)" in err
    assert not (tmp_path / "out").exists()


def test_cli_condition_warning_for_bad_filter(tmp_path, capsys):
    scen = tmp_path / "s.ini"
    scen.write_text(SCENARIO_INI + "\n[tuning]\nfilter_time_constant = 1.0\n")
    out = tmp_path / "out"
    rc = main(["run", str(scen), "--out-dir", str(out), "--check-condition"])
    captured = capsys.readouterr()
    assert "condition violated" in captured.err
    assert rc != 0  # the unstable filter then fails controller construction
