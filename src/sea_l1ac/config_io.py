"""INI-file front end for scenarios, suites, and analysis jobs.

One file per scenario, one manifest per suite; plain key = value sections so
experiment definitions diff cleanly under version control.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np

from .analysis import StabilityBudget
from .controllers import L1Config
from .harness import ConfigError, ScenarioConfig, SuiteConfig
from .params import PlantParams, benchmark_params

_PLANT_KEYS = ("J_m", "J_a", "K_f", "G_0", "m_0", "K_t", "f_m")


def finite_float(raw) -> float:
    """float() that also rejects nan and the infinities."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


class _Ini:
    """A parsed INI file that must hold ``section``, and that remembers which
    keys its loader asked for.

    ``check_unknown`` then rejects any other key in a section the loader
    read, so a misspelt key fails instead of silently keeping its default.
    Sections the loader never reads are left alone: one file may hold the
    jobs of several loaders. Every ConfigError raised here starts with the
    file's path.
    """

    def __init__(self, path, section: str):
        self.path = path = Path(path)
        self.parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not self.parser.read(path):
            raise ConfigError(f"{path}: config file not found")
        if not self.parser.has_section(section):
            raise ConfigError(f"{path}: missing [{section}] section")
        self.asked: dict[str, set] = {}

    def get(self, section, key, conv, default):
        self.asked.setdefault(section, set()).add(self.parser.optionxform(key))
        parser = self.parser
        if not parser.has_section(section) or not parser.has_option(section, key):
            return default
        raw = parser.get(section, key).strip()
        if raw == "":
            return default
        try:
            if conv is bool:
                return parser.getboolean(section, key)
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: bad value for [{section}] {key}: {raw!r}") from exc

    def check_unknown(self):
        defaults = self.parser.defaults()
        for section, known in self.asked.items():
            if not self.parser.has_section(section):
                continue
            for key in self.parser.options(section):
                if key not in known and key not in defaults:
                    raise ConfigError(f"{self.path}: unknown key {key!r} in [{section}]")

    def make(self, cls, **fields):
        """``cls(**fields)``, its ValueError raised as a ConfigError naming the file."""
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc


def _plant_overrides(ini: _Ini) -> PlantParams | None:
    base = benchmark_params()
    values = {k: ini.get("plant", k, finite_float, None) for k in _PLANT_KEYS}
    if all(v is None for v in values.values()):
        return None
    return ini.make(PlantParams, m=base.m, **{
        k: getattr(base, k) if v is None else v for k, v in values.items()})


# (section, key) -> (ScenarioConfig field, converter); an absent or empty key
# keeps the dataclass default, except that the name defaults to the file's stem
_SCENARIO_KEYS = {
    ("scenario", "name"): ("name", str),
    ("scenario", "controller"): ("controller", str),
    ("scenario", "duration"): ("duration", finite_float),
    ("scenario", "mass"): ("mass", finite_float),
    ("scenario", "gravity"): ("gravity_on", bool),
    ("target", "amplitude"): ("q_d_amplitude", finite_float),
    ("target", "start"): ("q_d_start", finite_float),
    ("environment", "contact_stiffness"): ("contact_stiffness", finite_float),
    ("environment", "contact_position"): ("contact_position", finite_float),
    ("environment", "bilateral"): ("bilateral_contact", bool),
    ("tuning", "sample_period"): ("T_s", finite_float),
    ("tuning", "filter_time_constant"): ("T", finite_float),
    ("tuning", "filter_gain"): ("K_a", finite_float),
    ("tuning", "observer_bandwidth"): ("g_ob", finite_float),
    ("tuning", "substeps"): ("substeps", int),
    ("limits", "torque"): ("torque_limit", finite_float),
    ("simulation", "ideal_dob"): ("ideal_dob", bool),
    ("simulation", "decimate"): ("decimate", int),
}


def scenario_from_ini(path) -> ScenarioConfig:
    """Load one scenario definition from an INI file."""
    ini = _Ini(path, "scenario")
    values = {name: ini.get(section, key, conv, None)
              for (section, key), (name, conv) in _SCENARIO_KEYS.items()}
    fields = {"name": ini.path.stem, "params": _plant_overrides(ini)}
    fields.update((k, v) for k, v in values.items() if v is not None)
    ini.check_unknown()
    return ini.make(ScenarioConfig, **fields)


def suite_from_ini(path) -> SuiteConfig:
    """Load a suite manifest: a [suite] section listing scenario files."""
    ini = _Ini(path, "suite")
    path = ini.path
    name = ini.get("suite", "name", str, path.stem)
    raw = ini.get("suite", "scenarios", str, "")
    ini.check_unknown()
    entries = [tok.strip() for tok in raw.replace(",", "\n").splitlines() if tok.strip()]
    if not entries:
        raise ConfigError(f"{path}: [suite] scenarios lists no scenario file")
    scenarios = tuple(scenario_from_ini(path.parent / entry) for entry in entries)
    return ini.make(SuiteConfig, name=name, scenarios=scenarios)


def _float_list(raw: str) -> list[float]:
    return [finite_float(tok) for tok in raw.replace(",", " ").split()]


def rootlocus_job_from_ini(path) -> dict:
    """The contact-stiffness root locus job: its lambda grid, log or linear,
    with a lambda = 0 row first under include_zero unless the grid already
    starts there, and the plant parameters."""
    ini = _Ini(path, "rootlocus")
    lo = ini.get("rootlocus", "lambda_min", finite_float, 1e-2)
    hi = ini.get("rootlocus", "lambda_max", finite_float, 1e4)
    points = ini.get("rootlocus", "points", int, 61)
    log_scale = ini.get("rootlocus", "log_scale", bool, True)
    include_zero = ini.get("rootlocus", "include_zero", bool, True)
    params = _plant_overrides(ini) or benchmark_params()
    ini.check_unknown()
    if lo <= 0.0 and log_scale:
        raise ConfigError(f"{ini.path}: lambda_min must be positive on a log grid")
    if hi < lo or points < 1:
        raise ConfigError(f"{ini.path}: bad lambda grid")
    if log_scale:
        lambdas = np.logspace(np.log10(lo), np.log10(hi), points)
    else:
        lambdas = np.linspace(lo, hi, points)
    if include_zero and lambdas[0] != 0.0:
        lambdas = np.concatenate([[0.0], lambdas])
    return {"lambdas": lambdas, "params": params}


def condition_job_from_ini(path) -> dict:
    """The filter design-condition job: the plant parameters, the envelope's
    ``budget``, one L1Config per filter time constant, and ``qd_peak``."""
    ini = _Ini(path, "condition")
    time_constants = ini.get(
        "condition", "filter_time_constants", _float_list, [0.005, 0.01, 0.02])
    K_a = ini.get("condition", "filter_gain", finite_float, ScenarioConfig.K_a)
    T_s = ini.get("condition", "sample_period", finite_float, ScenarioConfig.T_s)
    qd_peak = ini.get("condition", "qd_peak", finite_float, ScenarioConfig.q_d_amplitude)
    envelope = {
        "masses": ini.get("condition", "masses", _float_list, [0.75, 1.5, 2.25]),
        "max_contact_stiffness": ini.get(
            "condition", "max_contact_stiffness", finite_float, 0.0),
        "gravity_comp": ini.get("condition", "gravity_comp", bool, True),
    }
    params = _plant_overrides(ini) or benchmark_params()
    ini.check_unknown()
    if not time_constants:
        raise ConfigError(f"{ini.path}: [condition] filter_time_constants lists no time constant")
    return {
        "params": params,
        "budget": ini.make(StabilityBudget.from_envelope, params=params, **envelope),
        "configs": [ini.make(L1Config, T_s=T_s, T=T, K_a=K_a) for T in time_constants],
        "qd_peak": qd_peak,
    }
