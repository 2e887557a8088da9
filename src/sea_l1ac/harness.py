"""Scenario definition, deterministic closed-loop runs, and metrics.

A scenario is a step command on the link position under one of the three
controller kinds (baseline, adaptive, adaptive without gravity feedforward)
with a configurable load mass, optional contact wall, torque limit, and
integrator sub-stepping. Runs are bit-reproducible: same configuration,
same trace.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .analysis import analytic_nominal_response
from .controllers import (
    DisturbanceObserver,
    L1Config,
    L1Controller,
    ReferenceSystem,
    RrcController,
    ideal_motor_side_compensation,
)
from .params import EnvironmentModel, PlantParams, benchmark_params
from .plant import _link_gravity_gains, _rk4_tuple, reference_disturbances


class ConfigError(ValueError):
    """A scenario or suite configuration is not usable."""


class SimulationDivergence(RuntimeError):
    """Numeric blow-up mid-run; carries the rows recorded so far."""

    def __init__(self, message: str, partial_trace: "RunTrace | None" = None):
        super().__init__(message)
        self.partial_trace = partial_trace


# A run raises SimulationDivergence once the Euclidean norm of the plant
# state [q, q', theta, theta'] reaches this bound (so once any one state's
# magnitude does) or stops being a number. The shipped scenarios peak at
# |state| 6.7; an unstably sampled loop grows past any bound.
STATE_BOUND = 1e6

CONTROLLER_KINDS = ("rrc", "l1ac", "l1ac-nogc")
_REAL_FIELDS = ("q_d_amplitude", "q_d_start", "mass", "duration", "contact_stiffness",
                "contact_position", "T_s", "T", "K_a", "g_ob", "torque_limit")
_KIND_ALIASES = {"l1ac-no-gravity-comp": "l1ac-nogc"}


def _check_file_stem(name, what: str):
    """Output files are named after scenarios and suites, so a name must be a
    plain file stem: a non-empty str with no path separator, not . or .."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{what} name must be a plain file name, not {name!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one closed-loop experiment."""

    name: str = "scenario"
    controller: str = "l1ac"
    q_d_amplitude: float = math.pi / 2
    q_d_start: float = 0.0
    mass: float = 1.5
    duration: float = 3.0
    contact_stiffness: float = 0.0
    contact_position: float = 0.0
    bilateral_contact: bool = False
    gravity_on: bool = True
    T_s: float = L1Config.T_s
    T: float = L1Config.T
    K_a: float = L1Config.K_a
    g_ob: float = 500.0
    substeps: int = 1
    torque_limit: float | None = None
    ideal_dob: bool = False
    decimate: int = 1
    track_reference: bool = False
    params: PlantParams = field(default_factory=benchmark_params)

    def __post_init__(self):
        _check_file_stem(self.name, "scenario")
        # every real-valued field is kept as a float, so an integer value
        # exports as the float its import reads back (mass=2 as 2.0)
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is None and name == "torque_limit":
                continue
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, not {value!r}")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.controller, str):
            raise ConfigError(f"controller kind must be a str, not {self.controller!r}")
        kind = _KIND_ALIASES.get(self.controller.lower(), self.controller.lower())
        object.__setattr__(self, "controller", kind)
        if kind not in CONTROLLER_KINDS:
            raise ConfigError(f"unknown controller kind {self.controller!r}")
        # written so that nan fails every check; the upper limits reject inf
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("duration must be positive")
        if not 0.0 < self.T_s < math.inf:
            raise ConfigError("T_s must be positive")
        # the control loop runs int(round(duration / T_s)) steps
        steps = self.duration / self.T_s
        if not (steps < math.inf and int(round(steps)) >= 1):
            raise ConfigError("duration must give a finite step count of at least 1, "
                              f"not duration / T_s = {steps:g}")
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
                   for v in (self.substeps, self.decimate)):
            raise ConfigError("substeps and decimate must be integers >= 1")
        for name in ("bilateral_contact", "gravity_on", "ideal_dob", "track_reference"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a bool")
        if self.track_reference and kind == "rrc":
            raise ConfigError("reference tracking needs the adaptive controller")
        if not 0.0 <= self.mass < math.inf:
            raise ConfigError("mass must be nonnegative")
        if not isinstance(self.params, PlantParams):
            raise ConfigError(f"params must be a PlantParams, not {self.params!r}")
        for name in ("q_d_amplitude", "q_d_start", "contact_position"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite")
        if not 0.0 <= self.contact_stiffness < math.inf:
            raise ConfigError("contact stiffness must be nonnegative and finite")
        if self.torque_limit is not None and not 0.0 < self.torque_limit < math.inf:
            raise ConfigError("torque limit must be positive when set")

    @property
    def gravity_feedforward(self) -> bool:
        """The adaptive law feeds gravity forward: ``l1ac`` with gravity on."""
        return self.gravity_on and self.controller == "l1ac"

    def make_environment(self) -> EnvironmentModel:
        return EnvironmentModel(
            K_e=self.contact_stiffness,
            q_0=self.contact_position,
            bilateral=self.bilateral_contact,
        )

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


TRACE_COLUMNS = (
    "t_s",
    "q_rad",
    "dq_rad_per_s",
    "theta_rad",
    "dtheta_rad_per_s",
    "tau_m_Nm",
    "current_permil",
    "sigma22_hat",
    "xtilde_inf",
    "u1",
    "u2",
)


@dataclass
class RunTrace:
    """Uniform-grid time series of one run plus export metadata.

    ``columns`` maps each name in TRACE_COLUMNS to a float array of equal
    length; ``meta`` holds the scalars needed to interpret the trace
    (target, contact geometry, torque constant); ``aux`` carries run
    diagnostics that are not part of the export format.
    """

    columns: dict
    meta: dict
    aux: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.columns["t_s"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]


@dataclass(frozen=True)
class MetricsReport:
    """Quantified step-response quality of one trace."""

    static_error_rad: float
    overshoot_pct: float
    settling_time_s: float | None
    peak_current_permil: float
    rise_delay_s: float
    peak_speed_after_contact: float | None


def _columns(rows: np.ndarray) -> dict:
    """The trace columns of a (samples, len(TRACE_COLUMNS)) array: views
    of one transposed copy, so each column is contiguous."""
    data = rows.T.copy()  # row j is TRACE_COLUMNS[j]
    return {name: data[j] for j, name in enumerate(TRACE_COLUMNS)}


def _reference_error(reference: ReferenceSystem, disturbances, log: array, x_final) -> float:
    """max |x_r(k) - x(k)| over the four states and k = 1 .. n.

    ``log`` holds one row (x, tau_dob, q_d, u_gc, g_ff1) per step k = 0 .. n - 1
    and ``x_final`` is x(n), or None when the last logged step diverged, whose
    x is then x(n). x_r starts from x(0), driven by ``disturbances`` at each x(k).
    """
    steps = np.array(log).reshape(-1, 8)
    if x_final is None:
        steps, x_final = steps[:-1], steps[-1, :4]
    if len(steps) == 0:
        return 0.0
    x = steps[:, :4]
    u = np.zeros((len(steps), 9))  # one input row of ReferenceSystem.step per sample
    u[:, 0], u[:, 2] = disturbances(x, steps[:, 4])
    u[:, 2] -= steps[:, 7]  # the filter sees the part of sigma22 that g_ff1 leaves
    u[:, [4, 5, 7]] = steps[:, 5:]  # q_d, u_gc, g_ff1
    return float(np.max(np.abs(reference.run(x[0], u) - np.vstack([x[1:], x_final]))))


def closed_loop(cfg: ScenarioConfig):
    """``(controller, period, disturbances)`` of the loop ``cfg`` describes.

    ``period(x, q_d) -> (record, tau_dob, x_next)`` is one controller period
    from the state x: the observer's estimate tau_dob, the law's ``record``
    (``controller.step``'s tuple, tau_m first), then ``substeps`` observer
    updates and RK4 steps of h = T_s / substeps under the held tau_m.
    ``x_next`` is None once a plant step's state reaches ``STATE_BOUND`` in
    norm or stops being a number. ``disturbances(x, tau_dob)`` is
    ``plant.reference_disturbances`` of this plant and environment.
    """
    params, env = cfg.params, cfg.make_environment()
    gains = _link_gravity_gains(params, cfg.mass, cfg.gravity_on)
    h = cfg.T_s / cfg.substeps
    if cfg.ideal_dob:  # the observer's zero-lag limit, which has no state to advance
        estimate, advance = (lambda x: ideal_motor_side_compensation(x, params)), (lambda *_: None)
    else:
        dob = DisturbanceObserver(cfg.g_ob, params, h)
        estimate, advance = (lambda x: dob.estimate(x[3])), dob.advance
    controller = (
        RrcController(params, gravity_comp=cfg.gravity_on, torque_limit=cfg.torque_limit)
        if cfg.controller == "rrc" else
        L1Controller(params, L1Config(T_s=cfg.T_s, T=cfg.T, K_a=cfg.K_a),
                     gravity_comp=cfg.gravity_feedforward, torque_limit=cfg.torque_limit))
    control, norm, bound, substeps = controller.step, math.hypot, STATE_BOUND, range(cfg.substeps)

    def period(x, q_d):
        tau_dob = estimate(x)
        record = control(x, q_d, tau_dob)
        tau_m = record[0]
        for _ in substeps:
            advance(tau_m, x[3])
            x = _rk4_tuple(x, tau_m, h, params, env, gains)
            if not norm(*x) < bound:  # nan fails too
                return record, tau_dob, None
        return record, tau_dob, x

    return controller, period, lambda x, tau_dob: reference_disturbances(
        x, tau_dob, params, env, gains)


def run_scenario(cfg: ScenarioConfig) -> RunTrace:
    """Execute one scenario and return its trace.

    Loops ``closed_loop(cfg)``'s period from rest under the step command and
    records every ``decimate``-th period's row. Once a period returns no
    state it raises SimulationDivergence, which gives that period's start
    time and carries the partial trace, whose last row is that period's.
    With ``track_reference`` the loop logs each period's state and reference
    inputs, and ``aux["ref_err_max"]`` is max |x_r(k) - x(k)|, k = 1 .. n,
    over the sample instants k T_s (README, "Reference-system error").
    """
    controller, period, disturbances = closed_loop(cfg)
    reference = ReferenceSystem(controller) if cfg.track_reference else None
    meta = {key: getattr(cfg, key) for key in ("name", "controller", "q_d_amplitude", "q_d_start",
                                               "mass", "contact_stiffness", "contact_position")}
    meta.update(K_t=cfg.params.K_t, omega=cfg.params.omega)

    # the loop reads locals only; the step command q_d switches on at
    # q_d_start, 1e-12 s early so that a start on the sample grid is met
    T_s, decimate, K_t = cfg.T_s, cfg.decimate, cfg.params.K_t
    amplitude, switch_on = cfg.q_d_amplitude, cfg.q_d_start - 1e-12
    rows, log = array("d"), array("d")  # trace rows; reference log, every step
    record_row, record_step = rows.extend, log.extend
    xtilde_max = 0.0

    def finish(x_final):
        # the trace so far; x_final is x(n), or None after a divergence
        aux = {"xtilde_max": xtilde_max}
        if reference is not None:
            aux["ref_err_max"] = _reference_error(reference, disturbances, log, x_final)
        return RunTrace(columns=_columns(np.frombuffer(rows).reshape(-1, len(TRACE_COLUMNS))),
                        meta=meta, aux=aux)

    x = (0.0, 0.0, 0.0, 0.0)
    for i in range(int(round(cfg.duration / T_s))):
        t = i * T_s
        q_d = amplitude if t >= switch_on else 0.0
        (tau_m, u1, u2, xtilde_inf, sigma22_hat, u_gc, g_ff1), tau_dob, x_next = period(x, q_d)
        if reference is not None:
            record_step((*x, tau_dob, q_d, u_gc, g_ff1))
        if xtilde_inf > xtilde_max:
            xtilde_max = xtilde_inf
        if i % decimate == 0:
            record_row((t, *x, tau_m, tau_m / K_t, sigma22_hat, xtilde_inf, u1, u2))
        if x_next is None:
            raise SimulationDivergence(f"state diverged past |x| = {STATE_BOUND:g} at t={t:.4f} s "
                                       f"in scenario {cfg.name!r}", finish(None))
        x = x_next
    return finish(x)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def compute_metrics(trace: RunTrace) -> MetricsReport:
    """Step-response metrics of a trace, read from its columns and ``meta``.

    ``meta`` must hold ``q_d_amplitude``, ``q_d_start`` and ``omega``, which
    ``run_scenario`` writes and an exported trace keeps; the contact geometry
    ``contact_stiffness`` and ``contact_position`` default to no wall.
    Unsettled traces get settling_time None.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    meta = trace.meta
    amplitude = _meta_value(meta, "q_d_amplitude")
    start = _meta_value(meta, "q_d_start")
    omega = _meta_value(meta, "omega")
    k_e = _meta_value(meta, "contact_stiffness", 0.0)
    q_0 = _meta_value(meta, "contact_position", 0.0)
    for name in ("t_s", "q_rad", "current_permil", "dq_rad_per_s"):
        bad = np.flatnonzero(~np.isfinite(trace[name]))
        if bad.size:
            raise ValueError(f"trace column {name} sample {bad[0]} = "
                             f"{float(trace[name][bad[0]])!r} is not a finite number")

    t = trace["t_s"]
    q = trace["q_rad"]
    tail = max(1, int(round(0.1 * len(q))))
    static_error = float(np.mean(q[-tail:]) - amplitude)

    if amplitude > 0.0:
        over = float(np.max(q) - amplitude)
    elif amplitude < 0.0:
        over = float(amplitude - np.min(q))
    else:
        over = 0.0
    overshoot_pct = max(0.0, over / abs(amplitude) * 100.0) if amplitude != 0.0 else 0.0

    settling = _settling_time(t, q, amplitude, start)
    peak_current = float(np.max(np.abs(trace["current_permil"])))
    rise_delay = _rise_delay(t, q, amplitude, start, omega)

    peak_speed = None
    if k_e > 0.0:
        hit = np.nonzero(q > q_0)[0]
        if hit.size:
            peak_speed = float(np.max(np.abs(trace["dq_rad_per_s"][hit[0]:])))

    return MetricsReport(
        static_error_rad=static_error,
        overshoot_pct=overshoot_pct,
        settling_time_s=settling,
        peak_current_permil=peak_current,
        rise_delay_s=rise_delay,
        peak_speed_after_contact=peak_speed,
    )


def _meta_value(meta: dict, key: str, default: float | None = None) -> float:
    """``meta[key]`` (or ``default`` when given and the key is absent) as a
    finite float; ValueError names the key otherwise."""
    if key not in meta and default is None:
        raise ValueError(f"trace metadata has no {key!r}")
    value = meta.get(key, default)
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"trace metadata {key}={value!r} is not a finite number")
    return float(value)


def _settling_time(t, q, amplitude, start) -> float | None:
    if amplitude == 0.0:
        return 0.0
    band = 0.02 * abs(amplitude)
    active = t >= start
    dev = np.abs(q - amplitude)
    violations = np.nonzero(active & (dev > band))[0]
    if violations.size == 0:
        return 0.0
    last = violations[-1]
    if last + 1 >= len(t):
        return None
    return float(t[last + 1] - start)


def _rise_delay(t, q, amplitude, start, omega, max_shift=0.5, step=1e-3) -> float:
    """The shift, out of 0, step, ..., max_shift, whose delayed analytic
    nominal response best matches ``q`` in least squares; the smallest shift
    of least cost wins ties.

    On a uniform ``t`` whose spacing dt is step / m, 1 <= m < len(t), or
    r step, the response is evaluated once on the grid of spacing
    h = dt / r (r = 1 in the first case) that holds ``t`` and extends back
    by max_shift = K step; shift k step reads every r-th sample of it from
    offset m (K - k), so the costs equal the per-shift ones up to rounding.
    On any other grid each shift's response is evaluated at ``t - shift``.
    """
    n, count = len(t), int(round(max_shift / step)) + 1
    since_start = t - start
    dt = (since_start[-1] - since_start[0]) / (n - 1) if n > 1 else 0.0
    m = max(round(step / dt), 1) if dt * n > step else 0
    r = max(round(dt / step), 1)
    h, span = dt / r, m * (count - 1)
    if (1 <= m < n and abs((count - 1) * step - span * h) <= 1e-6 * h
            and np.max(np.abs(since_start - (since_start[0] + dt * np.arange(n)))) <= 1e-6 * dt):
        grid = since_start[0] + h * np.arange(-span, (n - 1) * r + 1)
        grid[span::r] = since_start
        response = analytic_nominal_response(amplitude, omega, grid)
        slices = (response[span - m * k::r][:n] for k in range(count))
    else:
        slices = (analytic_nominal_response(amplitude, omega, since_start - k * step)
                  for k in range(count))
    costs = [float(d @ d) for d in (q - ref for ref in slices)]
    return float(np.argmin(costs)) * step


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    name: str
    scenarios: tuple[ScenarioConfig, ...]

    def __post_init__(self):
        _check_file_stem(self.name, "suite")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ConfigError("scenario names within a suite must be unique")


@dataclass
class SuiteResult:
    """Per-scenario traces and metrics; failures are isolated per scenario."""

    name: str
    traces: dict
    metrics: dict
    errors: dict

    @property
    def ok(self) -> bool:
        return not self.errors


def run_suite(suite: SuiteConfig) -> SuiteResult:
    """Run every scenario, isolating per-scenario failures."""
    traces, metrics, errors = {}, {}, {}
    for scen in suite.scenarios:
        try:
            trace = run_scenario(scen)
            traces[scen.name] = trace
            metrics[scen.name] = compute_metrics(trace)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            errors[scen.name] = exc
    return SuiteResult(name=suite.name, traces=traces, metrics=metrics, errors=errors)


def summary_table(suite: SuiteConfig, result: SuiteResult) -> list[list]:
    """Comparison table rows (header first) for the suite outcome."""
    metrics = [f.name for f in fields(MetricsReport)]
    rows = [["scenario", "controller", "mass_kg", "contact_stiffness", *metrics, "status"]]
    for scen in suite.scenarios:
        error = result.errors.get(scen.name)
        values = [""] * len(metrics) if error is not None else [
            "" if v is None else v for v in astuple(result.metrics[scen.name])]
        rows.append([scen.name, scen.controller, scen.mass, scen.contact_stiffness,
                     *values, "ok" if error is None else str(error)])
    return rows
