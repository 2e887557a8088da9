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
from functools import partial

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
from .nominal import build_nominal_model, build_rrc_gains
from .params import EnvironmentModel, PlantParams, benchmark_params
from .plant import _link_gravity_gains, _rk4_tuple, contact_torque


class ConfigError(ValueError):
    """A scenario or suite configuration is not usable."""


class SimulationDivergence(RuntimeError):
    """Numeric blow-up mid-run; carries the rows recorded so far."""

    def __init__(self, message: str, partial_trace: "RunTrace | None" = None):
        super().__init__(message)
        self.partial_trace = partial_trace


CONTROLLER_KINDS = ("rrc", "l1ac", "l1ac-nogc")
_KIND_ALIASES = {"l1ac-no-gravity-comp": "l1ac-nogc"}


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
    T_s: float = 1e-3
    T: float = 0.01
    K_a: float = 10.0
    g_ob: float = 500.0
    substeps: int = 1
    torque_limit: float | None = None
    ideal_dob: bool = False
    decimate: int = 1
    track_reference: bool = False
    params: PlantParams | None = None

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.controller.lower(), self.controller.lower())
        object.__setattr__(self, "controller", kind)
        if kind not in CONTROLLER_KINDS:
            raise ConfigError(f"unknown controller kind {self.controller!r}")
        # written so that nan fails every check; the upper limits reject inf
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("duration must be positive")
        if not 0.0 < self.T_s < math.inf:
            raise ConfigError("T_s must be positive")
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
                   for v in (self.substeps, self.decimate)):
            raise ConfigError("substeps and decimate must be integers >= 1")
        for name in ("bilateral_contact", "gravity_on", "ideal_dob", "track_reference"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a bool")
        if not 0.0 <= self.mass < math.inf:
            raise ConfigError("mass must be nonnegative")
        for name in ("q_d_amplitude", "q_d_start", "contact_position"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite")
        if not 0.0 <= self.contact_stiffness < math.inf:
            raise ConfigError("contact stiffness must be nonnegative and finite")
        if self.torque_limit is not None and not 0.0 < self.torque_limit < math.inf:
            raise ConfigError("torque limit must be positive when set")

    def make_params(self) -> PlantParams:
        base = self.params if self.params is not None else benchmark_params()
        return base.with_mass(self.mass)

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


def _columns(rows: array) -> dict:
    data = np.array(rows).reshape(-1, len(TRACE_COLUMNS))
    data = np.ascontiguousarray(data.T)  # row j is TRACE_COLUMNS[j]
    return {name: data[j] for j, name in enumerate(TRACE_COLUMNS)}


def _reference_error(reference: ReferenceSystem, log: array, x_final,
                     params: PlantParams, env: EnvironmentModel, gravity_gains) -> float:
    """max |x_r(k) - x(k)| over the four states and k = 1 .. n.

    ``log`` holds one row (x, tau_dob, q_d, u_gc, g_ff1) per controller
    step k = 0 .. n - 1 and ``x_final`` is x(n); None means the run
    diverged in the last logged step, whose x is then x(n). The reference
    system starts from x(0), driven by the true disturbances the log
    implies, with the plant's own ``gravity_gains``.
    """
    steps = np.array(log).reshape(-1, 8)
    if x_final is None:
        steps, x_final = steps[:-1], steps[-1, :4]
    n = len(steps)
    if n == 0:
        return 0.0
    q, _, theta, dtheta, tau_dob, q_d, u_gc, g_ff1 = steps.T
    tau_spring = params.K_f * (theta - q)
    link_torque = np.fromiter(map(partial(contact_torque, env), q.tolist()), float, n)
    if gravity_gains is not None:
        link_torque = link_torque + gravity_gains[1] * np.sin(q)
    u = np.zeros((n, 9))  # the arguments of ReferenceSystem.step, in order
    u[:, 0] = (tau_dob - params.f_m * dtheta - tau_spring) / params.J_m
    u[:, 2] = -link_torque / params.J_a - g_ff1
    u[:, 4] = q_d
    u[:, 5] = u_gc
    u[:, 7] = g_ff1
    x_r = reference.run(steps[0, :4], u)
    x = np.vstack([steps[1:, :4], x_final])
    return float(np.max(np.abs(x_r - x)))


def run_scenario(cfg: ScenarioConfig) -> RunTrace:
    """Execute one scenario and return its trace.

    The controller runs once per T_s; the plant (and the disturbance
    observer, which needs the fastest rate available) advance ``substeps``
    times per controller step. Raises SimulationDivergence with the partial
    trace attached if the state stops being finite.

    With ``track_reference`` the loop records each step's state and the
    reference inputs; the reference system then runs once over them after
    the loop (its state never feeds back), and ``aux["ref_err_max"]`` is
    max |x_r(k) - x(k)| at the sample instants k T_s, k = 1 .. n, where
    x(n) is the state after the last step.
    """
    params = cfg.make_params()
    env = cfg.make_environment()
    gains = build_rrc_gains(params)
    model = build_nominal_model(params, gains)
    h = cfg.T_s / cfg.substeps

    dob = None
    if not cfg.ideal_dob:
        dob = DisturbanceObserver(cfg.g_ob, params, h)

    if cfg.controller == "rrc":
        controller = RrcController(
            params, gains, gravity_comp=cfg.gravity_on, torque_limit=cfg.torque_limit
        )
    else:
        controller = L1Controller(
            params,
            gains,
            model,
            L1Config(T_s=cfg.T_s, T=cfg.T, K_a=cfg.K_a),
            gravity_comp=cfg.gravity_on and cfg.controller == "l1ac",
            torque_limit=cfg.torque_limit,
        )

    reference = None
    if cfg.track_reference:
        if cfg.controller == "rrc":
            raise ConfigError("reference tracking needs the adaptive controller")
        reference = ReferenceSystem(controller)

    meta = {
        "name": cfg.name,
        "controller": cfg.controller,
        "q_d_amplitude": cfg.q_d_amplitude,
        "q_d_start": cfg.q_d_start,
        "mass": cfg.mass,
        "contact_stiffness": cfg.contact_stiffness,
        "contact_position": cfg.contact_position,
        "K_t": params.K_t,
        "omega": params.omega,
    }

    # the loop reads locals only; the step command q_d switches on at
    # q_d_start, 1e-12 s early so that a start on the sample grid is met
    T_s, decimate, substeps, K_t = cfg.T_s, cfg.decimate, cfg.substeps, params.K_t
    amplitude, switch_on = cfg.q_d_amplitude, cfg.q_d_start - 1e-12
    ideal_dob, tracking = cfg.ideal_dob, reference is not None
    gravity_gains = _link_gravity_gains(params, cfg.gravity_on)
    control, isfinite = controller.step, math.isfinite
    rows, log = array("d"), array("d")  # trace rows; reference log, every step
    record_row, record_step = rows.extend, log.extend
    xtilde_max = 0.0

    def finish(x_final):
        # the trace so far; x_final is x(n), or None after a divergence
        aux = {"xtilde_max": xtilde_max}
        if tracking:
            aux["ref_err_max"] = _reference_error(reference, log, x_final, params, env,
                                                  gravity_gains)
        return RunTrace(columns=_columns(rows), meta=meta, aux=aux)

    x = (0.0, 0.0, 0.0, 0.0)
    for i in range(int(round(cfg.duration / T_s))):
        t = i * T_s
        q_d = amplitude if t >= switch_on else 0.0
        if ideal_dob:
            tau_dob = ideal_motor_side_compensation(x, params)
        else:
            tau_dob = dob.estimate(x[3])
        tau_m, u1, u2, xtilde_inf, sigma22_hat, u_gc, g_ff1 = control(x, q_d, tau_dob)
        if tracking:
            record_step((*x, tau_dob, q_d, u_gc, g_ff1))
        if xtilde_inf > xtilde_max:
            xtilde_max = xtilde_inf
        if i % decimate == 0:
            record_row((t, *x, tau_m, tau_m / K_t, sigma22_hat, xtilde_inf, u1, u2))

        for _ in range(substeps):
            if dob is not None:
                dob.advance(tau_m, x[3])
            x = _rk4_tuple(x, tau_m, h, params, env, gravity_gains)
            if not all(map(isfinite, x)):
                raise SimulationDivergence(
                    f"state diverged at t={t:.4f} s in scenario {cfg.name!r}", finish(None)
                )
    return finish(x)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def compute_metrics(trace: RunTrace, cfg: ScenarioConfig | None = None) -> MetricsReport:
    """Step-response metrics; unsettled traces get settling_time None."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    meta = trace.meta
    omega = _meta_value(meta, "omega", benchmark_params().omega)
    if cfg is not None:
        amplitude, start = cfg.q_d_amplitude, cfg.q_d_start
        k_e, q_0 = cfg.contact_stiffness, cfg.contact_position
    else:
        amplitude = _meta_value(meta, "q_d_amplitude")
        start = _meta_value(meta, "q_d_start")
        k_e = _meta_value(meta, "contact_stiffness", 0.0)
        q_0 = _meta_value(meta, "contact_position", 0.0)

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
    """Time shift of the trace that best matches the analytic nominal response.

    The shifts are 0, step, ..., max_shift. A shift's cost is
    ``sum((q - analytic_nominal_response(amplitude, omega, t - start - shift))**2)``
    over the whole trace, and the smallest shift of least cost wins ties.

    Only the shifts ``_screened_shifts`` cannot rule out are evaluated with
    that formula, in ascending order with strict ``<``, so the result is the
    one a loop over every shift returns. On a uniform ``t`` grid whose
    spacing divides ``step`` into fewer than ``len(t)`` parts the screen
    keeps a handful; on any other grid, or when a screened cost is not
    finite, it keeps every shift.
    """
    shifts = np.arange(0.0, max_shift + step / 2, step)
    since_start = t - start
    best_shift, best_cost = 0.0, math.inf
    for k in _screened_shifts(since_start, q, amplitude, omega, shifts):
        ref = analytic_nominal_response(amplitude, omega, since_start - shifts[k])
        cost = float(np.sum((q - ref) ** 2))
        if cost < best_cost:
            best_cost, best_shift = cost, float(shifts[k])
    return best_shift


_EPS = float(np.finfo(float).eps)
# max |d/dt analytic_nominal_response| / (|q_d| omega): the peak of x^3 e^-x / 6, at x = 3
_RESPONSE_SLOPE = 27.0 / 6.0 * math.exp(-3.0)


def _screened_shifts(since_start, q, amplitude, omega, shifts):
    """Indices of the shifts whose exact cost may be the least.

    On a uniform grid with ``step = m * dt`` the response delayed by shift k
    is, up to rounding, the response on the grid extended back by
    ``m * (len(shifts) - 1)`` samples, read from offset ``m * (K - k)``. One
    response evaluation then screens every shift.
    """
    n, count = len(since_start), len(shifts)
    everything = range(count)
    if n < 2 or count < 2:
        return everything
    dt = (since_start[-1] - since_start[0]) / (n - 1)
    ratio = (shifts[1] - shifts[0]) / dt if dt > 0.0 else 0.0
    m = round(ratio) if math.isfinite(ratio) else 0
    if not 1 <= m < n:  # m >= n: the extended grid outgrows the loop's evaluations
        return everything
    lag = m * np.arange(count)
    nonuniform = float(np.max(np.abs(since_start - (since_start[0] + dt * np.arange(n)))))
    mismatch = float(np.max(np.abs(shifts - dt * lag)))
    if not (nonuniform <= 1e-6 * dt and mismatch <= 1e-6 * dt):
        return everything

    span = int(lag[-1])
    grid = np.concatenate((since_start[0] - dt * np.arange(span, 0, -1), since_start))
    response = analytic_nominal_response(amplitude, omega, grid)
    screened = np.empty(count)
    for k in range(count):
        d = q - response[span - lag[k]:span - lag[k] + n]
        screened[k] = d @ d
    if not np.all(np.isfinite(screened)):
        return everything

    # |exact cost - screened cost| <= bound, per shift:
    # - Arguments. The exact one is fl(since_start[i] - shift), the screened
    #   one grid[i + m(K - k)]; with g(p) = since_start[0] + p dt they differ
    #   by at most 2 nonuniform + mismatch plus about a dozen half-ulp
    #   roundings of numbers no larger than `scale` (6 eps scale; 8 is used).
    # - References. The response is Lipschitz with |r'| <= 0.224 |q_d| omega,
    #   and each floating evaluation is within about 9 eps |q_d| of the real
    #   function (exp, pow and the polynomial, with e^-x P(x) <= 1); 32 eps
    #   per evaluation gives dev >= |exact ref - screened ref| per sample.
    # - Costs. With S the screened cost, n dev^2 + 2 dev sqrt(n S') bounds
    #   the change of the real sum of squares (Cauchy-Schwarz), where S' =
    #   S / (1 - gamma) bounds that real sum. Forming n squares and summing
    #   them in any order, pairwise or dot, rounds each real sum by at most
    #   gamma = (n + 4) eps of itself, on both sides.
    # The additive n dev^2 term keeps the bound valid when the least cost is
    # 0. The first exact minimiser k* then has screened[k*] - bound[k*] <=
    # exact[k*] <= exact[j] <= screened[j] + bound[j] for every j, so it is
    # kept.
    scale = float(np.max(np.abs(grid))) + float(shifts[-1])
    delta = 2.0 * nonuniform + mismatch + 8.0 * _EPS * scale
    dev = _RESPONSE_SLOPE * abs(amplitude * omega) * delta + 64.0 * _EPS * abs(amplitude)
    gamma = (n + 4) * _EPS
    real = screened / (1.0 - gamma)
    change = 2.0 * dev * np.sqrt(n * real) + n * dev * dev
    bound = change + gamma * (2.0 * real + change)
    return np.flatnonzero(screened - bound <= np.min(screened + bound))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    name: str
    scenarios: tuple[ScenarioConfig, ...]

    def __post_init__(self):
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

    def rows(self, suite: SuiteConfig):
        for scen in suite.scenarios:
            if scen.name in self.errors:
                yield scen, None, str(self.errors[scen.name])
            else:
                yield scen, self.metrics[scen.name], "ok"


def run_suite(suite: SuiteConfig) -> SuiteResult:
    """Run every scenario, isolating per-scenario failures."""
    traces, metrics, errors = {}, {}, {}
    for scen in suite.scenarios:
        try:
            trace = run_scenario(scen)
            traces[scen.name] = trace
            metrics[scen.name] = compute_metrics(trace, scen)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            errors[scen.name] = exc
    return SuiteResult(name=suite.name, traces=traces, metrics=metrics, errors=errors)


def summary_table(suite: SuiteConfig, result: SuiteResult) -> list[list]:
    """Comparison table rows (header first) for the suite outcome."""
    metrics = [f.name for f in fields(MetricsReport)]
    rows = [["scenario", "controller", "mass_kg", "contact_stiffness", *metrics, "status"]]
    for scen, report, status in result.rows(suite):
        values = [""] * len(metrics) if report is None else [
            "" if v is None else v for v in astuple(report)]
        rows.append([scen.name, scen.controller, scen.mass, scen.contact_stiffness,
                     *values, status])
    return rows
