"""Elastic-joint position control: baseline resonance-shaping law with a
disturbance observer, adaptive augmentation with piecewise-constant
estimates, the matching simulation-only reference system, and the LTI
analysis used to validate the filter design."""

from .analysis import (
    ConditionReport,
    L1NormResult,
    RootLocusResult,
    StabilityBudget,
    StateSpace,
    UnstableSystemError,
    analytic_nominal_response,
    check_stability_condition,
    contact_polynomial,
    hold_response,
    l1_norm,
    matrix_exponential,
    polynomial_roots,
    root_locus,
)
from .controllers import (
    DisturbanceObserver,
    L1Config,
    L1Controller,
    ReferenceSystem,
    RrcController,
    ideal_motor_side_compensation,
)
from .harness import (
    ConfigError,
    MetricsReport,
    RunTrace,
    ScenarioConfig,
    SimulationDivergence,
    SuiteConfig,
    SuiteResult,
    compute_metrics,
    run_scenario,
    run_suite,
    summary_table,
)
from .nominal import (
    NominalModel,
    RrcGains,
    TransferFunction,
    build_nominal_model,
    build_rrc_gains,
    transfer_from_state_space,
)
from .params import EnvironmentModel, PlantParams, benchmark_params
from .plant import contact_torque, gravity_gain
from .traceio import export_plotscript, export_table, export_trace, import_trace

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
