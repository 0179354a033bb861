"""Privacy-calibrated cloud LQG control.

Agents stream differentially private measurements to an untrusted cloud,
which runs a stationary Kalman filter and certainty-equivalent LQ feedback.
The package covers the full loop: noise calibration from (epsilon, delta)
privacy budgets, Riccati synthesis, bit-reproducible networked simulation
with a complete wire log, and closed-form bounds on how much (or little) an
eavesdropper's state estimate can sharpen.
"""

from .bounds import (
    EntropyBoundReport,
    covariance_bound_condition,
    covariance_upper_bound,
    entropy_bound_report,
    homogeneous_entropy_estimate,
    logdet,
    posterior_variance_diag,
    variance_floor,
)
from .config import ExperimentConfig, build_network, load, loads, dumps
from .errors import (
    AssumptionError,
    ConfigError,
    ConvergenceError,
    InapplicableBoundError,
)
from .lqg import (
    SynthesisResult,
    filter_step,
    incremental_cost,
    moving_average_cost,
    synthesize,
)
from .network import (
    AgentModel,
    NetworkModel,
    SimulationTrace,
    WireMessage,
    agent_step,
    assemble_network,
    eavesdropper_view,
    replay_estimates,
    run_simulation,
    write_messages_csv,
    write_trace_csv,
)
from .privacy import (
    DpCheckResult,
    NoiseScale,
    PrivacySpec,
    adjacency_check,
    calibrate_sigma,
    kappa,
    privatize_output,
    q_function,
    q_inverse,
    sensitivity_bound,
    verify_dp_inequality,
)
from .riccati import (
    ControlSynthesis,
    FilterSynthesis,
    dare_residual_control,
    dare_residual_filter,
    is_controllable,
    is_observable,
    solve_dare_control,
    solve_dare_filter,
)
from .rng import GaussianStream, derive_stream, psd_factor

__version__ = "0.1.0"

__all__ = [
    "AgentModel",
    "AssumptionError",
    "ConfigError",
    "ControlSynthesis",
    "ConvergenceError",
    "DpCheckResult",
    "EntropyBoundReport",
    "ExperimentConfig",
    "FilterSynthesis",
    "GaussianStream",
    "InapplicableBoundError",
    "NetworkModel",
    "NoiseScale",
    "PrivacySpec",
    "SimulationTrace",
    "SynthesisResult",
    "WireMessage",
    "adjacency_check",
    "agent_step",
    "assemble_network",
    "build_network",
    "calibrate_sigma",
    "covariance_bound_condition",
    "covariance_upper_bound",
    "dare_residual_control",
    "dare_residual_filter",
    "derive_stream",
    "dumps",
    "eavesdropper_view",
    "entropy_bound_report",
    "filter_step",
    "homogeneous_entropy_estimate",
    "incremental_cost",
    "is_controllable",
    "is_observable",
    "kappa",
    "load",
    "loads",
    "logdet",
    "moving_average_cost",
    "posterior_variance_diag",
    "privatize_output",
    "psd_factor",
    "q_function",
    "q_inverse",
    "replay_estimates",
    "run_simulation",
    "sensitivity_bound",
    "solve_dare_control",
    "solve_dare_filter",
    "synthesize",
    "variance_floor",
    "verify_dp_inequality",
    "write_messages_csv",
    "write_trace_csv",
]
