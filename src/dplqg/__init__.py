"""Privacy-calibrated cloud LQG control.

Agents stream differentially private measurements to an untrusted cloud,
which runs a stationary Kalman filter and certainty-equivalent LQ feedback.
The package covers the full loop: noise calibration from (epsilon, delta)
privacy budgets, Riccati synthesis, networked simulation that reruns bit
for bit on one host, with a complete wire log, and closed-form bounds on
how much (or little) an eavesdropper's state estimate can sharpen.
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
from .config import ExperimentConfig, build_network, load, loads
from .errors import (
    AssumptionError,
    ConfigError,
    ConvergenceError,
    InapplicableBoundError,
)
from .lqg import SynthesisResult, synthesize
from .network import (
    AgentModel,
    NetworkModel,
    SimulationTrace,
    assemble_network,
    eavesdropper_view,
    filter_step,
    read_messages_csv,
    replay_estimates,
    run_simulation,
    write_messages_csv,
    write_trace_csv,
)
from .privacy import (
    DpCheckResult,
    PrivacySpec,
    calibrate_sigma,
    kappa,
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
    "PrivacySpec",
    "SimulationTrace",
    "SynthesisResult",
    "assemble_network",
    "build_network",
    "calibrate_sigma",
    "covariance_bound_condition",
    "covariance_upper_bound",
    "dare_residual_control",
    "dare_residual_filter",
    "derive_stream",
    "eavesdropper_view",
    "entropy_bound_report",
    "filter_step",
    "homogeneous_entropy_estimate",
    "is_controllable",
    "is_observable",
    "kappa",
    "load",
    "loads",
    "logdet",
    "posterior_variance_diag",
    "psd_factor",
    "q_function",
    "q_inverse",
    "read_messages_csv",
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
