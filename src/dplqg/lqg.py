"""Cloud-side synthesis: both Riccati solves of a NetworkModel as one record.

The aggregator never sees true states. It runs a stationary Kalman filter
on the noisy outputs ybar(k) = C x(k) + v(k) (v is the calibrated privacy
noise) and applies the certainty-equivalent feedback u(k) = L xhat(k). By
separation, L comes from the regulator Riccati equation alone and the
filter gain from the filter Riccati equation alone, so changing privacy
levels never changes L. The loop that applies both gains, its filter step
(filter_step) and its stage costs live in dplqg.network.
"""

from dataclasses import dataclass

from .riccati import ControlSynthesis, FilterSynthesis, solve_dare_control, solve_dare_filter


@dataclass(frozen=True)
class SynthesisResult(ControlSynthesis, FilterSynthesis):
    """Everything the cloud precomputes before the first step: the regulator's
    and the filter's solver records as one, residuals and spectral radius included."""

    @property
    def filter(self):
        """The filter record, which this result is."""
        return self


def synthesize(model):
    """Solve both Riccati equations for a NetworkModel.

    The regulator solve sees only (A, B, Q, R) and the filter solve only
    (A, C, W, V); the privacy level therefore affects the estimator but not
    the feedback gain.
    """
    control = solve_dare_control(model.A, model.B, model.Q, model.R)
    filt = solve_dare_filter(model.A, model.C, model.W, model.V)
    return SynthesisResult(**vars(control), **vars(filt))
