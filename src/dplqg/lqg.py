"""Cloud-side estimation and control on privatized measurements.

The aggregator never sees true states. It runs a stationary Kalman filter
on the noisy outputs ybar(k) = C x(k) + v(k) (v is the calibrated privacy
noise) and applies the certainty-equivalent feedback u(k) = L xhat(k). By
separation, L comes from the regulator Riccati equation alone and the
filter gain from the filter Riccati equation alone, so changing privacy
levels never changes L.

The estimate is initialized to the public mean xhat(0) = E[x(0)] and the
filter consumes measurements from step 1 on:

    xpred(k+1) = A xhat(k) + B u(k)
    xhat(k+1)  = xpred(k+1) + SigmaBar C^T V^{-1} (ybar(k+1) - C xpred(k+1))

where SigmaBar C^T V^{-1} is FilterSynthesis.kalman_gain. The prediction
equals (A + B L) xhat(k), but written with the sent input u(k) it can be
rerun by anyone holding the wire log (filter_step).
"""

from dataclasses import dataclass

import numpy as np

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


def filter_step(A, B, C, gain, x_hat, u, y_bar_next):
    """Advance the stationary filter by one measurement.

    x_hat is the estimate at step k, u the input sent at step k and
    y_bar_next the privatized measurement ybar(k+1); gain is
    FilterSynthesis.kalman_gain. Returns the estimate at step k+1. The
    cloud runs exactly this arithmetic, and it is the reference that the
    eavesdropper's replay (dplqg.network.replay_estimates), which runs the
    same products and sums in place, is tested against bit for bit.
    """
    predicted = A @ x_hat + B @ u
    return predicted + gain @ (y_bar_next - C @ predicted)


def incremental_cost(x, u, Q, R):
    """Stage cost x^T Q x + u^T R u, of one step or of each row of a stack.

    x and u are one step's state and input, returning a float, or (..., n)
    and (..., m) stacks of rows, such as (T, n) and (T, m), returning an
    array of the stacks' leading shape whose every entry has the bits of the
    call on its row: each row takes the products of x @ Q @ x as a stacked
    matmul. Q and R are assumed valid cost matrices (validated once at
    network assembly); dimension mismatches raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if x.ndim == 0 or u.ndim != x.ndim or u.shape[:-1] != x.shape[:-1]:
        raise ValueError(f"x and u must be vectors or stacks of as many rows, "
                         f"got shapes {x.shape} and {u.shape}")
    if Q.shape != x.shape[-1:] * 2:
        raise ValueError(f"Q has shape {Q.shape}, state has size {x.shape[-1]}")
    if R.shape != u.shape[-1:] * 2:
        raise ValueError(f"R has shape {R.shape}, input has size {u.shape[-1]}")
    cost = _quadratic_form(x, Q) + _quadratic_form(u, R)
    return float(cost) if cost.ndim == 0 else cost


def _quadratic_form(x, M):
    """x^T M x of each row of x, as (x @ M) @ x of that row alone."""
    row = x[..., None, :]
    return np.matmul(np.matmul(row, M), row.swapaxes(-1, -2))[..., 0, 0]

