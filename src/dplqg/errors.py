"""Exception types and the input rules shared across the package.

The CLI maps each exception type onto a dedicated exit code, so synthesis
and simulation code should raise the most specific type that applies rather
than a bare ValueError. The check_* functions write the four shared input
rules once: finite arrays, square matrices, symmetry within
1e-10 * max(1, max |M_ij|), and finite positive (or >= 0) scalars.
"""

import numpy as np


class ConfigError(ValueError):
    """An experiment description is malformed or violates a field invariant."""


class AssumptionError(ValueError):
    """A model fails a synthesis precondition.

    Raised when a cost matrix is not positive definite, a pair (A, B) is
    not controllable, or a pair (A, C) is not observable. The message
    names the failing condition.
    """


class ConvergenceError(RuntimeError):
    """A fixed-point Riccati iteration did not converge.

    Carries the iteration count and the last residual so callers can
    report how far the solve got.
    """

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class InapplicableBoundError(ValueError):
    """The closed-form covariance cap does not apply to this model.

    Carries the (negative) margin of the spectral condition so reports
    can state how badly it failed.
    """

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


def check_finite(M, name):
    """Raise ValueError naming M unless every entry of the array M is finite."""
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite, got NaN or inf")


def check_square(M, name):
    """M as a float array; ValueError naming it unless it is a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def check_symmetric(M, name, error=ValueError):
    """Raise `error` naming M unless M = M^T within 1e-10 * max(1, max |M_ij|)."""
    scale = max(1.0, float(np.abs(M).max()))
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * scale):
        raise error(f"{name} must be symmetric")


def check_positive(value, name, allow_zero=False):
    """float(value); ValueError naming it unless finite and > 0 (>= 0 if allow_zero)."""
    value = float(value)
    in_range = value >= 0.0 if allow_zero else value > 0.0
    if not (np.isfinite(value) and in_range):
        bound = ">= 0" if allow_zero else "positive"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value
