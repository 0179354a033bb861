"""Exception types and the input rules shared across the package.

The CLI maps each exception type onto a dedicated exit code, so synthesis
and simulation code should raise the most specific type that applies rather
than a bare ValueError. The check_* functions write the shared input rules
once: finite arrays, finite non-empty square matrices, a square A with a
finite B of as many rows, symmetry within 1e-10 * max(1, max |M_ij|),
positive definite weights, real numbers (not bools or strings), finite
positive (or >= 0) scalars, and integers >= 0 such as seeds.
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
    """M as a float array; ValueError naming it unless a finite non-empty square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not M.size:
        raise ValueError(f"{name} must have at least one row, got shape {M.shape}")
    check_finite(M, name)
    return M


def check_pair(A, B, name="B"):
    """Finite square A and a finite B with as many rows, as float arrays (ValueError)."""
    A = check_square(A, "A")
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"{name} must have {A.shape[0]} rows, got shape {B.shape}")
    check_finite(B, name.removesuffix("^T"))  # a transpose is finite when its matrix is
    return A, B


def check_symmetric(M, name, error=ValueError):
    """Raise `error` naming M unless M = M^T within 1e-10 * max(1, max |M_ij|)."""
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * scale):
        raise error(f"{name} must be symmetric")


def check_spd(M, name):
    """M symmetrized; ValueError unless square and finite, AssumptionError
    naming M unless symmetric positive definite."""
    M = check_square(M, name)
    check_symmetric(M, name, AssumptionError)
    M = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(M)
    if eigs.min() <= 0.0:
        raise AssumptionError(
            f"{name} must be positive definite (min eigenvalue {eigs.min():.3e})"
        )
    return M


def check_real(value, name):
    """float(value); ValueError naming it unless value is a real number: an int
    within the double range or a float, numpy's included, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within the double range") from None


def check_positive(value, name, allow_zero=False):
    """check_real(value); ValueError naming it unless finite and > 0 (>= 0 if allow_zero)."""
    value = check_real(value, name)
    in_range = value >= 0.0 if allow_zero else value > 0.0
    if not (np.isfinite(value) and in_range):
        bound = ">= 0" if allow_zero else "positive"
        raise ValueError(f"{name} must be {bound} and finite, got {value}")
    return value


def check_count(value, name, error=ValueError):
    """int(value); `error` naming it unless value is an integer >= 0.

    Only integers pass: a bool, a float such as 2.7 or 2.0 and a string
    such as "12" are rejected, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise error(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)
