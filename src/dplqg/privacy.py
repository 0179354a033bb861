"""Gaussian output perturbation for (epsilon, delta) trajectory privacy.

Each agent publishes measurements of its state trajectory to an untrusted
aggregator. Two trajectories are *adjacent* when they differ by at most a
fixed energy budget b in the l2 sense; the mechanism adds Gaussian noise to
the published outputs so that adjacent trajectories are (epsilon, delta)
indistinguishable to anyone watching the wire.

The noise standard deviation is calibrated as

    sigma = kappa(delta, epsilon) * s1(C) * b

where s1(C) is the largest singular value of the output map (the l2
sensitivity per unit of trajectory perturbation) and

    kappa(delta, epsilon) = (K_delta + sqrt(K_delta^2 + 2 epsilon)) / (2 epsilon),
    K_delta = Q^{-1}(delta),

with Q the standard Gaussian upper-tail probability. The implementation of Q
is self-contained (series plus continued fraction, documented at the private
helpers) so that calibration is reproducible bit for bit wherever the package
runs; tests cross-check it against independent oracles.

The mechanism itself, ybar = C x + sigma z with z standard normal, is
applied in one place: the simulation engine, dplqg.network.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_positive

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Crossover between the two erfc evaluation strategies. Both are accurate to
# near machine precision at the seam; see _erf_series_scalar / _erfc_cf_scalar.
_SERIES_CF_SPLIT = 2.0

# Thresholds on verify_dp_inequality's sweep of [-10 sigma, 10 sigma].
DP_AUDIT_GRID_POINTS = 2001


# ----------------------------------------------------------------------
# Gaussian tail probability
# ----------------------------------------------------------------------

def _erf_series_scalar(x):
    """erf(x) for 0 <= x <= 2 by the all-positive-terms Taylor expansion.

    erf(x) = (2x / sqrt(pi)) exp(-x^2) * sum_{n>=0} (2x^2)^n / (1*3*...*(2n+1)).

    Every term is positive, so there is no cancellation; terms decay once
    2x^2 < 2n+1 and the loop stops when they no longer move the sum.
    """
    t = 2.0 * x * x
    term = 1.0
    total = 1.0
    n = 0
    while n < 96:
        n += 1
        term *= t / (2 * n + 1)
        total += term
        if term <= total * 1e-17:
            break
    return 2.0 * _INV_SQRT_PI * x * math.exp(-x * x) * total


def _erfc_cf_scalar(x):
    """erfc(x) for x > 2 by the classical continued fraction.

    erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...))))

    evaluated with the modified Lentz algorithm. Convergence is fast for
    x > 2 (a few dozen convergents for full double precision).
    """
    tiny = 1e-300
    f = tiny
    c = tiny
    d = 0.0
    for j in range(1, 129):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return _INV_SQRT_PI * math.exp(-x * x) * f


def _erf_series_vec(x):
    """Vectorized twin of _erf_series_scalar (fixed 96 terms)."""
    t = 2.0 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(1, 96):
        term = term * (t / (2 * n + 1))
        total = total + term
    return 2.0 * _INV_SQRT_PI * x * np.exp(-x * x) * total


def _erfc_cf_vec(x):
    """Vectorized twin of _erfc_cf_scalar (fixed 128 Lentz sweeps)."""
    tiny = 1e-300
    f = np.full_like(x, tiny)
    c = np.full_like(x, tiny)
    d = np.zeros_like(x)
    for j in range(1, 129):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        d = x + a * d
        d[d == 0.0] = tiny
        c = x + a / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        f = f * (c * d)
    return _INV_SQRT_PI * np.exp(-x * x) * f


def _q_scalar(y):
    x = abs(y) / _SQRT2
    if x <= _SERIES_CF_SPLIT:
        half_erfc = 0.5 * (1.0 - _erf_series_scalar(x))
    else:
        half_erfc = 0.5 * _erfc_cf_scalar(x)
    return half_erfc if y >= 0.0 else 1.0 - half_erfc


def q_function(y):
    """Standard Gaussian upper-tail probability Q(y) = P[Z > y], Z ~ N(0, 1).

    Parameters
    ----------
    y : float or array_like
        Evaluation point(s).

    Returns
    -------
    float or ndarray
        Q(y), elementwise for array input. Strictly decreasing in y;
        Q(0) = 1/2, Q(-y) = 1 - Q(y).
    """
    if np.ndim(y) == 0:
        return _q_scalar(float(y))
    y = np.asarray(y, dtype=float)
    x = np.abs(y) / _SQRT2
    half_erfc = np.empty_like(x)
    small = x <= _SERIES_CF_SPLIT
    if small.any():
        half_erfc[small] = 0.5 * (1.0 - _erf_series_vec(x[small]))
    big = ~small
    if big.any():
        half_erfc[big] = 0.5 * _erfc_cf_vec(x[big])
    return np.where(y >= 0.0, half_erfc, 1.0 - half_erfc)


def q_inverse(p):
    """Inverse of q_function on (0, 1).

    Bracketed bisection on [-40, 40] (52 halvings), then a single Newton
    refinement through the Gaussian density. The result y satisfies
    q_function(y) = p to within 1e-12 relative for p away from the
    floating-point endpoints.

    Raises ValueError for p outside the open interval (0, 1).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"tail probability must lie in (0, 1), got {p}")
    lo, hi = -40.0, 40.0
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        if _q_scalar(mid) > p:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    density = math.exp(-0.5 * y * y) / _SQRT_TWO_PI
    if density > 0.0:
        y += (_q_scalar(y) - p) / density
    return y


def _privacy_params(epsilon, delta):
    """(epsilon, delta) as floats; ValueError unless epsilon is finite and
    positive and 0 < delta <= 1/2."""
    epsilon, delta = check_positive(epsilon, "epsilon"), float(delta)
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    return epsilon, delta


def kappa(delta, epsilon):
    """Gaussian mechanism calibration factor.

    kappa(delta, epsilon) = (K + sqrt(K^2 + 2 epsilon)) / (2 epsilon) with
    K = q_inverse(delta). Noise with standard deviation kappa * Delta2 makes
    a release with l2 sensitivity Delta2 satisfy (epsilon, delta) privacy.

    Parameters
    ----------
    delta : float
        Failure probability, 0 < delta <= 1/2. The strict interior is the
        recommended operating range; at delta = 1/2 the tail quantile K is 0.
    epsilon : float
        Privacy loss, finite and > 0.

    Returns
    -------
    float
        The calibration factor. Strictly decreasing in both arguments.
    """
    epsilon, delta = _privacy_params(epsilon, delta)
    k = q_inverse(delta)
    return (k + math.sqrt(k * k + 2.0 * epsilon)) / (2.0 * epsilon)


# ----------------------------------------------------------------------
# Privacy parameters and calibration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrivacySpec:
    """Per-agent privacy requirement.

    epsilon, delta are the differential-privacy parameters; adjacency_bound
    is the trajectory perturbation budget b defining which trajectories must
    be indistinguishable (l2 distance at most b).
    """

    epsilon: float
    delta: float
    adjacency_bound: float = 1.0

    def __post_init__(self):
        epsilon, delta = _privacy_params(self.epsilon, self.delta)
        bound = check_positive(self.adjacency_bound, "adjacency_bound")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "adjacency_bound", bound)


def sensitivity_bound(C, adjacency_bound):
    """l2 sensitivity of the output map over an adjacency ball.

    A state perturbation of l2 size at most b moves the output y = C x by at
    most s1(C) * b, so that product bounds the 2-norm sensitivity.

    Parameters
    ----------
    C : array_like
        Output matrix, finite: NaN or inf in C raises ValueError.
    adjacency_bound : float
        Perturbation budget b > 0.

    Returns
    -------
    float
        s1(C) * b where s1 is the largest singular value.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    check_finite(C, "C")
    b = check_positive(adjacency_bound, "adjacency_bound")
    return float(np.linalg.norm(C, 2)) * b


def calibrate_sigma(spec, C):
    """Smallest noise scale meeting a PrivacySpec for output map C.

    Returns the float sigma = kappa(delta, epsilon) * s1(C) * b, the
    equality case of the mechanism's sufficient condition. Linear in the
    adjacency bound and in any scalar multiple of C. C must be finite (see
    sensitivity_bound), and a product that overflows to inf, as a tiny
    epsilon or a huge C can make it, raises ValueError.
    """
    sigma = kappa(spec.delta, spec.epsilon) * sensitivity_bound(
        C, spec.adjacency_bound
    )
    return check_positive(sigma, "sigma", allow_zero=True)


# ----------------------------------------------------------------------
# Auditing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DpCheckResult:
    """Outcome of a one-dimensional privacy-inequality audit."""

    holds: bool
    min_slack: float
    worst_threshold: float


def verify_dp_inequality(delta_2, sigma, epsilon, delta):
    """Audit the (epsilon, delta) inequality for a Gaussian release.

    For a scalar release with sensitivity delta_2 and noise sigma, every
    measurable event S must satisfy P[M(x) in S] <= e^eps P[M(x') in S] +
    delta. For Gaussian noise the binding events are half-lines, so the
    audit sweeps DP_AUDIT_GRID_POINTS evenly spaced thresholds t over
    [-10 sigma, 10 sigma] around the release point (taken as 0 without loss
    of generality) with the adjacent release shifted the unfavorable way,
    and checks

        Q(t / sigma) <= e^eps * Q((t + delta_2) / sigma) + delta.

    Parameters
    ----------
    delta_2 : float
        Sensitivity of the release, finite and >= 0.
    sigma : float
        Noise standard deviation, finite and > 0.
    epsilon, delta : float
        Privacy parameters; epsilon finite and > 0, 0 < delta <= 1/2.

    Returns
    -------
    DpCheckResult
        holds is True when the minimum slack over the grid is nonnegative;
        worst_threshold is the argmin, useful when reporting a violation.
    """
    delta_2 = check_positive(delta_2, "sensitivity", allow_zero=True)
    sigma = check_positive(sigma, "sigma")
    epsilon, delta = _privacy_params(epsilon, delta)
    t = np.linspace(-10.0 * sigma, 10.0 * sigma, DP_AUDIT_GRID_POINTS)
    lhs = q_function(t / sigma)
    rhs = math.exp(epsilon) * q_function((t + delta_2) / sigma) + delta
    slack = rhs - lhs
    worst = int(np.argmin(slack))
    min_slack = float(slack[worst])
    return DpCheckResult(
        holds=min_slack >= 0.0,
        min_slack=min_slack,
        worst_threshold=float(t[worst]),
    )

