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
helpers), so calibration needs no scipy and reruns bit for bit on one host
(see dplqg.rng); tests cross-check it against independent oracles.

The mechanism itself, ybar = C x + sigma z with z standard normal, is
applied in one place: the simulation engine, dplqg.network.

verify_dp_inequality audits the inequality on a grid of half-line events.
Its slack has one minimum, at the closed-form threshold of Balle & Wang
(ICML 2018), so it evaluates only a window around that point. The window
is certified: grown until its edges clear the minimum by twice q_function's
absolute error bound, so no point outside could be the grid's minimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_positive, check_real

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Crossover between the two erfc evaluation strategies. Both are accurate to
# near machine precision at the seam; see _erf_series_scalar / _erfc_cf_scalar.
_SERIES_CF_SPLIT = 2.0

# Thresholds on verify_dp_inequality's sweep of [-10 sigma, 10 sigma].
DP_AUDIT_GRID_POINTS = 2001

# Bound on |q_function(y) - Q(y)| for every y, with wide headroom over the
# error measured against 50-digit mpmath on [-40, 40] (the tests import it).
# verify_dp_inequality's window certificate rests on it.
_Q_ABS_ERR = 1e-12


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
    x > 2 (a few dozen convergents for full double precision). erfc(inf) is
    returned as 0 directly, since the first sweep would make inf * 0.
    """
    if x == math.inf:
        return 0.0
    tiny = 1e-300
    f = tiny
    c = tiny
    d = 0.0
    for j in range(1, 129):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        # No zero guards: with x > 2 and a > 0, every d and c is at least x.
        d = x + a * d
        c = x + a / c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return _INV_SQRT_PI * math.exp(-x * x) * f


def _erf_series_vec(x):
    """Vectorized twin of _erf_series_scalar (at most 96 terms).

    The terms are summed in place. From n = 4 on the term ratio
    2x^2/(2n+1) is below 1 for x <= 2, so each rounded term is at most the
    one before, and a total that one term no longer moves stays put for
    every later term: stopping once no total moved gives the bits of all
    96 terms.
    """
    t = 2.0 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    ratio = np.empty_like(x)
    moved = np.empty_like(x)
    for n in range(1, 96):
        np.divide(t, 2 * n + 1, out=ratio)
        np.multiply(term, ratio, out=term)
        np.add(total, term, out=moved)
        if n >= 4 and np.array_equal(moved, total):
            break
        total, moved = moved, total
    return 2.0 * _INV_SQRT_PI * x * np.exp(-x * x) * total


def _erfc_cf_vec(x):
    """Vectorized twin of _erfc_cf_scalar (fixed 128 Lentz sweeps).

    The sweeps run in place, with no per-sweep temporary arrays. Lentz's
    zero guards are left out because they cannot fire: x > 2 (or NaN) and
    every a > 0, so each d = x + a d and c = x + a / c is at least x.
    """
    tiny = 1e-300
    f = np.full_like(x, tiny)
    c = np.full_like(x, tiny)
    d = np.zeros_like(x)
    delta = np.empty_like(x)
    for j in range(1, 129):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        np.multiply(a, d, out=d)
        np.add(x, d, out=d)
        np.divide(a, c, out=c)
        np.add(x, c, out=c)
        np.divide(1.0, d, out=d)
        np.multiply(c, d, out=delta)
        np.multiply(f, delta, out=f)
    with np.errstate(over="ignore"):  # x * x = inf gives the right 0
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
        Q(0) = 1/2, Q(-y) = 1 - Q(y), Q(inf) = 0 and Q(-inf) = 1.
    """
    if np.ndim(y) == 0:
        return _q_scalar(float(y))
    y = np.asarray(y, dtype=float)
    x = np.abs(y) / _SQRT2
    # erfc(inf) = 0 is left from the zeros, because the continued fraction
    # would make it inf * 0 = NaN; NaN itself still takes the fraction
    half_erfc = np.zeros_like(x)
    small = x <= _SERIES_CF_SPLIT
    if small.any():
        half_erfc[small] = 0.5 * (1.0 - _erf_series_vec(x[small]))
    big = ~small & (x != np.inf)
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
    """(epsilon, delta) as floats; ValueError unless both are real numbers,
    epsilon is finite and positive, and 0 < delta <= 1/2."""
    epsilon, delta = check_positive(epsilon, "epsilon"), check_real(delta, "delta")
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
        ValueError names epsilon when the factor is not a finite positive
        double: 2 epsilon overflows near the largest double, the factor
        for a subnormal epsilon.
    """
    epsilon, delta = _privacy_params(epsilon, delta)
    k = q_inverse(delta)
    factor = (k + math.sqrt(k * k + 2.0 * epsilon)) / (2.0 * epsilon)
    if not 0.0 < factor < math.inf:
        raise ValueError(f"epsilon = {epsilon} gives the calibration factor {factor}, "
                         "not a finite positive double")
    return factor


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

    The slack rhs - lhs falls for t below t* = sigma^2 eps / delta_2 -
    delta_2 / 2 and rises above it (t* = +inf when delta_2 = 0), so only a
    window of the grid around the point nearest t* is evaluated. It starts
    at +-4 points and grows 4-fold, up to the whole grid, until each edge
    inside the grid exceeds the window's minimum by more than
    2 (e^eps + 1) _Q_ABS_ERR, twice the largest error of a computed slack.
    Such an edge lies on the outer side of the minimum, where the exact
    slack only rises outward, so every grid point beyond it computes
    strictly above the window's minimum. The result,
    argmin's first-index tie included, is therefore bit for bit that of
    the full sweep, since q_function works element by element. The
    certificate needs only that shape and that error bound: a misplaced
    centre costs time, never bits.

    Parameters
    ----------
    delta_2 : float
        Sensitivity of the release, finite and >= 0.
    sigma : float
        Noise standard deviation, finite and > 0.
    epsilon, delta : float
        Privacy parameters: 0 < delta <= 1/2, and 0 < epsilon <= ~709.78,
        where e^epsilon still is a double (ValueError above).

    Returns
    -------
    DpCheckResult
        holds is True when the minimum slack over the grid is nonnegative;
        worst_threshold is the argmin, useful when reporting a violation.
    """
    delta_2 = check_positive(delta_2, "sensitivity", allow_zero=True)
    sigma = check_positive(sigma, "sigma")
    epsilon, delta = _privacy_params(epsilon, delta)
    try:
        e_eps = math.exp(epsilon)
    except OverflowError:
        raise ValueError(f"e^epsilon overflows a double at epsilon = {epsilon}") from None
    margin = 2.0 * (e_eps + 1.0) * _Q_ABS_ERR
    last = DP_AUDIT_GRID_POINTS - 1
    t = np.linspace(-10.0 * sigma, 10.0 * sigma, DP_AUDIT_GRID_POINTS)
    # t* is +inf for delta_2 = 0 and overflows to it for a subnormal
    # delta_2, so the grid position is clamped before it is rounded
    t_star = sigma * sigma * epsilon / delta_2 - delta_2 / 2.0 if delta_2 else math.inf
    centre = round(min(max((t_star / sigma + 10.0) * (last / 20.0), 0.0), last))
    half = 4
    while True:
        lo, hi = max(centre - half, 0), min(centre + half, last) + 1
        tw = t[lo:hi]
        lhs, q_shift = q_function(np.stack((tw / sigma, (tw + delta_2) / sigma)))
        slack = e_eps * q_shift + delta - lhs
        worst = int(np.argmin(slack))
        min_slack = float(slack[worst])
        if ((lo == 0 or slack[0] - min_slack > margin)
                and (hi > last or slack[-1] - min_slack > margin)):
            break
        half *= 4
    return DpCheckResult(
        holds=min_slack >= 0.0,
        min_slack=min_slack,
        worst_threshold=float(t[lo + worst]),
    )

