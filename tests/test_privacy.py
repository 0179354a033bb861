"""Tests for the Gaussian tail function, calibration factor, and mechanism.

The tail probability Q and its inverse are implemented from scratch in
dplqg.privacy; here they are cross-checked against scipy.special and
50-digit mpmath (spot values, and the absolute error bound the privacy
audit relies on) as independent oracles, and selected outputs
are frozen as literals so regressions show up as value changes, not just
tolerance drift.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from dplqg import privacy
from dplqg.privacy import (
    _Q_ABS_ERR,
    DP_AUDIT_GRID_POINTS,
    DpCheckResult,
    PrivacySpec,
    calibrate_sigma,
    kappa,
    q_function,
    q_inverse,
    sensitivity_bound,
    verify_dp_inequality,
)
from dplqg.rng import GaussianStream


# ----------------------------------------------------------------------
# Q function against oracles
# ----------------------------------------------------------------------

def test_q_function_against_scipy_wide_grid():
    # scipy.special.ndtr is the N(0,1) cdf; Q(y) = 1 - ndtr(y) = ndtr(-y).
    y = np.linspace(-8.0, 8.0, 4001)
    ours = q_function(y)
    oracle = special.ndtr(-y)
    assert_allclose(ours, oracle, rtol=5e-13, atol=0.0)


def test_q_function_far_tail_against_scipy_erfc():
    # Deep tail, where the continued fraction branch does the work. Compare
    # through erfc to avoid the cdf saturating at 1.
    y = np.array([3.0, 5.0, 8.0, 12.0, 20.0, 35.0])
    ours = q_function(y)
    oracle = 0.5 * special.erfc(y / math.sqrt(2.0))
    assert_allclose(ours, oracle, rtol=1e-12)


def test_q_function_mpmath_spot_values():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for y in [0.1, 0.5, 1.0, 1.959963984540054, 2.0, 2.5, 4.0, 6.0, 10.0]:
        exact = float(0.5 * mpmath.erfc(mpmath.mpf(y) / mpmath.sqrt(2)))
        assert_allclose(q_function(y), exact, rtol=2e-13)


def test_q_function_absolute_error_is_within_the_audit_bound():
    # verify_dp_inequality's window certificate assumes that every value of
    # q_function is within _Q_ABS_ERR of Q, on both of its paths.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    seam = 2.0 * math.sqrt(2.0)
    y = np.concatenate([np.linspace(-40.0, 40.0, 4001),
                        _ulps_around(seam, 16), _ulps_around(-seam, 16)])
    exact = np.array([float(0.5 * mpmath.erfc(mpmath.mpf(v) / mpmath.sqrt(2)))
                      for v in y])
    assert np.abs(q_function(y) - exact).max() <= _Q_ABS_ERR
    scalar = np.array([q_function(float(v)) for v in y])
    assert np.abs(scalar - exact).max() <= _Q_ABS_ERR


def test_q_function_frozen_values():
    assert q_function(0.0) == 0.5
    assert_allclose(q_function(1.96), 0.024997895148220484, rtol=1e-15)
    assert_allclose(q_function(-1.0), 0.8413447460685429, rtol=1e-13)


def test_q_function_symmetry_and_monotonicity():
    y = np.linspace(-6.0, 6.0, 201)
    q = q_function(y)
    assert_allclose(q + q_function(-y), np.ones_like(y), rtol=0.0, atol=1e-15)
    assert np.all(np.diff(q) < 0.0)
    assert np.all(q > 0.0) and np.all(q < 1.0)


def test_q_function_scalar_matches_vector_path():
    # The scalar continued fraction stops at convergence while the vector
    # twin runs a fixed number of sweeps, so tail values may differ by a
    # couple of ulp; everything else should agree exactly.
    ys = [-4.2, -0.3, 0.0, 0.7, 1.9999, 2.0, 2.0001, 5.5]
    vec = q_function(np.array(ys))
    for y, qv in zip(ys, vec):
        assert_allclose(q_function(y), qv, rtol=5e-15, atol=0.0)


# The vector path as it stood before it ran in place and stopped the series
# early, kept as the bit-for-bit oracle for q_function's array branch and
# the audit built on it.
_REF_SQRT2 = math.sqrt(2.0)
_REF_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_REF_SERIES_CF_SPLIT = 2.0


def _ref_erf_series_vec(x):
    t = 2.0 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(1, 96):
        term = term * (t / (2 * n + 1))
        total = total + term
    return 2.0 * _REF_INV_SQRT_PI * x * np.exp(-x * x) * total


def _ref_erfc_cf_vec(x):
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
    return _REF_INV_SQRT_PI * np.exp(-x * x) * f


def _ref_q_vec(y):
    y = np.asarray(y, dtype=float)
    x = np.abs(y) / _REF_SQRT2
    half_erfc = np.empty_like(x)
    small = x <= _REF_SERIES_CF_SPLIT
    if small.any():
        half_erfc[small] = 0.5 * (1.0 - _ref_erf_series_vec(x[small]))
    big = ~small
    if big.any():
        half_erfc[big] = 0.5 * _ref_erfc_cf_vec(x[big])
    return np.where(y >= 0.0, half_erfc, 1.0 - half_erfc)


def _ref_audit(delta_2, sigma, epsilon, delta):
    """verify_dp_inequality's grid sweep on the oracle, one Q call per tail."""
    t = np.linspace(-10.0 * sigma, 10.0 * sigma, DP_AUDIT_GRID_POINTS)
    lhs = _ref_q_vec(t / sigma)
    rhs = math.exp(epsilon) * _ref_q_vec((t + delta_2) / sigma) + delta
    slack = rhs - lhs
    worst = int(np.argmin(slack))
    return bool(slack[worst] >= 0.0), float(slack[worst]), float(t[worst])


def _ulps_around(y, count):
    """y and its `count` floating-point neighbours on either side."""
    below, above = [y], [y]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_q_function_vector_path_matches_oracle_bit_for_bit():
    # The series/continued-fraction seam sits at |y| = 2 sqrt(2).
    seam = 2.0 * _REF_SQRT2
    y = np.concatenate([
        np.linspace(-40.0, 40.0, 160_001),
        np.linspace(-3.0, 3.0, 60_001),
        _ulps_around(seam, 64),
        _ulps_around(-seam, 64),
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, math.nan],
    ])
    ours, oracle = q_function(y), _ref_q_vec(y)
    assert np.array_equal(_bits(ours), _bits(oracle))
    # a 2-d argument is evaluated elementwise, as the audit's stacked tails are
    assert np.array_equal(_bits(q_function(y[:200_000].reshape(2, -1))),
                          _bits(oracle[:200_000].reshape(2, -1)))


def test_q_function_is_exact_at_infinity():
    # The oracle's continued fraction makes inf * 0 = NaN here; Q(inf) = 0
    # and Q(-inf) = 1 exactly, on both paths and with no RuntimeWarning.
    exact = _bits([0.0, 1.0])
    assert np.array_equal(_bits([q_function(math.inf), q_function(-math.inf)]), exact)
    ours = q_function(np.array([math.inf, -math.inf, math.nan, 40.0, -40.0]))
    assert np.array_equal(_bits(ours[:2]), exact)
    assert np.array_equal(_bits(ours[2:]),
                          _bits(_ref_q_vec(np.array([math.nan, 40.0, -40.0]))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(delta_2=st.floats(0.0, 10.0), sigma=st.floats(1e-3, 100.0),
       epsilon=st.floats(1e-3, 10.0), delta=st.floats(1e-6, 0.5))
# the audit evaluates a window around t* = sigma^2 eps / delta_2 - delta_2 / 2:
# delta_2 = 0 puts t* at +inf, and its slack ties at the minimum far to the left
@example(delta_2=0.0, sigma=1.0, epsilon=0.01, delta=0.001)
@example(delta_2=0.0, sigma=100.0, epsilon=10.0, delta=1e-6)
# t* overflows to +inf, or lies far right of the grid
@example(delta_2=5e-324, sigma=1.0, epsilon=1.0, delta=0.05)
@example(delta_2=1e-300, sigma=1e-3, epsilon=1e-3, delta=0.5)
# t* lies left of the grid
@example(delta_2=10.0, sigma=1e-3, epsilon=1.0, delta=0.05)
# the largest epsilon drawn, where the certificate's margin is widest
@example(delta_2=1.0, sigma=1.0, epsilon=10.0, delta=1e-6)
# design64's calibrated corners, sigma = kappa * delta_2
@example(delta_2=1.0, sigma=kappa(0.05, 0.6), epsilon=0.6, delta=0.05)
@example(delta_2=2.5, sigma=2.5 * kappa(0.3, 3.0), epsilon=3.0, delta=0.3)
# (t + delta_2) / sigma is so large that its square overflows, where Q is 0
@example(delta_2=1.0, sigma=1e-160, epsilon=1.0, delta=0.05)
@example(delta_2=1e-10, sigma=1e-300, epsilon=1.0, delta=0.05)
# the largest epsilon whose e^epsilon is a double
@example(delta_2=1.0, sigma=1.0, epsilon=math.log(sys.float_info.max), delta=0.05)
def test_audit_matches_two_call_oracle_bit_for_bit(delta_2, sigma, epsilon, delta):
    res = verify_dp_inequality(delta_2, sigma, epsilon, delta)
    with np.errstate(over="ignore"):  # the oracle squares a huge argument
        holds, min_slack, worst_threshold = _ref_audit(delta_2, sigma, epsilon, delta)
    assert res.holds == holds
    assert np.array_equal(_bits([res.min_slack, res.worst_threshold]),
                          _bits([min_slack, worst_threshold]))


def test_q_inverse_round_trip():
    for p in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.999, 1 - 1e-9]:
        y = q_inverse(p)
        assert_allclose(q_function(y), p, rtol=1e-11)


def test_q_inverse_against_scipy_ndtri():
    # Q^{-1}(p) = Phi^{-1}(1 - p) = -ndtri(p)
    for p in [0.001, 0.01, 0.025, 0.05, 0.25, 0.5]:
        assert_allclose(q_inverse(p), -special.ndtri(p), rtol=1e-12, atol=1e-12)
    assert_allclose(q_inverse(0.025), 1.9599639845400532, rtol=1e-12)
    assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)


def test_q_inverse_rejects_endpoints():
    for p in [0.0, 1.0, -0.1, 1.5]:
        with pytest.raises(ValueError):
            q_inverse(p)


# ----------------------------------------------------------------------
# Calibration factor
# ----------------------------------------------------------------------

def test_kappa_frozen_values():
    # The two headline operating points of the two-agent case study.
    assert_allclose(kappa(0.01, 0.1), 23.476458057296718, rtol=1e-12)
    assert_allclose(kappa(0.01, 0.1), 23.48, atol=5e-3)
    assert_allclose(kappa(0.5, 1.0), 0.7071067811865476, rtol=1e-12)
    assert_allclose(kappa(0.5, 1.0), 0.71, atol=5e-3)
    # delta = 1/2 makes K = 0 and kappa = sqrt(2 eps) / (2 eps) = 1/sqrt(2 eps)
    assert kappa(0.5, 2.0) == 0.5
    assert_allclose(kappa(0.05, 1.0), 1.9070400457036354, rtol=1e-12)


def test_kappa_satisfies_defining_quadratic():
    # kappa is the positive root of 2 eps k^2 - 2 K k - 1 = 0, K = Q^{-1}(delta).
    rng = np.random.default_rng(7)
    for _ in range(100):
        eps = float(10.0 ** rng.uniform(-2, 1))
        delta = float(10.0 ** rng.uniform(-6, np.log10(0.5)))
        k = kappa(delta, eps)
        big_k = q_inverse(delta)
        residual = 2.0 * eps * k * k - 2.0 * big_k * k - 1.0
        assert abs(residual) < 1e-9 * max(1.0, 2.0 * eps * k * k)


def test_kappa_monotone_in_both_arguments():
    eps_grid = np.array([0.05, 0.1, 0.3, 0.7, 1.2, 2.0, 3.0, 5.0])
    for delta in [0.01, 0.1, 0.4]:
        vals = [kappa(delta, e) for e in eps_grid]
        assert np.all(np.diff(vals) < 0.0), "kappa should fall as epsilon grows"
    delta_grid = np.array([0.001, 0.01, 0.05, 0.2, 0.5])
    for eps in [0.1, 1.0, 3.0]:
        vals = [kappa(d, eps) for d in delta_grid]
        assert np.all(np.diff(vals) < 0.0), "kappa should fall as delta grows"


def test_kappa_validates_arguments():
    with pytest.raises(ValueError):
        kappa(0.01, 0.0)
    with pytest.raises(ValueError):
        kappa(0.01, -1.0)
    with pytest.raises(ValueError):
        kappa(0.0, 1.0)
    with pytest.raises(ValueError):
        kappa(0.6, 1.0)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        kappa(0.1, math.inf)
    # 2 epsilon overflows to inf (factor NaN); a subnormal epsilon overflows
    # the factor to inf
    for eps, factor in ((1e308, "nan"), (1e-320, "inf")):
        with pytest.raises(ValueError, match=f"^epsilon = .* calibration factor {factor},"):
            kappa(0.1, eps)


# ----------------------------------------------------------------------
# Sensitivity and sigma calibration
# ----------------------------------------------------------------------

def test_sensitivity_bound_is_top_singular_value_times_budget():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = rng.integers(1, 5)
        n = rng.integers(1, 5)
        C = rng.standard_normal((m, n))
        b = float(rng.uniform(0.1, 3.0))
        expected = float(np.linalg.svd(C, compute_uv=False)[0]) * b
        assert_allclose(sensitivity_bound(C, b), expected, rtol=1e-12)


def test_sensitivity_bound_frozen_case_study_output_map():
    C = np.array([[1.0, 0.1], [0.0, 1.0]])
    assert_allclose(sensitivity_bound(C, 1.0), 1.0512492197250394, rtol=1e-12)
    assert_allclose(sensitivity_bound(np.eye(3), 2.5), 2.5, rtol=1e-15)


def test_sensitivity_bound_tight_on_top_singular_vector():
    # The bound is attained: perturbing along the top right singular vector
    # moves the output by exactly s1 * b.
    rng = np.random.default_rng(3)
    C = rng.standard_normal((3, 4))
    u, s, vt = np.linalg.svd(C)
    b = 0.8
    dx = b * vt[0]
    assert_allclose(np.linalg.norm(C @ dx), sensitivity_bound(C, b), rtol=1e-12)


def test_calibrate_sigma_composition_and_frozen_value():
    spec = PrivacySpec(epsilon=1.0, delta=0.05, adjacency_bound=2.0)
    C = np.array([[1.0, 0.1], [0.0, 1.0]])
    sigma = calibrate_sigma(spec, C)
    assert type(sigma) is float
    assert_allclose(sigma, 4.0095487200607005, rtol=1e-12)
    assert_allclose(
        sigma,
        kappa(0.05, 1.0) * sensitivity_bound(C, 2.0),
        rtol=1e-15,
    )


def test_calibrate_sigma_linear_in_budget_and_output_scale():
    spec1 = PrivacySpec(epsilon=0.7, delta=0.02, adjacency_bound=1.0)
    spec3 = PrivacySpec(epsilon=0.7, delta=0.02, adjacency_bound=3.0)
    C = np.array([[2.0, 0.0], [1.0, 1.0]])
    s1 = calibrate_sigma(spec1, C)
    assert_allclose(calibrate_sigma(spec3, C), 3.0 * s1, rtol=1e-14)
    assert_allclose(calibrate_sigma(spec1, 5.0 * C), 5.0 * s1, rtol=1e-14)


def test_privacy_spec_validation():
    PrivacySpec(epsilon=0.1, delta=0.5)  # boundary delta admitted
    with pytest.raises(ValueError):
        PrivacySpec(epsilon=0.0, delta=0.1)
    with pytest.raises(ValueError):
        PrivacySpec(epsilon=1.0, delta=0.0)
    with pytest.raises(ValueError):
        PrivacySpec(epsilon=1.0, delta=0.51)
    with pytest.raises(ValueError):
        PrivacySpec(epsilon=1.0, delta=0.1, adjacency_bound=0.0)
    with pytest.raises(ValueError):
        PrivacySpec(epsilon=math.inf, delta=0.1)
    # a real number is an int or a float, never a bool or a string
    for bad, name in (({"epsilon": "0.1"}, "epsilon"), ({"epsilon": True}, "epsilon"),
                      ({"delta": "0.01"}, "delta"), ({"delta": False}, "delta"),
                      ({"adjacency_bound": "1e0"}, "adjacency_bound")):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            PrivacySpec(**{"epsilon": 1.0, "delta": 0.1, **bad})
    assert PrivacySpec(epsilon=1, delta=0.1, adjacency_bound=2) == PrivacySpec(1.0, 0.1, 2.0)
    # every function that takes the budget b applies the same rule
    with pytest.raises(ValueError, match="adjacency_bound must be positive"):
        sensitivity_bound(np.eye(2), math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_output_map_is_rejected(bad):
    # sigma = kappa * s1(C) * b is finite exactly when C is; the check names C
    # instead of returning nan or failing inside the SVD
    C = np.array([[1.0, 0.0], [0.0, bad]])
    spec = PrivacySpec(epsilon=1.0, delta=0.1)
    with pytest.raises(ValueError, match="C must be finite"):
        sensitivity_bound(C, 1.0)
    with pytest.raises(ValueError, match="C must be finite"):
        calibrate_sigma(spec, C)


def test_calibrated_sigma_overflow_is_rejected():
    # a finite C, epsilon and budget can still overflow kappa * s1(C) * b
    with pytest.raises(ValueError, match="sigma must be >= 0 and finite, got inf"):
        calibrate_sigma(PrivacySpec(epsilon=1.0, delta=0.1, adjacency_bound=10.0),
                        np.array([[1e308]]))
    # a subnormal epsilon overflows kappa itself, which names epsilon
    with pytest.raises(ValueError, match="epsilon = 1e-310 gives the calibration factor inf"):
        calibrate_sigma(PrivacySpec(epsilon=1e-310, delta=0.1), np.eye(1))


# ----------------------------------------------------------------------
# Mechanism output
# ----------------------------------------------------------------------

def test_privatized_sample_statistics():
    # With sigma from the mechanism, the empirical mean/std of many draws
    # should match (loose tolerances; fixed seed keeps this deterministic).
    spec = PrivacySpec(epsilon=1.0, delta=0.1, adjacency_bound=1.0)
    sigma = calibrate_sigma(spec, np.eye(1))
    stream = GaussianStream(99)
    y = np.full(200_000, 5.0)
    out = y + sigma * stream.standard_normal(y.size)
    assert abs(out.mean() - 5.0) < 0.02
    assert abs(out.std() - sigma) < 0.02


# ----------------------------------------------------------------------
# DP inequality audit
# ----------------------------------------------------------------------

def test_audit_passes_calibrated_sigma():
    for eps, delta in [(0.1, 0.01), (0.5, 0.05), (1.0, 0.5), (2.0, 0.3), (3.0, 0.25)]:
        sigma = kappa(delta, eps) * 1.0
        res = verify_dp_inequality(1.0, sigma, eps, delta)
        assert isinstance(res, DpCheckResult)
        assert res.holds, (eps, delta, res.min_slack)
        assert res.min_slack >= 0.0


def test_audit_flags_undersized_sigma():
    # At moderate epsilon, half the calibrated noise already violates the
    # inequality; at eps = 0.1 the calibration is conservative enough that
    # the violation only appears around a quarter of the calibrated scale.
    sigma = kappa(0.05, 1.0)
    res = verify_dp_inequality(1.0, 0.5 * sigma, 1.0, 0.05)
    assert not res.holds
    assert res.min_slack < 0.0

    sigma_small_eps = kappa(0.01, 0.1)
    res2 = verify_dp_inequality(1.0, 0.25 * sigma_small_eps, 0.1, 0.01)
    assert not res2.holds


def test_audit_scales_with_sensitivity():
    # (delta_2, sigma) and (c delta_2, c sigma) describe the same mechanism.
    a = verify_dp_inequality(1.0, 2.0, 0.8, 0.05)
    b = verify_dp_inequality(3.0, 6.0, 0.8, 0.05)
    assert a.holds == b.holds
    assert_allclose(a.min_slack, b.min_slack, rtol=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(epsilon=st.floats(0.6, 3.0), delta=st.floats(0.01, 0.3),
       delta_2=st.floats(0.5, 3.0))
def test_audit_worst_threshold_is_the_closed_form(epsilon, delta, delta_2):
    # The worst half-line event of a Gaussian release sits where the two
    # densities cross, phi(t/sigma) = e^eps phi((t + Delta_2)/sigma), that
    # is at t* = sigma^2 eps/Delta_2 - Delta_2/2; the grid's argmin must be
    # within one spacing of it.
    sigma = kappa(delta, epsilon) * delta_2
    res = verify_dp_inequality(delta_2, sigma, epsilon, delta)
    t_star = sigma * sigma * epsilon / delta_2 - delta_2 / 2.0
    spacing = 20.0 * sigma / (DP_AUDIT_GRID_POINTS - 1)
    assert abs(res.worst_threshold - t_star) <= spacing
    assert res.holds


def test_audit_evaluates_a_small_window_on_calibrated_inputs(monkeypatch):
    # A calibrated audit's minimum is certified within a few dozen of the
    # grid's thresholds; a fall-back to the whole grid would pass the
    # bit-for-bit oracle test but fail this one.
    evaluated = []

    def counting_q(y):
        evaluated.append(np.size(y) // 2)
        return q_function(y)

    monkeypatch.setattr(privacy, "q_function", counting_q)
    for eps in [0.01, 0.1, 0.6, 1.0, 3.0, 10.0]:
        for delta in [1e-6, 0.01, 0.05, 0.3, 0.5]:
            for delta_2 in [1e-3, 1.0, 100.0]:
                evaluated.clear()
                res = verify_dp_inequality(delta_2, kappa(delta, eps) * delta_2, eps, delta)
                assert res.holds
                assert 0 < sum(evaluated) <= 64, (eps, delta, delta_2, evaluated)


def test_audit_zero_sensitivity_always_holds():
    res = verify_dp_inequality(0.0, 1.0, 0.01, 0.001)
    assert res.holds
    # lhs == rhs - delta at every threshold, so min slack is exactly delta
    assert_allclose(res.min_slack, 0.001, rtol=1e-12)


def test_audit_validates_arguments():
    with pytest.raises(ValueError):
        verify_dp_inequality(-1.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        verify_dp_inequality(1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        verify_dp_inequality(1.0, 1.0, 1.0, 0.7)
    with pytest.raises(ValueError, match="sigma must be positive"):
        verify_dp_inequality(1.0, math.inf, 1.0, 0.1)
    with pytest.raises(ValueError, match="sensitivity must be >= 0"):
        verify_dp_inequality(math.inf, 1.0, 1.0, 0.1)


def test_audit_rejects_an_epsilon_whose_exponential_overflows():
    # PrivacySpec and kappa accept any finite epsilon, but the audit weighs
    # a tail by e^epsilon, which is no double above log(max double)
    largest = math.log(sys.float_info.max)
    assert verify_dp_inequality(1.0, 1.0, largest, 0.05).holds
    for epsilon in (math.nextafter(largest, math.inf), 800.0, 1e300):
        assert kappa(0.05, epsilon) > 0.0
        with pytest.raises(ValueError, match="epsilon"):
            verify_dp_inequality(1.0, 1.0, epsilon, 0.05)

