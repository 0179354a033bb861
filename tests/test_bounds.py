"""Tests for the closed-form entropy bounds on the eavesdropper's estimate.

The scalar case a = 0.5, w = c = v = 1 is fully workable by hand and all of
its intermediate quantities are frozen below. The PSD-order claims are then
exercised on random diagonal-output systems against the exact solved
covariance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import dplqg.bounds as bounds
from dplqg.bounds import (
    EntropyBoundReport,
    covariance_bound_condition,
    covariance_upper_bound,
    entropy_bound_report,
    homogeneous_entropy_estimate,
    logdet,
    posterior_variance_diag,
    variance_floor,
)
from dplqg.errors import InapplicableBoundError
from dplqg.riccati import solve_dare_filter

ONE = np.eye(1)


def _random_diagonal_instance(rng, n):
    """Random stable-ish A with diagonal C, V and PD W."""
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.2, 0.95) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    G = rng.standard_normal((n, n))
    W = G @ G.T + 0.3 * np.eye(n)
    C = np.diag(rng.uniform(0.5, 2.0, size=n))
    V = np.diag(rng.uniform(0.2, 3.0, size=n))
    return A, W, C, V


# ----------------------------------------------------------------------
# Scalar worked example
# ----------------------------------------------------------------------

def test_posterior_variance_scalar_by_hand():
    # prior 1, gain 1, noise 1: posterior = 1*1/(1+1) = 1/2
    gamma = posterior_variance_diag(ONE, ONE, ONE)
    assert gamma.shape == (1,)
    assert gamma[0] == 0.5


def test_variance_floor_scalar_by_hand():
    # s_min(0.5)^2 * 0.5 + lambda_min(I) = 0.125 + 1
    assert variance_floor(0.5 * ONE, ONE, ONE, ONE) == 1.125


def test_condition_margin_scalar_by_hand():
    holds, margin = covariance_bound_condition(0.5 * ONE, ONE, ONE, ONE)
    assert holds
    assert margin == 1.875  # 1 + 1.125 - 0.25


def test_covariance_cap_scalar_by_hand():
    # lambda_max(W)/margin * a^2 + w = (1/1.875) * 0.25 + 1 = 17/15
    cap = covariance_upper_bound(0.5 * ONE, ONE, ONE, ONE)
    assert_allclose(cap[0, 0], 17.0 / 15.0, rtol=1e-15)


def test_entropy_report_scalar_frozen():
    rep = entropy_bound_report(0.5 * ONE, ONE, ONE, ONE)
    assert isinstance(rep, EntropyBoundReport)
    assert rep.posterior_floor_diag == (0.5,)
    assert rep.variance_floor == 1.125
    assert rep.condition_holds
    assert rep.condition_margin == 1.875
    assert rep.privacy_term == 1.125
    assert_allclose(rep.entropy_bound, 17.0 / 15.0, rtol=1e-15)
    # exact solved covariance: S solves S = a^2 S v/(S+v) + w
    assert_allclose(rep.logdet_covariance, 0.12467674692141124, rtol=1e-10)
    assert_allclose(math.exp(rep.logdet_covariance), 1.132782218537283, rtol=1e-10)
    # the cap really holds, strictly
    assert rep.logdet_covariance < rep.entropy_bound
    # w = 1, c = 1, v = 1 is the homogeneous special case
    assert_allclose(rep.homogeneous_estimate, 1.2222222222222223, rtol=1e-15)


def test_report_kv_lines_format():
    rep = entropy_bound_report(0.5 * ONE, ONE, ONE, ONE)
    lines = rep.kv_lines()
    assert lines[0] == "condition_holds = true"
    assert any(line.startswith("entropy_bound = ") for line in lines)
    joined = "\n".join(lines)
    assert "variance_floor = 1.125" in joined
    # an inapplicable report writes the verdict and the floors, no cap lines
    rep = entropy_bound_report(2.0 * ONE, ONE, ONE, 100.0 * ONE)
    assert [line.split(" = ")[0] for line in rep.kv_lines()] == [
        "condition_holds", "condition_margin", "variance_floor",
        "posterior_floor_diag",
    ]


# ----------------------------------------------------------------------
# Posterior variance properties
# ----------------------------------------------------------------------

def test_posterior_variance_formula_and_limits():
    W = np.diag([2.0, 0.5, 1.0])
    C = np.diag([1.0, 3.0, 0.5])
    V = np.diag([0.5, 1.0, 4.0])
    gamma = posterior_variance_diag(W, C, V)
    w, c, v = np.diag(W), np.diag(C), np.diag(V)
    assert_allclose(gamma, v * w / (v + c * c * w), rtol=1e-15)
    # equals the harmonic combination (1/w + c^2/v)^{-1}
    assert_allclose(gamma, 1.0 / (1.0 / w + c * c / v), rtol=1e-14)
    assert np.all(gamma > 0.0)
    assert np.all(gamma < w)


def test_posterior_variance_grows_with_noise():
    W = np.eye(2)
    C = np.eye(2)
    prev = None
    for v in [0.1, 1.0, 10.0, 1e4]:
        gamma = posterior_variance_diag(W, C, v * np.eye(2))
        if prev is not None:
            assert np.all(gamma > prev)
        prev = gamma
    # saturation at the prior variance
    assert_allclose(prev, np.ones(2), rtol=1e-3)


# ----------------------------------------------------------------------
# Floor and cap against the exact covariance
# ----------------------------------------------------------------------

def test_floor_below_solved_covariance_random_instances():
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        A, W, C, V = _random_diagonal_instance(rng, n)
        floor = variance_floor(A, W, C, V)
        Sigma = solve_dare_filter(A, C, W, V).Sigma
        lam_max = float(np.linalg.eigvalsh(Sigma)[-1])
        assert lam_max >= floor * (1.0 - 1e-9), (lam_max, floor)
        checked += 1
    assert checked == 60


def test_cap_dominates_solved_covariance_when_applicable():
    rng = np.random.default_rng(21)
    applicable = 0
    for _ in range(80):
        n = int(rng.integers(1, 5))
        A, W, C, V = _random_diagonal_instance(rng, n)
        holds, margin = covariance_bound_condition(A, W, C, V)
        if not holds:
            with pytest.raises(InapplicableBoundError):
                covariance_upper_bound(A, W, C, V)
            continue
        cap = covariance_upper_bound(A, W, C, V)
        Sigma = solve_dare_filter(A, C, W, V).Sigma
        gap_eigs = np.linalg.eigvalsh(cap - Sigma)
        assert gap_eigs.min() >= -1e-8 * max(1.0, np.abs(cap).max())
        applicable += 1
    assert applicable >= 30  # the sampler must actually exercise the cap


def test_entropy_bound_is_strict_on_applicable_instances():
    rng = np.random.default_rng(99)
    seen = 0
    while seen < 40:
        n = int(rng.integers(1, 5))
        A, W, C, V = _random_diagonal_instance(rng, n)
        rep = entropy_bound_report(A, W, C, V)
        if not rep.condition_holds:
            continue
        assert rep.logdet_covariance < rep.entropy_bound
        seen += 1


@st.composite
def _diagonal_output_instances(draw):
    n = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    A = draw(arrays(float, (n, n), elements=unit)) * draw(st.floats(0.05, 2.0))
    G = draw(arrays(float, (n, n), elements=unit))
    c = draw(arrays(float, n, elements=st.floats(0.3, 2.0)))
    v = draw(arrays(float, n, elements=st.floats(0.05, 5.0)))
    return A, G @ G.T + 0.3 * np.eye(n), np.diag(c), np.diag(v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_diagonal_output_instances())
def test_report_agrees_with_the_public_bounds(instance):
    A, W, C, V = instance
    rep = entropy_bound_report(A, W, C, V)
    assert rep.posterior_floor_diag == tuple(posterior_variance_diag(W, C, V))
    assert rep.variance_floor == variance_floor(A, W, C, V)
    holds, margin = covariance_bound_condition(A, W, C, V)
    assert (rep.condition_holds, rep.condition_margin) == (holds, margin)
    if margin > 1e-6:
        # the report's entropy_bound is the trace of the matrix cap, written
        # through privacy_term instead of the margin
        cap = covariance_upper_bound(A, W, C, V)
        assert_allclose(rep.entropy_bound, np.trace(cap), rtol=1e-12, atol=0.0)
        assert rep.logdet_covariance < rep.entropy_bound


def test_bound_chain_det_monotonicity_and_am_gm():
    # The two inequalities the cap argument rests on, checked directly:
    # 0 < A <= B in PSD order implies det A <= det B, and
    # log det M <= trace(M) - n for PD M (AM-GM on eigenvalues).
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        G = rng.standard_normal((n, n))
        Mat = G @ G.T + 0.1 * np.eye(n)
        H = rng.standard_normal((n, n))
        bigger = Mat + H @ H.T
        assert np.linalg.det(Mat) <= np.linalg.det(bigger) * (1.0 + 1e-9)
        assert logdet(Mat) <= np.trace(Mat) - n + 1e-9


def test_inapplicable_error_carries_margin():
    # strongly expanding A with weak measurements: condition must fail
    A = 2.0 * ONE
    V = 100.0 * ONE
    holds, margin = covariance_bound_condition(A, ONE, ONE, V)
    assert not holds and margin < 0.0
    with pytest.raises(InapplicableBoundError) as exc_info:
        covariance_upper_bound(A, ONE, ONE, V)
    assert exc_info.value.margin == margin
    rep = entropy_bound_report(A, ONE, ONE, V)
    assert rep.condition_holds is False
    assert rep.condition_margin == margin


def test_inapplicable_report_keeps_floors_and_skips_the_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the filter DARE must not be solved")

    monkeypatch.setattr(bounds, "solve_dare_filter", no_solve)
    A, V = 2.0 * ONE, 100.0 * ONE
    rep = entropy_bound_report(A, ONE, ONE, V)
    assert rep.variance_floor == variance_floor(A, ONE, ONE, V)
    assert rep.posterior_floor_diag == tuple(posterior_variance_diag(ONE, ONE, V))
    assert rep.logdet_covariance is None and rep.entropy_bound is None
    assert rep.privacy_term is None and rep.homogeneous_estimate is None


# ----------------------------------------------------------------------
# Privacy payoff: more noise forces higher entropy
# ----------------------------------------------------------------------

def test_solved_entropy_grows_with_privacy_noise():
    A = np.array([[0.9, 0.05], [0.0, 0.8]])
    W = np.diag([0.5, 0.7])
    C = np.eye(2)
    prev = -np.inf
    for sigma in [0.5, 1.0, 2.0, 4.0, 8.0]:
        Sigma = solve_dare_filter(A, C, W, sigma ** 2 * np.eye(2)).Sigma
        ld = logdet(Sigma)
        assert ld > prev
        prev = ld


def test_entropy_bound_grows_with_privacy_noise():
    A = np.array([[0.5, 0.0], [0.1, 0.4]])
    W = np.eye(2)
    C = np.eye(2)
    prev = -np.inf
    for sigma in [0.5, 1.0, 2.0]:
        rep = entropy_bound_report(A, W, C, sigma ** 2 * np.eye(2))
        assert rep.entropy_bound > prev
        prev = rep.entropy_bound


# ----------------------------------------------------------------------
# Homogeneous shortcut
# ----------------------------------------------------------------------

def test_homogeneous_estimate_frozen_and_quadrupling():
    assert_allclose(
        homogeneous_entropy_estimate(0.5 * ONE, 1.0, 1.0),
        1.2222222222222223,
        rtol=1e-15,
    )
    # for nearly memoryless dynamics the noise-dependent term scales ~ sigma^2
    A = np.array([[0.1]])
    e10 = homogeneous_entropy_estimate(A, 1.0, 10.0)
    e20 = homogeneous_entropy_estimate(A, 1.0, 20.0)
    ratio = (e20 - 1.0) / (e10 - 1.0)
    assert_allclose(ratio, 4.0, rtol=1e-3)


def test_homogeneous_estimate_validation():
    with pytest.raises(ValueError):
        homogeneous_entropy_estimate(ONE, 0.0, 1.0)
    with pytest.raises(ValueError):
        homogeneous_entropy_estimate(ONE, 1.0, -1.0)
    with pytest.raises(ValueError, match="process_var must be positive"):
        homogeneous_entropy_estimate(ONE, math.inf, 1.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        homogeneous_entropy_estimate(ONE, 1.0, math.inf)


def test_report_omits_homogeneous_field_when_agents_differ():
    A = np.diag([0.5, 0.4])
    W = np.diag([1.0, 2.0])  # not isotropic
    rep = entropy_bound_report(A, W, np.eye(2), np.eye(2))
    assert rep.homogeneous_estimate is None


# ----------------------------------------------------------------------
# logdet and validation
# ----------------------------------------------------------------------

def test_logdet_matches_slogdet():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        G = rng.standard_normal((n, n))
        M = G @ G.T + 0.2 * np.eye(n)
        sign, ld = np.linalg.slogdet(M)
        assert sign == 1.0
        assert_allclose(logdet(M), ld, rtol=1e-10)


def test_logdet_rejects_indefinite():
    with pytest.raises(ValueError):
        logdet(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        logdet(np.zeros((2, 2)))


def test_bound_inputs_validated():
    full = np.array([[1.0, 0.2], [0.2, 1.0]])
    with pytest.raises(ValueError, match="diagonal"):
        posterior_variance_diag(np.eye(2), full, np.eye(2))
    with pytest.raises(ValueError, match="diagonal"):
        posterior_variance_diag(np.eye(2), np.eye(2), full)
    with pytest.raises(ValueError, match="positive"):
        posterior_variance_diag(np.eye(2), np.eye(2), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="symmetric"):
        variance_floor(np.eye(2), np.array([[1.0, 0.4], [0.0, 1.0]]), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        variance_floor(np.eye(2), np.eye(2), np.eye(3), np.eye(2))
    # non-finite numbers are named before any other check can misreport them
    inf_w = np.diag([1.0, np.inf])
    with pytest.raises(ValueError, match="W must be finite, got NaN or inf"):
        variance_floor(np.eye(2), inf_w, np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="W must be finite, got NaN or inf"):
        entropy_bound_report(0.5 * np.eye(2), inf_w, np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="V must be finite, got NaN or inf"):
        posterior_variance_diag(np.eye(2), np.eye(2), np.diag([1.0, np.inf]))
    with pytest.raises(ValueError, match="C must be finite, got NaN or inf"):
        posterior_variance_diag(np.eye(2), np.diag([np.nan, 1.0]), np.eye(2))
    with pytest.raises(ValueError, match="A must be finite, got NaN or inf"):
        covariance_bound_condition(np.diag([np.nan, 0.5]), np.eye(2), np.eye(2), np.eye(2))
