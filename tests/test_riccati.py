"""Tests for the discrete Riccati solvers.

Closed-form scalar solutions (golden-ratio family) and scipy's dense DARE
solver serve as independent oracles for the fixed-point iteration. The
regulator/filter duality is checked bitwise since the two code paths are
supposed to perform literally the same arithmetic on transposed data.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, solve_discrete_are

import dplqg.riccati as riccati
from dplqg.errors import AssumptionError, ConvergenceError, check_pair
from dplqg.riccati import (
    ControlSynthesis,
    FilterSynthesis,
    dare_residual_control,
    dare_residual_filter,
    is_controllable,
    is_observable,
    solve_dare_control,
    solve_dare_filter,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _random_system(rng, n, m, radius):
    """Random (A, B) with A scaled to a given spectral radius."""
    A = rng.standard_normal((n, n))
    A *= radius / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    B = rng.standard_normal((n, m))
    return A, B


# ----------------------------------------------------------------------
# Closed-form scalar oracles
# ----------------------------------------------------------------------

def test_scalar_golden_ratio_control():
    # a = b = q = r = 1: the Riccati equation reduces to x^2 - x - 1 = 0,
    # so K is the golden ratio and L = -1/phi.
    one = np.array([[1.0]])
    syn = solve_dare_control(one, one, one, one)
    assert_allclose(syn.K[0, 0], PHI, rtol=1e-12)
    assert_allclose(syn.L[0, 0], -1.0 / PHI, rtol=1e-12)
    # closed loop 1 - 1/phi = phi^{-2}
    assert_allclose(1.0 + syn.L[0, 0], PHI ** -2, rtol=1e-12)


def test_scalar_golden_ratio_filter():
    one = np.array([[1.0]])
    syn = solve_dare_filter(one, one, one, one)
    assert_allclose(syn.Sigma[0, 0], PHI, rtol=1e-12)
    # SigmaBar = Sigma/(Sigma + 1) = 1/phi, and the gain coincides with it
    assert_allclose(syn.SigmaBar[0, 0], 1.0 / PHI, rtol=1e-12)
    assert_allclose(syn.kalman_gain[0, 0], 1.0 / PHI, rtol=1e-12)


def test_scalar_unstable_plant_control():
    # a = 2, b = q = r = 1: x^2 - 4x - 1 = 0, K = 2 + sqrt(5), L = -phi,
    # closed loop 2 - phi = (3 - sqrt(5))/2, comfortably stable.
    A = np.array([[2.0]])
    one = np.array([[1.0]])
    syn = solve_dare_control(A, one, one, one)
    assert_allclose(syn.K[0, 0], 2.0 + math.sqrt(5.0), rtol=1e-12)
    assert_allclose(syn.L[0, 0], -PHI, rtol=1e-12)
    assert abs(2.0 + syn.L[0, 0]) < 1.0


def test_scalar_heavy_noise_filter():
    # a = 1, c = 1, w = 1, v = 100: Sigma solves S^2 - S - 100 = 0 scaled,
    # i.e. Sigma = (w + sqrt(w^2 + 4 w v)) / 2 for this parameterization.
    # Derive from the quadratic directly to avoid trusting the solver twice:
    # S = S - S^2/(S+v) + w  =>  S^2 = w S + w v.
    v = 100.0
    S_exact = (1.0 + math.sqrt(1.0 + 4.0 * v)) / 2.0
    syn = solve_dare_filter(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[v]])
    )
    assert_allclose(syn.Sigma[0, 0], S_exact, rtol=1e-10)


# ----------------------------------------------------------------------
# Frozen multivariate case (double integrator, dt = 0.1)
# ----------------------------------------------------------------------

def test_double_integrator_control_frozen():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    syn = solve_dare_control(A, B, np.eye(2), np.array([[1.0]]))
    K_expected = np.array(
        [
            [12.08450581871928, 1.6975387532475272],
            [1.6975387532475272, 1.8816378188037517],
        ]
    )
    L_expected = np.array([[-0.5890881713761735, -0.7118839434790922]])
    assert_allclose(syn.K, K_expected, rtol=1e-10)
    assert_allclose(syn.L, L_expected, rtol=1e-10)


def test_double_integrator_filter_frozen():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    W = np.array([[1.0, 0.5], [0.5, 1.0]])
    syn = solve_dare_filter(A, np.eye(2), W, np.eye(2))
    Sigma_expected = np.array(
        [
            [1.6183540159855272, 0.6634185803498368],
            [0.6634185803498368, 1.58650585150686],
        ]
    )
    assert_allclose(syn.Sigma, Sigma_expected, rtol=1e-10)
    # With C = V = I the filtered covariance and the gain coincide:
    # SigmaBar = Sigma (Sigma + I)^{-1} = gain.
    assert_allclose(syn.kalman_gain, syn.SigmaBar, rtol=1e-12)


# ----------------------------------------------------------------------
# Cross-check against scipy's dense solver
# ----------------------------------------------------------------------

def test_control_matches_scipy_on_random_systems():
    rng = np.random.default_rng(314)
    for trial in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        A, B = _random_system(rng, n, m, radius=float(rng.uniform(0.3, 1.4)))
        Q = np.eye(n) + 0.1 * _random_pd(rng, n)
        R = np.eye(m) + 0.1 * _random_pd(rng, m)
        if not is_controllable(A, B):
            continue
        syn = solve_dare_control(A, B, Q, R)
        X = solve_discrete_are(A, B, Q, R)
        assert_allclose(syn.K, X, rtol=1e-7, atol=1e-9)
        assert dare_residual_control(syn.K, A, B, Q, R) <= 1e-9
        closed = A + B @ syn.L
        assert np.abs(np.linalg.eigvals(closed)).max() < 1.0


def test_filter_matches_scipy_on_random_systems():
    rng = np.random.default_rng(2718)
    for trial in range(50):
        n = int(rng.integers(1, 6))
        q = int(rng.integers(1, 4))
        A, Ct = _random_system(rng, n, q, radius=float(rng.uniform(0.3, 1.4)))
        C = Ct.T
        W = np.eye(n) + 0.1 * _random_pd(rng, n)
        V = np.eye(q) + 0.1 * _random_pd(rng, q)
        if not is_observable(A, C):
            continue
        syn = solve_dare_filter(A, C, W, V)
        S = solve_discrete_are(A.T, C.T, W, V)
        assert_allclose(syn.Sigma, S, rtol=1e-7, atol=1e-9)
        assert dare_residual_filter(syn.Sigma, A, C, W, V) <= 1e-9
        # gain identity: SigmaBar C^T V^{-1} == Sigma C^T (C Sigma C^T + V)^{-1}
        alt = syn.Sigma @ C.T @ np.linalg.inv(C @ syn.Sigma @ C.T + V)
        assert_allclose(syn.kalman_gain, alt, rtol=1e-8, atol=1e-11)


def _random_pd(rng, n):
    G = rng.standard_normal((n, n))
    return G @ G.T


# ----------------------------------------------------------------------
# Duality
# ----------------------------------------------------------------------

def test_filter_control_duality_is_bitwise():
    # The filter solve for (A, C, W, V) and the regulator solve for
    # (A^T, C^T, W, V) run identical floating-point operations, so the
    # results must agree exactly, not merely to tolerance.
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, 4))
        A, Ct = _random_system(rng, n, q, radius=0.9)
        C = Ct.T
        W = np.eye(n) + 0.1 * _random_pd(rng, n)
        V = np.eye(q) + 0.1 * _random_pd(rng, q)
        if not is_observable(A, C):
            continue
        filt = solve_dare_filter(A, C, W, V)
        dual = solve_dare_control(A.T, C.T, W, V)
        assert np.array_equal(filt.Sigma, dual.K)


# ----------------------------------------------------------------------
# Residual diagnostics
# ----------------------------------------------------------------------

def test_residual_zero_candidate_scores_one():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    Q = np.eye(2)
    R = np.array([[1.0]])
    assert dare_residual_control(np.zeros((2, 2)), A, B, Q, R) == 1.0
    W = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert dare_residual_filter(np.zeros((2, 2)), A, np.eye(2), W, np.eye(2)) == 1.0


def test_residuals_check_their_weights_but_not_rank():
    zero, one = np.zeros((1, 1)), np.eye(1)
    # K = Q = 0 used to divide 0 by 0 (a RuntimeWarning and nan), and a
    # negative definite Q was scored like any other
    with pytest.raises(AssumptionError, match="Q must be positive definite"):
        dare_residual_control(zero, one, one, zero, one)
    with pytest.raises(AssumptionError, match="Q must be positive definite"):
        dare_residual_control(one, one, one, -one, one)
    with pytest.raises(AssumptionError, match="R must be symmetric"):
        dare_residual_control(np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                              [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="Q must be 2 x 2"):
        dare_residual_control(np.eye(2), np.eye(2), np.ones((2, 1)), np.eye(3), one)
    with pytest.raises(AssumptionError, match="V must be positive definite"):
        dare_residual_filter(one, one, one, one, -one)
    with pytest.raises(AssumptionError, match="W must be positive definite"):
        dare_residual_filter(one, one, one, zero, one)
    # an uncontrollable pair is still scored: there is no rank test
    assert dare_residual_control(np.eye(2), np.eye(2), np.zeros((2, 1)), np.eye(2),
                                 one) == 1.0
    # the defect is computed on the weights as passed, not symmetrized
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    Q = np.array([[1.0, 1e-12], [0.0, 1.0]])
    K = solve_dare_control(A, B, Q, one).K
    assert (_bits(dare_residual_control(K, A, B, Q, one))
            == _bits(_ref_dare_residual_control(K, A, B, Q, one)))
    assert (_bits(dare_residual_filter(K, A.T, B.T, Q, one))
            == _bits(_ref_dare_residual_control(K, A, B, Q, one)))


def test_residual_detects_perturbation():
    one = np.array([[1.0]])
    syn = solve_dare_control(one, one, one, one)
    good = dare_residual_control(syn.K, one, one, one, one)
    bad = dare_residual_control(syn.K + 0.01, one, one, one, one)
    assert good <= 1e-9
    assert bad > 1e-4


# ----------------------------------------------------------------------
# System-theoretic predicates
# ----------------------------------------------------------------------

def test_controllability_basic_cases():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert is_controllable(A, np.array([[0.0], [1.0]]))
    # input aligned with an invariant subspace: not controllable
    assert not is_controllable(np.diag([2.0, 3.0]), np.array([[1.0], [0.0]]))
    assert is_controllable(np.diag([2.0, 3.0]), np.array([[1.0], [1.0]]))
    # 64 double integrators, one of them without an input: every block
    # power must be stacked before the rank test can say no
    A64 = block_diag(*[A] * 64)
    B64 = block_diag(*([np.array([[0.0], [1.0]])] * 63 + [np.zeros((2, 1))]))
    assert not is_controllable(A64, B64)


def _full_stack_singular_values(A, B):
    """Singular values of all n blocks [B, AB, ..., A^{n-1} B], stacked."""
    blocks, term = [], B
    for _ in range(A.shape[0]):
        blocks.append(term.T)
        term = A @ term
    return np.linalg.svd(np.concatenate(blocks), compute_uv=False)


@st.composite
def _small_pairs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    # sparse small integers: plenty of pairs on both sides of the verdict
    entries = st.one_of(st.just(0.0), st.integers(-3, 3).map(float))
    return (
        draw(arrays(float, (n, n), elements=entries)),
        draw(arrays(float, (n, m), elements=entries)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_pairs())
def test_early_exit_rank_test_matches_full_stack(pair):
    # Stopping at the first full-rank prefix must agree with the rank of
    # the whole stack whenever no singular value sits near the tolerance.
    A, B = pair
    s = _full_stack_singular_values(A, B)
    if s[0] == 0.0:
        full_rank = False
    else:
        ratio = s / s[0]
        tol = riccati.RANK_TOL
        assume(not np.any((ratio > tol / 10.0) & (ratio < tol * 10.0)))
        full_rank = int(np.count_nonzero(ratio > tol)) == A.shape[0]
    assert is_controllable(A, B) == full_rank


def test_observability_is_dual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        q = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((q, n))
        assert is_observable(A, C) == is_controllable(A.T, C.T)


def test_observability_catches_hidden_mode():
    A = np.diag([0.5, 1.5])
    C = np.array([[1.0, 0.0]])
    assert not is_observable(A, C)


# ----------------------------------------------------------------------
# Assumption violations and failure reporting
# ----------------------------------------------------------------------

def test_control_rejects_uncontrollable_pair():
    A = np.diag([2.0, 2.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(AssumptionError, match="controllable"):
        solve_dare_control(A, B, np.eye(2), np.array([[1.0]]))


def test_filter_rejects_unobservable_pair():
    A = np.diag([0.5, 1.5])
    C = np.array([[1.0, 0.0]])
    with pytest.raises(AssumptionError, match="observable"):
        solve_dare_filter(A, C, np.eye(2), np.eye(1))


def test_weights_must_be_symmetric_positive_definite():
    one = np.array([[1.0]])
    with pytest.raises(AssumptionError, match="positive definite"):
        solve_dare_control(one, one, np.array([[0.0]]), one)
    with pytest.raises(AssumptionError, match="positive definite"):
        solve_dare_control(one, one, one, np.array([[-1.0]]))
    with pytest.raises(AssumptionError, match="symmetric"):
        solve_dare_control(
            np.eye(2),
            np.eye(2),
            np.array([[1.0, 0.3], [0.0, 1.0]]),
            np.eye(2),
        )
    with pytest.raises(AssumptionError, match="positive definite"):
        solve_dare_filter(one, one, np.array([[0.0]]), one)


def test_dimension_mismatches_raise_value_error():
    with pytest.raises(ValueError):
        solve_dare_control(np.eye(2), np.zeros((3, 1)), np.eye(2), np.eye(1))
    with pytest.raises(ValueError):
        solve_dare_control(np.eye(2), np.zeros((2, 1)), np.eye(3), np.eye(1))
    with pytest.raises(ValueError, match="R must be 1 x 1"):
        solve_dare_control(np.eye(2), np.zeros((2, 1)), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        solve_dare_filter(np.eye(2), np.zeros((1, 3)), np.eye(2), np.eye(1))
    # a NaN or inf in A, B or C is named before a rank test or a solve can
    # misread it
    nan, inf, one = [[np.nan]], [[np.inf]], [[1.0]]
    for call, name in ((lambda: is_controllable(nan, one), "A"),
                       (lambda: is_controllable(one, inf), "B"),
                       (lambda: is_observable(nan, one), "A"),
                       (lambda: is_observable(one, inf), "C"),
                       (lambda: solve_dare_control(nan, one, one, one), "A"),
                       (lambda: solve_dare_control(one, inf, one, one), "B"),
                       (lambda: solve_dare_filter(one, nan, one, one), "C"),
                       (lambda: dare_residual_control(one, nan, one, one, one), "A"),
                       (lambda: dare_residual_filter(one, one, inf, one, one), "C")):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got NaN or inf$"):
            call()
    # so is an empty A: a system with no states is neither controllable nor not
    empty = np.zeros((0, 0))
    for call in (lambda: is_controllable(empty, np.zeros((0, 1))),
                 lambda: is_observable(empty, np.zeros((1, 0))),
                 lambda: solve_dare_control(empty, np.zeros((0, 1)), empty, one)):
        with pytest.raises(ValueError, match=r"^A must have at least one row, got shape \(0, 0\)$"):
            call()


def test_iteration_cap_reports_progress(monkeypatch):
    # Starve the iteration so the non-convergence path runs; the error must
    # carry the iteration count and the last residual for diagnostics.
    monkeypatch.setattr(riccati, "MAX_ITERATIONS", 3)
    one = np.array([[1.0]])
    with pytest.raises(ConvergenceError) as exc_info:
        solve_dare_control(np.array([[2.0]]), one, one, one)
    err = exc_info.value
    assert err.iterations == 3
    assert err.residual is not None and err.residual > 0.0


def test_non_finite_iterate_fails_at_that_step():
    # A^T X A overflows on the first step and inf - inf makes the iterate
    # NaN; the solver stops there instead of iterating to MAX_ITERATIONS.
    one = np.array([[1.0]])
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError,
                                                  match="not finite at step 1") as exc_info:
        solve_dare_control(np.array([[1e200]]), one, one, one)
    err = exc_info.value
    assert err.iterations == 1
    assert math.isnan(err.residual)


# ----------------------------------------------------------------------
# Bit-for-bit oracle for the fixed-point step
# ----------------------------------------------------------------------

# The step as it stood when it used `@` and np.linalg.norm, kept verbatim
# (constants and errors read from the module). The solver must make the
# same BLAS/LAPACK calls in the same order, so every bit must match.

def _ref_riccati_map(X, A, B, Q, R):
    """X -> A^T X A - (B^T X A)^T (R + B^T X B)^{-1} (B^T X A) + Q."""
    BX = B.T @ X
    G = BX @ A
    return A.T @ X @ A - G.T @ np.linalg.solve(R + BX @ B, G) + Q


def _ref_iterate_to_fixed_point(A, B, Q, R):
    X = 0.5 * (Q + Q.T)
    for iteration in range(1, riccati.MAX_ITERATIONS + 1):
        X_next = _ref_riccati_map(X, A, B, Q, R)
        X_next = 0.5 * (X_next + X_next.T)
        change = np.linalg.norm(X_next - X) / max(1.0, np.linalg.norm(X_next))
        X = X_next
        if change < riccati.CONVERGENCE_RTOL:
            res = _ref_dare_residual_control(X, A, B, Q, R)
            if res <= riccati.RESIDUAL_RTOL:
                return X
            raise ConvergenceError(
                f"iteration stalled after {iteration} steps with residual {res:.3e}",
                iterations=iteration,
                residual=res,
            )
    res = _ref_dare_residual_control(X, A, B, Q, R)
    raise ConvergenceError(
        f"no fixed point within {riccati.MAX_ITERATIONS} iterations "
        f"(last residual {res:.3e})",
        iterations=riccati.MAX_ITERATIONS,
        residual=res,
    )


def _ref_dare_residual_control(K, A, B, Q, R):
    K, A, B, Q, R = (np.asarray(M, dtype=float) for M in (K, A, B, Q, R))
    return float(
        np.linalg.norm(_ref_riccati_map(K, A, B, Q, R) - K)
        / max(np.linalg.norm(K), np.linalg.norm(Q))
    )


def _bits(M):
    return np.asarray(M, dtype=float).view(np.int64)


def _assert_step_matches_oracle(A, B, Q, R, rng):
    """Map, fixed point and residuals of one checked problem, bit for bit."""
    n = A.shape[0]
    X = rng.standard_normal((n, n))
    X = X @ X.T
    assert np.array_equal(_bits(riccati._riccati_map(X, A, A.T, B, B.T, Q, R)),
                          _bits(_ref_riccati_map(X, A, B, Q, R)))
    K, residual = riccati._iterate_to_fixed_point(A, B, Q, R)
    assert np.array_equal(_bits(K), _bits(_ref_iterate_to_fixed_point(A, B, Q, R)))
    assert _bits(residual) == _bits(_ref_dare_residual_control(K, A, B, Q, R))
    # a non-symmetric F-ordered candidate: the norms must sum in memory order
    K_f = np.asfortranarray(K + 1e-3 * rng.standard_normal((n, n)))
    for cand in (K, X, K_f, K_f.T):
        assert (_bits(dare_residual_control(cand, A, B, Q, R))
                == _bits(_ref_dare_residual_control(cand, A, B, Q, R)))


def _checked_problem(rng, n, m, dual):
    """A random problem as the solvers pass it to the iteration.

    With dual=True the data are a filter's (A^T, C^T, W, V), transposed
    views as solve_dare_filter makes them.
    """
    A, B = _random_system(rng, n, m, radius=float(rng.uniform(0.3, 1.3)))
    Q = np.eye(n) + 0.1 * _random_pd(rng, n)
    R = np.eye(m) + 0.1 * _random_pd(rng, m)
    if dual:  # the m x n output map C is B's transpose
        A, B = riccati._dual_pair(A, np.ascontiguousarray(B.T))
    else:
        A, B = check_pair(A, B)
    Q, R = riccati.check_preconditions(A, B, Q, R, dual=dual)
    return A, B, Q, R


@st.composite
def _step_cases(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_step_cases(), st.booleans())
@example((1, 1, 0), False)
@example((1, 1, 0), True)
@example((6, 1, 1), True)
@example((6, 6, 2), False)
@example((128, 64, 128), False)
def test_riccati_step_matches_oracle_bit_for_bit(case, dual):
    n, m, seed = case
    rng = np.random.default_rng(seed)
    _assert_step_matches_oracle(*_checked_problem(rng, n, m, dual), rng)


def test_synthesis_dataclasses_hold_arrays():
    c = ControlSynthesis(K=np.eye(2), L=np.zeros((1, 2)), control_residual=0.0,
                         closed_loop_spectral_radius=0.5)
    assert c.K.shape == (2, 2)
    f = FilterSynthesis(Sigma=np.eye(2), SigmaBar=np.eye(2), kalman_gain=np.eye(2),
                        filter_residual=0.0)
    assert f.kalman_gain.shape == (2, 2)
