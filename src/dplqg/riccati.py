"""Discrete-time algebraic Riccati equations: one map, solved and dualized.

Everything here is built on the regulator's Riccati map

    X  ->  A^T X A - (B^T X A)^T (R + B^T X B)^{-1} (B^T X A) + Q.

Its fixed point is the regulator's cost-to-go K, with feedback

    L = -(R + B^T K B)^{-1} B^T K A.

The filter equation is the same map on the dual data (A^T, C^T, W, V): its
fixed point is the one-step prediction covariance Sigma, from which

    SigmaBar = Sigma - Sigma C^T (C Sigma C^T + V)^{-1} C Sigma

is the filtered covariance and SigmaBar C^T V^{-1} the gain. The filter
solver, its residual and the observability test are therefore the
regulator's, called on transposed views: transposing moves no bits, so both
solves perform literally the same arithmetic.

The fixed point is found by iterating the map with symmetrization after
every step, which is the dynamic-programming value recursion and converges
to the unique stabilizing solution under the standing assumptions (positive
definite weights, controllable input pair, observable output pair), which
check_preconditions states once per problem for both solvers and network
assembly. Each solver's record keeps the residual it accepted its fixed
point with, and the regulator's the spectral radius of its Schur check.
The iteration is deliberately simple and fully deterministic; tests
cross-check it against closed-form scalar solutions and an independent
dense solver. Each step keeps the bits of its `@` and
np.linalg.norm spelling, which the tests keep as an oracle, because it
makes the same BLAS/LAPACK calls: ndarray.dot reaches the same BLAS
routines as `@`, each norm is np.linalg.norm's own ddot in memory order,
and np.linalg.solve stays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConvergenceError, check_pair, check_spd, check_square

MAX_ITERATIONS = 100_000
CONVERGENCE_RTOL = 1e-12
RESIDUAL_RTOL = 1e-9
RANK_TOL = 1e-8


@dataclass(frozen=True)
class ControlSynthesis:
    """Stationary regulator: Riccati solution K, feedback gain L, the residual
    K was accepted with and the spectral radius of the closed loop A + B L."""

    K: np.ndarray
    L: np.ndarray
    control_residual: float
    closed_loop_spectral_radius: float


@dataclass(frozen=True)
class FilterSynthesis:
    """Stationary estimator covariances and gain.

    Sigma is the one-step prediction error covariance, SigmaBar the
    filtered (post-measurement) error covariance, kalman_gain the matrix
    SigmaBar C^T V^{-1} applied to the innovation, filter_residual the
    residual the solve accepted Sigma with.
    """

    Sigma: np.ndarray
    SigmaBar: np.ndarray
    kalman_gain: np.ndarray
    filter_residual: float


def _dual_pair(A, C):
    """(A^T, C^T) for a finite square A and a finite q x n output matrix C."""
    return check_pair(np.asarray(A, dtype=float).T, np.asarray(C, dtype=float).T, "C^T")


def _staircase_rank(blocks):
    """Numerical rank of a stacked matrix via singular values."""
    stacked = np.concatenate(blocks, axis=0)
    s = np.linalg.svd(stacked, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def _full_krylov_rank(A, B):
    """Whether [B, AB, ..., A^{n-1} B] has rank n (relative tolerance 1e-8).

    The rank of the stacked blocks is checked after 1, 2, 4, 8, ... blocks
    and after block n. Full rank from fewer blocks already proves the
    claim, and stopping there keeps the huge powers of an unstable mode
    from pushing a stable mode's directions below the relative tolerance.
    """
    n = A.shape[0]
    blocks = []
    term = B
    for count in range(1, n + 1):
        blocks.append(term.T)
        if (count & (count - 1) == 0 or count == n) and _staircase_rank(blocks) == n:
            return True
        term = A @ term
    return False


def is_controllable(A, B):
    """Rank test on [B, AB, ..., A^{n-1} B] with relative tolerance 1e-8."""
    return _full_krylov_rank(*check_pair(A, B))


def is_observable(A, C):
    """Rank test on [C; CA; ...; C A^{n-1}]: controllability of (A^T, C^T)."""
    return _full_krylov_rank(*_dual_pair(A, C))


def _frobenius(M):
    """np.linalg.norm(M) without its wrapper: the same ddot in M's memory order."""
    v = M.ravel(order="K")
    return math.sqrt(v.dot(v))


def _riccati_map(X, A, At, B, Bt, Q, R):
    """X -> A^T X A - (B^T X A)^T (R + B^T X B)^{-1} (B^T X A) + Q.

    At and Bt are A.T and B.T, which the fixed-point loop forms once.
    """
    BX = Bt.dot(X)
    G = BX.dot(A)
    return At.dot(X).dot(A) - G.T.dot(np.linalg.solve(R + BX.dot(B), G)) + Q


def _check_weights(B, Q, R, dual):
    """check_preconditions' weight checks, for an n x m B; returns the
    symmetrized weights."""
    q_name, r_name = ("W", "V") if dual else ("Q", "R")
    n, m = B.shape
    Q = check_spd(Q, q_name)
    R = check_spd(R, r_name)
    if Q.shape[0] != n:
        raise ValueError(f"{q_name} must be {n} x {n}, got shape {Q.shape}")
    if R.shape[0] != m:
        raise ValueError(f"{r_name} must be {m} x {m}, got shape {R.shape}")
    return Q, R


def check_preconditions(A, B, Q, R, dual=False):
    """Standing assumptions of one Riccati problem on a checked pair (A, B).

    Q and R must be symmetric positive definite, n x n and m x m, and
    (A, B) controllable; violations raise AssumptionError, wrong sizes
    ValueError. With dual=True the arguments are a filter's dual data
    (A^T, C^T, W, V) and the errors name W, V and observability. Returns
    the symmetrized weights.
    """
    Q, R = _check_weights(B, Q, R, dual)
    if not _full_krylov_rank(A, B):
        raise AssumptionError("(A, C) is not observable" if dual
                              else "(A, B) is not controllable")
    return Q, R


def _iterate_to_fixed_point(A, B, Q, R):
    """Run X <- map(X) from X = Q, symmetrizing, until the iterates settle.

    Convergence is declared when the relative Frobenius change drops below
    CONVERGENCE_RTOL; the converged iterate must then pass the residual
    check and is returned with its residual, otherwise ConvergenceError
    reports how far the solve got. A step whose change is not finite (the
    iterate overflowed) raises it at once, with a NaN residual.
    """
    At, Bt = A.T, B.T
    X = 0.5 * (Q + Q.T)
    for iteration in range(1, MAX_ITERATIONS + 1):
        X_next = _riccati_map(X, A, At, B, Bt, Q, R)
        X_next = X_next + X_next.T
        X_next *= 0.5
        change = _frobenius(X_next - X) / max(1.0, _frobenius(X_next))
        X = X_next
        if not math.isfinite(change):
            raise ConvergenceError(f"iterate not finite at step {iteration}",
                                   iterations=iteration, residual=math.nan)
        if change < CONVERGENCE_RTOL:
            res = _residual(X, A, At, B, Bt, Q, R)
            if res <= RESIDUAL_RTOL:
                return X, res
            raise ConvergenceError(
                f"iteration stalled after {iteration} steps with residual {res:.3e}",
                iterations=iteration,
                residual=res,
            )
    res = _residual(X, A, At, B, Bt, Q, R)
    raise ConvergenceError(
        f"no fixed point within {MAX_ITERATIONS} iterations "
        f"(last residual {res:.3e})",
        iterations=MAX_ITERATIONS,
        residual=res,
    )


def solve_dare_control(A, B, Q, R):
    """Solve the regulator Riccati equation and return its ControlSynthesis.

    Requires Q and R symmetric positive definite and (A, B) controllable;
    violations raise AssumptionError naming the failed condition. The
    returned closed loop A + B L is verified Schur stable.
    """
    A, B = check_pair(A, B)
    Q, R = check_preconditions(A, B, Q, R)
    K, residual = _iterate_to_fixed_point(A, B, Q, R)
    L = -np.linalg.solve(R + B.T @ K @ B, B.T @ K @ A)
    radius = float(np.abs(np.linalg.eigvals(A + B @ L)).max())
    if radius >= 1.0:
        raise ConvergenceError(
            f"closed loop not Schur stable (spectral radius {radius:.6f})",
            residual=residual,
        )
    return ControlSynthesis(K=K, L=L, control_residual=residual,
                            closed_loop_spectral_radius=radius)


def solve_dare_filter(A, C, W, V):
    """Solve the filter Riccati equation and return its FilterSynthesis.

    Requires W and V symmetric positive definite and (A, C) observable;
    violations raise AssumptionError naming the failed condition.
    """
    At, Ct = _dual_pair(A, C)
    W, V = check_preconditions(At, Ct, W, V, dual=True)
    Sigma, residual = _iterate_to_fixed_point(At, Ct, W, V)
    C = Ct.T
    innovation_cov = C @ Sigma @ C.T + V
    SigmaBar = Sigma - Sigma @ C.T @ np.linalg.solve(innovation_cov, C @ Sigma)
    SigmaBar = 0.5 * (SigmaBar + SigmaBar.T)
    kalman_gain = SigmaBar @ C.T @ np.linalg.inv(V)
    return FilterSynthesis(Sigma=Sigma, SigmaBar=SigmaBar, kalman_gain=kalman_gain,
                           filter_residual=residual)


def _residual(K, A, At, B, Bt, Q, R):
    """||map(K) - K||_F / max(||K||_F, ||Q||_F) on checked data, At = A.T
    and Bt = B.T; a positive definite Q keeps the divisor positive."""
    defect = _riccati_map(K, A, At, B, Bt, Q, R) - K
    return _frobenius(defect) / max(_frobenius(K), _frobenius(Q))


def _checked_residual(K, A, B, Q, R, dual=False):
    """_residual after check_preconditions' weight checks (no rank test),
    computed on Q and R as passed, not on their symmetrized copies."""
    Q, R = np.asarray(Q, dtype=float), np.asarray(R, dtype=float)
    _check_weights(B, Q, R, dual)
    return _residual(np.asarray(K, dtype=float), A, A.T, B, B.T, Q, R)


def dare_residual_control(K, A, B, Q, R):
    """Relative fixed-point defect of a regulator Riccati candidate.

    ||map(K) - K||_F normalized by max(||K||_F, ||Q||_F), so the zero
    candidate scores 1 against any Q and an exact solution scores ~0.
    Q and R must be symmetric positive definite, n x n and m x m, as the
    solver requires (AssumptionError, or ValueError for a wrong size); no
    rank test is made.
    """
    return _checked_residual(K, *check_pair(A, B), Q, R)


def dare_residual_filter(Sigma, A, C, W, V):
    """Relative fixed-point defect of a filter Riccati candidate.

    The regulator's defect on the dual data (A^T, C^T, W, V); W and V are
    checked as dare_residual_control checks Q and R.
    """
    return _checked_residual(Sigma, *_dual_pair(A, C), W, V, dual=True)
