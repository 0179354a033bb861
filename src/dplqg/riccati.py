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
assembly. The iteration is deliberately simple and fully deterministic;
tests cross-check it against closed-form scalar solutions and an
independent dense solver.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionError, ConvergenceError, check_finite, check_square,
                     check_symmetric)

MAX_ITERATIONS = 100_000
CONVERGENCE_RTOL = 1e-12
RESIDUAL_RTOL = 1e-9
RANK_TOL = 1e-8


@dataclass(frozen=True)
class ControlSynthesis:
    """Stationary regulator: Riccati solution K and feedback gain L."""

    K: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class FilterSynthesis:
    """Stationary estimator covariances and gain.

    Sigma is the one-step prediction error covariance, SigmaBar the
    filtered (post-measurement) error covariance, kalman_gain the matrix
    SigmaBar C^T V^{-1} applied to the innovation.
    """

    Sigma: np.ndarray
    SigmaBar: np.ndarray
    kalman_gain: np.ndarray


def _as_pair(A, B, name="B"):
    """Square A and a matrix B with as many rows, as float arrays."""
    A = check_square(A, "A")
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"{name} must have {A.shape[0]} rows, got shape {B.shape}")
    return A, B


def _dual_pair(A, C):
    """(A^T, C^T) for a square A and a q x n output matrix C."""
    A = check_square(A, "A")
    return _as_pair(A.T, np.asarray(C, dtype=float).T, "C^T")


def _check_symmetric_pd(M, name):
    M = check_square(M, name)
    check_finite(M, name)
    check_symmetric(M, name, AssumptionError)
    M = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(M)
    if eigs.min() <= 0.0:
        raise AssumptionError(
            f"{name} must be positive definite (min eigenvalue {eigs.min():.3e})"
        )
    return M


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
    return _full_krylov_rank(*_as_pair(A, B))


def is_observable(A, C):
    """Rank test on [C; CA; ...; C A^{n-1}]: controllability of (A^T, C^T)."""
    return _full_krylov_rank(*_dual_pair(A, C))


def _riccati_map(X, A, B, Q, R):
    """X -> A^T X A - (B^T X A)^T (R + B^T X B)^{-1} (B^T X A) + Q."""
    G = B.T @ X @ A
    return A.T @ X @ A - G.T @ np.linalg.solve(R + B.T @ X @ B, G) + Q


def check_preconditions(A, B, Q, R, dual=False):
    """Standing assumptions of one Riccati problem on a checked pair (A, B).

    Q and R must be symmetric positive definite, n x n and m x m, and
    (A, B) controllable; violations raise AssumptionError, wrong sizes
    ValueError. With dual=True the arguments are a filter's dual data
    (A^T, C^T, W, V) and the errors name W, V and observability. Returns
    the symmetrized weights.
    """
    q_name, r_name, rank_failure = (("W", "V", "(A, C) is not observable") if dual
                                    else ("Q", "R", "(A, B) is not controllable"))
    n, m = B.shape
    Q = _check_symmetric_pd(Q, q_name)
    R = _check_symmetric_pd(R, r_name)
    if Q.shape[0] != n:
        raise ValueError(f"{q_name} must be {n} x {n}, got shape {Q.shape}")
    if R.shape[0] != m:
        raise ValueError(f"{r_name} must be {m} x {m}, got shape {R.shape}")
    if not _full_krylov_rank(A, B):
        raise AssumptionError(rank_failure)
    return Q, R


def _iterate_to_fixed_point(A, B, Q, R):
    """Run X <- map(X) from X = Q, symmetrizing, until the iterates settle.

    Convergence is declared when the relative Frobenius change drops below
    CONVERGENCE_RTOL; the converged iterate must then pass the residual
    check, otherwise ConvergenceError reports how far the solve got.
    """
    X = 0.5 * (Q + Q.T)
    for iteration in range(1, MAX_ITERATIONS + 1):
        X_next = _riccati_map(X, A, B, Q, R)
        X_next = 0.5 * (X_next + X_next.T)
        change = np.linalg.norm(X_next - X) / max(1.0, np.linalg.norm(X_next))
        X = X_next
        if change < CONVERGENCE_RTOL:
            res = dare_residual_control(X, A, B, Q, R)
            if res <= RESIDUAL_RTOL:
                return X
            raise ConvergenceError(
                f"iteration stalled after {iteration} steps with residual {res:.3e}",
                iterations=iteration,
                residual=res,
            )
    res = dare_residual_control(X, A, B, Q, R)
    raise ConvergenceError(
        f"no fixed point within {MAX_ITERATIONS} iterations "
        f"(last residual {res:.3e})",
        iterations=MAX_ITERATIONS,
        residual=res,
    )


def solve_dare_control(A, B, Q, R):
    """Solve the regulator Riccati equation and return (K, L).

    Requires Q and R symmetric positive definite and (A, B) controllable;
    violations raise AssumptionError naming the failed condition. The
    returned closed loop A + B L is verified Schur stable.
    """
    A, B = _as_pair(A, B)
    Q, R = check_preconditions(A, B, Q, R)
    K = _iterate_to_fixed_point(A, B, Q, R)
    L = -np.linalg.solve(R + B.T @ K @ B, B.T @ K @ A)
    closed = A + B @ L
    radius = float(np.abs(np.linalg.eigvals(closed)).max())
    if radius >= 1.0:
        raise ConvergenceError(
            f"closed loop not Schur stable (spectral radius {radius:.6f})",
            residual=dare_residual_control(K, A, B, Q, R),
        )
    return ControlSynthesis(K=K, L=L)


def solve_dare_filter(A, C, W, V):
    """Solve the filter Riccati equation and return (Sigma, SigmaBar, gain).

    Requires W and V symmetric positive definite and (A, C) observable;
    violations raise AssumptionError naming the failed condition.
    """
    At, Ct = _dual_pair(A, C)
    W, V = check_preconditions(At, Ct, W, V, dual=True)
    Sigma = _iterate_to_fixed_point(At, Ct, W, V)
    C = Ct.T
    innovation_cov = C @ Sigma @ C.T + V
    SigmaBar = Sigma - Sigma @ C.T @ np.linalg.solve(innovation_cov, C @ Sigma)
    SigmaBar = 0.5 * (SigmaBar + SigmaBar.T)
    kalman_gain = SigmaBar @ C.T @ np.linalg.inv(V)
    return FilterSynthesis(Sigma=Sigma, SigmaBar=SigmaBar, kalman_gain=kalman_gain)


def dare_residual_control(K, A, B, Q, R):
    """Relative fixed-point defect of a regulator Riccati candidate.

    ||map(K) - K||_F normalized by max(||K||_F, ||Q||_F), so the zero
    candidate scores 1 against any Q and an exact solution scores ~0.
    """
    K, A, B, Q, R = (np.asarray(M, dtype=float) for M in (K, A, B, Q, R))
    return float(
        np.linalg.norm(_riccati_map(K, A, B, Q, R) - K)
        / max(np.linalg.norm(K), np.linalg.norm(Q))
    )


def dare_residual_filter(Sigma, A, C, W, V):
    """Relative fixed-point defect of a filter Riccati candidate.

    The regulator's defect on the dual data (A^T, C^T, W, V).
    """
    return dare_residual_control(
        Sigma, np.asarray(A, dtype=float).T, np.asarray(C, dtype=float).T, W, V
    )
