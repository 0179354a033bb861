"""What the eavesdropper cannot learn: entropy bounds on the estimate error.

The wire leaks enough to reproduce the cloud's estimate, so the residual
protection is the steady-state error covariance Sigma of that estimate: the
differential entropy of the estimation error grows with log det Sigma.
This module provides closed-form guarantees on that quantity for diagonal
output maps:

* a floor: lambda_max(Sigma) >= variance_floor(A, W, C, V), always;
* a cap: when a spectral condition on A holds, Sigma is dominated by an
  explicit matrix and log det Sigma is strictly below an explicit number
  that grows with the privacy noise. More privacy noise (larger sigma)
  provably forces a noisier eavesdropper estimate.

All bounds take the aggregate matrices (A, W, C, V), finite, with C diagonal
and V diagonal positive (V carries the per-coordinate privacy noise
variances). Each bound reads from one _bound_terms call, which validates
them and computes every term the bounds share.
"""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (InapplicableBoundError, check_finite, check_positive, check_square,
                     check_symmetric)
from .output import fmt
from .riccati import solve_dare_filter


def _bound_terms(A, W, C, V):
    """Validate (A, W, C, V) once and compute the terms the bounds share.

    Returns a namespace of the validated A, W (symmetrized), C, V and: s,
    the singular values of A (descending); w_eig, the eigenvalues of W
    (ascending); gamma, the posterior variances; leverage,
    min_i C_ii^2/V_ii = lambda_min(C^T V^{-1} C); floor; margin, the
    condition margin; holds.
    """
    A = check_square(A, "A")
    n = A.shape[0]
    W, C, V = (np.asarray(M, dtype=float) for M in (W, C, V))
    for name, M in (("W", W), ("C", C), ("V", V)):
        check_finite(M, name)
        if M.shape != (n, n):
            raise ValueError(f"{name} must be {n} x {n}, got {M.shape}")
    if np.count_nonzero(C - np.diag(np.diag(C))):
        raise ValueError("C must be diagonal for the closed-form bounds")
    if np.count_nonzero(V - np.diag(np.diag(V))):
        raise ValueError("V must be diagonal")
    if not np.all(np.diag(V) > 0.0):
        raise ValueError("V must have positive diagonal")
    check_symmetric(W, "W")
    if not np.all(np.diag(W) > 0.0):
        raise ValueError("W must have positive diagonal")
    W = 0.5 * (W + W.T)
    w, c, v = np.diag(W), np.diag(C), np.diag(V)
    gamma = v * w / (v + c * c * w)
    s = np.linalg.svd(A, compute_uv=False)
    w_eig = np.linalg.eigvalsh(W)
    leverage = float((c * c / v).min())
    floor = float(s[-1] ** 2 * float(gamma.max()) + w_eig[0])
    margin = 1.0 + floor * leverage - float(s[0] ** 2)
    return SimpleNamespace(A=A, W=W, C=C, V=V, s=s, w_eig=w_eig, gamma=gamma,
                           leverage=leverage, floor=floor, margin=margin,
                           holds=margin > 0.0)


def posterior_variance_diag(W, C, V):
    """Per-coordinate posterior variances (1/W_ii + C_ii^2/V_ii)^{-1}.

    Entry i is the variance left after one scalar measurement with gain
    C_ii and noise variance V_ii updates a prior of variance W_ii:

        V_ii W_ii / (V_ii + C_ii^2 W_ii).

    Returns the diagonal as a vector. Entries are positive, increase with
    V_ii, and approach W_ii as the privacy noise grows.
    """
    W = check_square(W, "W")
    return _bound_terms(np.eye(len(W)), W, C, V).gamma


def variance_floor(A, W, C, V):
    """Unconditional floor on lambda_max, the worst error direction.

    floor = s_min(A)^2 * max_i posterior_variance_i + lambda_min(W).
    The steady prediction covariance satisfies lambda_max(Sigma) >= floor
    for every model, hypothesis-free.
    """
    return _bound_terms(A, W, C, V).floor


def covariance_bound_condition(A, W, C, V):
    """Spectral condition under which the closed-form covariance cap holds.

    Requires s_max(A)^2 < 1 + variance_floor * min_i(C_ii^2 / V_ii).
    Returns (holds, margin) with margin = right side minus left side;
    a positive margin means the cap applies.
    """
    terms = _bound_terms(A, W, C, V)
    return terms.holds, terms.margin


def covariance_upper_bound(A, W, C, V):
    """Matrix cap: Sigma is dominated by coef * A A^T + W in the PSD order.

    coef = lambda_max(W) / (1 + variance_floor * min_i(C_ii^2/V_ii)
    - s_max(A)^2). Raises InapplicableBoundError when the spectral condition
    fails; no bound is emitted in that case.
    """
    terms = _bound_terms(A, W, C, V)
    if not terms.holds:
        raise InapplicableBoundError(
            f"covariance cap condition fails (margin {terms.margin:.6g})",
            margin=terms.margin,
        )
    coef = float(terms.w_eig[-1]) / terms.margin
    return coef * (terms.A @ terms.A.T) + terms.W


def logdet(M):
    """log det of a symmetric positive definite matrix via Cholesky.

    Twice the sum of the logs of the Cholesky diagonal; raises ValueError
    when the matrix is not square, finite and positive definite.
    """
    M = check_square(M, "matrix")
    try:
        chol = np.linalg.cholesky(0.5 * (M + M.T))
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def homogeneous_entropy_estimate(A, process_var, sigma):
    """Back-of-envelope entropy cap for identical agents (W = w I, C = I).

    estimate = (s_min(A)^2 / (sigma^2 + w) + 1 / sigma^2)^{-1}
               * sum_i s_i(A)^2  +  n * w.

    Keeps only the terms of the full cap that matter when sigma^2 >> w and
    s_min(A)^2 << 1; doubling sigma then roughly quadruples the first term.
    """
    A = check_square(A, "A")
    process_var = check_positive(process_var, "process_var")
    sigma = check_positive(sigma, "sigma")
    return _homogeneous_estimate(np.linalg.svd(A, compute_uv=False), A.shape[0],
                                 process_var, sigma)


def _homogeneous_estimate(s, n, process_var, sigma):
    """homogeneous_entropy_estimate from the singular values s of the n-row A."""
    lead = 1.0 / (s[-1] ** 2 / (sigma * sigma + process_var) + 1.0 / (sigma * sigma))
    return float(lead * np.sum(s * s) + n * process_var)


@dataclass(frozen=True)
class EntropyBoundReport:
    """Everything the entropy audit produces for one model.

    posterior_floor_diag and variance_floor always exist;
    condition_holds and condition_margin state whether the cap applies; the
    remaining fields are the cap itself, all None when it does not apply:
    logdet_covariance is the exact solved value, entropy_bound the
    closed-form strict upper bound, privacy_term the noise-dependent
    denominator term, and homogeneous_estimate the simplified cap when the
    model has identical isotropic agents (None otherwise).
    """

    posterior_floor_diag: tuple
    variance_floor: float
    condition_holds: bool
    condition_margin: float
    logdet_covariance: Optional[float] = None
    entropy_bound: Optional[float] = None
    privacy_term: Optional[float] = None
    homogeneous_estimate: Optional[float] = None

    def kv_lines(self):
        """Flat key = value lines for the text report; the four cap lines
        follow the verdict and the floors only when the condition holds."""
        keys = (
            "condition_holds", "condition_margin", "variance_floor",
            "posterior_floor_diag", "logdet_covariance", "entropy_bound",
            "privacy_term", "homogeneous_estimate",
        )
        shown = keys if self.condition_holds else keys[:4]
        return [f"{key} = {fmt(getattr(self, key))}" for key in shown]


def _is_homogeneous(W, C, V):
    w = np.diag(W)
    c = np.diag(C)
    v = np.diag(V)
    isotropic_w = np.count_nonzero(W - w[0] * np.eye(W.shape[0])) == 0
    return (
        isotropic_w
        and np.all(c == 1.0)
        and np.all(v == v[0])
    )


def entropy_bound_report(A, W, C, V, Sigma=None):
    """Solve for Sigma and certify log det Sigma against the closed-form cap.

    entropy_bound = lambda_max(W) / (1 + privacy_term - s_max(A)^2)
                    * sum_i s_i(A)^2 + trace(W)

    with privacy_term = s_min(A)^2 * max_i gamma_i * min_i(C_ii^2/V_ii)
    + lambda_min(W) * min_i(C_ii^2/V_ii), where gamma are the posterior
    variances. The bound is strict whenever the spectral condition holds.
    When it does not, the report carries condition_holds=False, the
    (negative) margin and the floors, leaves the cap fields None, and Sigma
    is not solved for.

    Sigma may be the filter's prediction covariance already solved for the
    same (A, W, C, V), such as SynthesisResult.Sigma; the report then takes
    logdet_covariance from it instead of solving the filter again. Only
    its shape is checked, so a Sigma from other model data gives a wrong
    logdet_covariance.
    """
    terms = _bound_terms(A, W, C, V)
    n = terms.A.shape[0]
    if Sigma is not None and np.shape(Sigma) != (n, n):
        raise ValueError(f"Sigma must be {n} x {n}, got shape {np.shape(Sigma)}")
    gamma = tuple(float(g) for g in terms.gamma)
    report = EntropyBoundReport(
        posterior_floor_diag=gamma,
        variance_floor=terms.floor,
        condition_holds=terms.holds,
        condition_margin=terms.margin,
    )
    if not terms.holds:
        return report
    A, W, C, V, s, lam = terms.A, terms.W, terms.C, terms.V, terms.s, terms.w_eig
    # 1 + privacy_term - s_max^2 equals terms.margin only in exact
    # arithmetic; the report's numbers are defined by this form
    privacy_term = float(
        s[-1] ** 2 * max(gamma) * terms.leverage + lam[0] * terms.leverage
    )
    coef = float(lam[-1]) / (1.0 + privacy_term - s[0] ** 2)
    homogeneous = None
    if _is_homogeneous(W, C, V):
        homogeneous = _homogeneous_estimate(
            s, n, float(np.diag(W)[0]), math.sqrt(float(np.diag(V)[0]))
        )
    if Sigma is None:
        Sigma = solve_dare_filter(A, C, W, V).Sigma
    return replace(
        report,
        logdet_covariance=logdet(Sigma),
        entropy_bound=float(coef * np.sum(s * s) + np.trace(W)),
        privacy_term=privacy_term,
        homogeneous_estimate=homogeneous,
    )
