"""Tests for the cloud-side synthesis, filtering, and cost accounting."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqg.lqg import (
    filter_step,
    incremental_cost,
    synthesize,
)
from dplqg.network import AgentModel, assemble_network
from dplqg.privacy import PrivacySpec
from dplqg.riccati import solve_dare_control, solve_dare_filter
from dplqg.rng import GaussianStream


def _two_state_network(epsilon=1.0, delta=0.1, b=1.0):
    agent = AgentModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.eye(2),
        W=np.array([[1.0, 0.5], [0.5, 1.0]]),
        privacy=PrivacySpec(epsilon=epsilon, delta=delta, adjacency_bound=b),
        x0_mean=np.zeros(2),
    )
    model = assemble_network([agent], Q=np.eye(2), R=np.array([[1.0]]))
    return model, agent


def test_synthesize_composes_the_two_riccati_solves():
    model, _ = _two_state_network()
    syn = synthesize(model)
    ctrl = solve_dare_control(model.A, model.B, model.Q, model.R)
    filt = solve_dare_filter(model.A, model.C, model.W, model.V)
    assert np.array_equal(syn.K, ctrl.K)
    assert np.array_equal(syn.L, ctrl.L)
    assert np.array_equal(syn.Sigma, filt.Sigma)
    assert np.array_equal(syn.SigmaBar, filt.SigmaBar)
    assert np.array_equal(syn.kalman_gain, filt.kalman_gain)
    # accessor dataclasses round-trip
    assert np.array_equal(syn.control.L, syn.L)
    assert np.array_equal(syn.filter.Sigma, syn.Sigma)


def test_feedback_gain_ignores_privacy_level():
    # Separation: L depends on (A, B, Q, R) only. Rebuilding the network
    # with a very different privacy level must not move L by a single bit,
    # while the filter quantities must all change.
    model_tight, _ = _two_state_network(epsilon=0.1, delta=0.01)
    model_loose, _ = _two_state_network(epsilon=3.0, delta=0.5)
    syn_tight = synthesize(model_tight)
    syn_loose = synthesize(model_loose)
    assert np.array_equal(syn_tight.L, syn_loose.L)
    assert np.array_equal(syn_tight.K, syn_loose.K)
    assert not np.array_equal(syn_tight.Sigma, syn_loose.Sigma)
    assert not np.array_equal(syn_tight.kalman_gain, syn_loose.kalman_gain)


def test_filter_step_scalar_hand_computation():
    # Scalar system, all quantities chosen so the update is checkable by
    # hand: predict with a x + b u, then correct with gain g.
    a, b, g = 0.8, 0.5, 0.25
    out = filter_step(np.array([[a]]), np.array([[b]]), np.eye(1),
                      np.array([[g]]), np.array([2.0]), np.array([-0.4]),
                      np.array([1.0]))
    predicted = a * 2.0 + b * -0.4
    expected = predicted + g * (1.0 - predicted)
    assert out.shape == (1,)
    assert out[0] == expected


def test_filter_step_input_form_matches_closed_loop_form():
    # With u = L xhat the input-form prediction is (A + B L) xhat, so the
    # update agrees with the closed-loop form up to rounding.
    model, _ = _two_state_network()
    syn = synthesize(model)
    x_hat = np.array([0.7, -1.1])
    y_next = np.array([0.3, -0.2])
    out = filter_step(model.A, model.B, model.C, syn.kalman_gain, x_hat,
                      syn.L @ x_hat, y_next)
    predicted = (model.A + model.B @ syn.L) @ x_hat
    expected = predicted + syn.kalman_gain @ (y_next - model.C @ predicted)
    assert out.shape == (2,)
    assert_allclose(out, expected, rtol=1e-13, atol=1e-15)


def test_stationary_filter_error_matches_filtered_covariance():
    # Scalar plant in closed loop: the empirical mean-square estimation
    # error of the stationary filter should approach SigmaBar. Moderate
    # sample size here; the long version lives in the acceptance suite.
    a, w_var = 0.9, 0.4
    agent = AgentModel(
        A=np.array([[a]]), B=np.array([[1.0]]), C=np.eye(1),
        W=np.array([[w_var]]),
        privacy=PrivacySpec(epsilon=1.0, delta=0.1, adjacency_bound=1.0),
        x0_mean=np.zeros(1),
    )
    model = assemble_network([agent], Q=np.eye(1), R=np.eye(1))
    syn = synthesize(model)
    sigma = model.sigmas[0]
    g = syn.kalman_gain[0, 0]
    L = syn.L[0, 0]

    stream = GaussianStream(404)
    steps = 30_000
    x = 0.0
    x_hat = 0.0
    sq_err = []
    for k in range(steps):
        y = x + sigma * stream.standard_normal(1)[0]
        if k > 0:
            pred = a * x_hat + 1.0 * u_prev
            x_hat = pred + g * (y - pred)
        sq_err.append((x - x_hat) ** 2)
        u_prev = L * x_hat
        x = a * x + u_prev + np.sqrt(w_var) * stream.standard_normal(1)[0]
    empirical = float(np.mean(sq_err[200:]))
    assert_allclose(empirical, syn.SigmaBar[0, 0], rtol=0.1)


def test_incremental_cost_quadratic_form():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    R = np.array([[3.0]])
    x = np.array([1.0, -2.0])
    u = np.array([0.5])
    expected = x @ Q @ x + u @ R @ u
    assert incremental_cost(x, u, Q, R) == expected
    assert incremental_cost(np.zeros(2), np.zeros(1), Q, R) == 0.0
    # a stack of rows gives each row's one-step bits
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 2)) * 10.0 ** rng.integers(-8, 8, (50, 1))
    U = rng.standard_normal((50, 1))
    stacked = incremental_cost(X, U, Q, R)
    assert stacked.shape == (50,)
    rows = zip(X, U)
    assert stacked.tolist() == [float(a @ Q @ a + b @ R @ b) for a, b in rows]
    assert stacked.tolist() == [incremental_cost(a, b, Q, R) for a, b in zip(X, U)]
    assert incremental_cost(np.zeros((0, 2)), np.zeros((0, 1)), Q, R).shape == (0,)
    # so does a (steps, runs) stack of rows, also one whose runs are strided
    batch = incremental_cost(X.reshape(10, 5, 2), U.reshape(10, 5, 1), Q, R)
    assert batch.shape == (10, 5)
    assert batch.ravel().tolist() == stacked.tolist()
    runs = incremental_cost(np.stack((X, X[::-1]), axis=1),
                            np.stack((U, U[::-1]), axis=1), Q, R)
    assert runs[:, 1].tolist() == stacked[::-1].tolist()


def test_incremental_cost_dimension_checks():
    with pytest.raises(ValueError):
        incremental_cost(np.zeros(2), np.zeros(1), np.eye(3), np.eye(1))
    with pytest.raises(ValueError):
        incremental_cost(np.zeros(2), np.zeros(1), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        incremental_cost(np.zeros((3, 2)), np.zeros((4, 1)), np.eye(2), np.eye(1))
    with pytest.raises(ValueError):
        incremental_cost(np.zeros((3, 2)), np.zeros(1), np.eye(2), np.eye(1))

