"""Tests for network assembly, simulation, the wire log, and replay."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqg.errors import AssumptionError
from dplqg.lqg import synthesize
from dplqg.network import (
    CLOUD,
    CONTROL,
    MEASUREMENT,
    AgentModel,
    NetworkModel,
    WireMessage,
    agent_step,
    assemble_network,
    eavesdropper_view,
    replay_estimates,
    run_simulation,
    write_messages_csv,
    write_trace_csv,
)
from dplqg.privacy import PrivacySpec, calibrate_sigma
from dplqg.rng import PROCESS_NOISE, GaussianStream, derive_stream, psd_factor


def _double_integrator_agent(epsilon, delta, x0_cov=None):
    return AgentModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.eye(2),
        W=np.array([[1.0, 0.5], [0.5, 1.0]]),
        privacy=PrivacySpec(epsilon=epsilon, delta=delta, adjacency_bound=1.0),
        x0_mean=np.zeros(2),
        x0_cov=x0_cov,
    )


def _scalar_agent(epsilon=1.0, delta=0.1, a=0.8, **kw):
    return AgentModel(
        A=np.array([[a]]), B=np.array([[1.0]]), C=np.eye(1),
        W=np.array([[0.5]]),
        privacy=PrivacySpec(epsilon=epsilon, delta=delta, adjacency_bound=1.0),
        x0_mean=np.zeros(1), **kw,
    )


def _two_agent_setup(eps0=0.1, delta0=0.01, eps1=1.0, delta1=0.5, x0_cov=None):
    agents = [
        _double_integrator_agent(eps0, delta0, x0_cov=x0_cov),
        _double_integrator_agent(eps1, delta1, x0_cov=x0_cov),
    ]
    model = assemble_network(agents, Q=np.eye(4), R=np.eye(2))
    return model, agents


# ----------------------------------------------------------------------
# Agent and network validation
# ----------------------------------------------------------------------

def test_agent_model_validation():
    with pytest.raises(ValueError):
        _scalar_agent(a=0.8, x0_true=np.zeros(2))  # wrong x0 length
    with pytest.raises(ValueError):
        AgentModel(
            A=np.eye(2), B=np.zeros((3, 1)), C=np.eye(2),
            W=np.eye(2), privacy=PrivacySpec(1.0, 0.1), x0_mean=np.zeros(2),
        )
    with pytest.raises(ValueError):
        AgentModel(
            A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            W=np.diag([1.0, 0.0]),  # singular W
            privacy=PrivacySpec(1.0, 0.1), x0_mean=np.zeros(2),
        )


def test_assemble_network_block_structure():
    model, agents = _two_agent_setup()
    assert isinstance(model, NetworkModel)
    assert model.n == 4 and model.m == 2 and model.n_agents == 2
    assert model.state_dims == (2, 2)
    assert model.input_dims == (1, 2)[:1] + (1,)
    # block diagonal layout with zero off-diagonal coupling
    assert_allclose(model.A[:2, :2], agents[0].A)
    assert_allclose(model.A[2:, 2:], agents[1].A)
    assert np.all(model.A[:2, 2:] == 0.0)
    assert np.all(model.A[2:, :2] == 0.0)
    assert_allclose(model.B[:2, :1], agents[0].B)
    assert np.all(model.B[:2, 1:] == 0.0)
    assert_allclose(model.W[2:, 2:], agents[1].W)


def test_assemble_network_privacy_noise_block():
    model, agents = _two_agent_setup()
    s0 = calibrate_sigma(agents[0].privacy, agents[0].C).sigma
    s1 = calibrate_sigma(agents[1].privacy, agents[1].C).sigma
    assert model.sigmas == (s0, s1)
    assert_allclose(model.V, np.diag([s0 ** 2, s0 ** 2, s1 ** 2, s1 ** 2]))
    # the tighter privacy requirement gets much more noise
    assert s0 > 20.0 * s1


def test_assemble_network_rejects_bad_inputs():
    agents = [_scalar_agent()]
    with pytest.raises(ValueError):
        assemble_network([], Q=np.eye(1), R=np.eye(1))
    with pytest.raises(ValueError):
        assemble_network(agents, Q=np.eye(2), R=np.eye(1))
    with pytest.raises(AssumptionError):
        assemble_network(agents, Q=np.array([[-1.0]]), R=np.eye(1))


@pytest.mark.parametrize("a, n_unstable", [(2.0, 15), (1.5, 31)])
def test_stable_agent_among_unstable_ones_assembles(a, n_unstable):
    # Every agent is controllable and observable, so the block network is
    # too; the huge powers of the unstable blocks must not hide the stable
    # agent's directions from the rank tests.
    stable = replace(_double_integrator_agent(1.0, 0.25),
                     A=np.array([[0.5, 0.1], [0.0, 0.5]]))
    unstable = replace(stable, A=np.array([[a, 0.1], [0.0, a]]))
    agents = [stable] + [unstable] * n_unstable
    n = sum(ag.n for ag in agents)
    model = assemble_network(agents, Q=np.eye(n), R=np.eye(len(agents)))
    syn = synthesize(model)
    assert np.abs(np.linalg.eigvals(model.A + model.B @ syn.L)).max() < 1.0


def test_state_and_input_slices():
    model, _ = _two_agent_setup()
    assert model.state_slices == [slice(0, 2), slice(2, 4)]
    assert model.input_slices == [slice(0, 1), slice(1, 2)]


# ----------------------------------------------------------------------
# Dynamics stepping
# ----------------------------------------------------------------------

def test_agent_step_reproduces_equation():
    agent = _double_integrator_agent(1.0, 0.1)
    F = psd_factor(agent.W)
    z = GaussianStream(3).standard_normal(2)
    x = np.array([1.0, -0.5])
    u = np.array([0.3])
    out = agent_step(agent, x, u, GaussianStream(3), F)
    expected = agent.A @ x + agent.B @ u + F @ z
    assert_allclose(out, expected, rtol=0.0, atol=0.0)


def test_agent_step_factorizes_when_not_given():
    agent = _scalar_agent()
    a = agent_step(agent, np.ones(1), np.zeros(1), GaussianStream(9))
    b = agent_step(agent, np.ones(1), np.zeros(1), GaussianStream(9), psd_factor(agent.W))
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Closed-loop simulation
# ----------------------------------------------------------------------

def test_simulation_is_bit_reproducible():
    model, agents = _two_agent_setup()
    t1 = run_simulation(model, agents, horizon=40, seed=11)
    t2 = run_simulation(model, agents, horizon=40, seed=11)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.x_hat, t2.x_hat)
    assert np.array_equal(t1.u, t2.u)
    assert np.array_equal(t1.y_bar, t2.y_bar)
    assert np.array_equal(t1.stage_cost, t2.stage_cost)
    for m1, m2 in zip(t1.messages, t2.messages):
        assert m1.kind == m2.kind and m1.k == m2.k
        assert np.array_equal(m1.payload, m2.payload)


def test_simulation_seed_changes_trace():
    model, agents = _two_agent_setup()
    t1 = run_simulation(model, agents, horizon=10, seed=1)
    t2 = run_simulation(model, agents, horizon=10, seed=2)
    assert not np.array_equal(t1.y_bar, t2.y_bar)


def test_message_count_and_protocol_order():
    model, agents = _two_agent_setup()
    T = 17
    trace = run_simulation(model, agents, horizon=T, seed=5)
    N = len(agents)
    assert len(trace.messages) == 2 * N * T
    for k in range(T):
        step_msgs = trace.messages[2 * N * k: 2 * N * (k + 1)]
        ups, downs = step_msgs[:N], step_msgs[N:]
        for i, msg in enumerate(ups):
            assert msg.kind == MEASUREMENT
            assert msg.sender == f"agent{i}" and msg.receiver == CLOUD
            assert msg.k == k and msg.payload.shape == (2,)
        for i, msg in enumerate(downs):
            assert msg.kind == CONTROL
            assert msg.sender == CLOUD and msg.receiver == f"agent{i}"
            assert msg.k == k and msg.payload.shape == (1,)


def test_trace_shapes_and_cost_bookkeeping():
    model, agents = _two_agent_setup()
    T = 25
    trace = run_simulation(model, agents, horizon=T, seed=3)
    assert trace.x.shape == (T, 4)
    assert trace.u.shape == (T, 2)
    assert trace.horizon == T
    for k in [0, 7, T - 1]:
        expected = trace.x[k] @ model.Q @ trace.x[k] + trace.u[k] @ model.R @ trace.u[k]
        assert_allclose(trace.stage_cost[k], expected, rtol=1e-12)
    assert_allclose(
        trace.avg_cost, np.cumsum(trace.stage_cost) / np.arange(1, T + 1), rtol=1e-14
    )


def test_estimator_used_for_u_is_the_logged_estimate():
    model, agents = _two_agent_setup()
    trace = run_simulation(model, agents, horizon=12, seed=8)
    syn = synthesize(model)
    for k in range(trace.horizon):
        assert np.array_equal(trace.u[k], syn.L @ trace.x_hat[k])
    # step 0 uses the public prior, measurements start updating at step 1
    assert np.array_equal(trace.x_hat[0], trace.x_hat0)
    assert not np.array_equal(trace.x_hat[1], trace.x_hat0)


def test_horizon_zero_and_agent_mismatch():
    model, agents = _two_agent_setup()
    empty = run_simulation(model, agents, horizon=0, seed=1)
    assert empty.x.shape == (0, 4)
    assert empty.messages == []
    with pytest.raises(ValueError):
        run_simulation(model, agents[:1], horizon=5, seed=1)
    with pytest.raises(ValueError):
        run_simulation(model, agents, horizon=-1, seed=1)


def test_x0_true_and_x0_cov_initialization():
    secret = np.array([3.0, -1.0])
    agent_fixed = AgentModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]), B=np.array([[0.0], [1.0]]),
        C=np.eye(2), W=np.array([[1.0, 0.5], [0.5, 1.0]]),
        privacy=PrivacySpec(1.0, 0.1), x0_mean=np.zeros(2), x0_true=secret,
    )
    model = assemble_network([agent_fixed], Q=np.eye(2), R=np.eye(1))
    trace = run_simulation(model, [agent_fixed], horizon=1, seed=0)
    assert np.array_equal(trace.x[0], secret)
    assert np.array_equal(trace.x_hat[0], np.zeros(2))

    # drawn initial state: reproducible and actually random
    agent_drawn = _double_integrator_agent(1.0, 0.1, x0_cov=np.eye(2))
    model2 = assemble_network([agent_drawn], Q=np.eye(2), R=np.eye(1))
    ta = run_simulation(model2, [agent_drawn], horizon=1, seed=21)
    tb = run_simulation(model2, [agent_drawn], horizon=1, seed=21)
    tc = run_simulation(model2, [agent_drawn], horizon=1, seed=22)
    assert np.array_equal(ta.x[0], tb.x[0])
    assert not np.array_equal(ta.x[0], tc.x[0])
    assert not np.array_equal(ta.x[0], np.zeros(2))


def test_privacy_level_does_not_touch_other_streams():
    # Same seed, different epsilon: the initial state and the underlying
    # standard normal privacy draws coincide (common random numbers); only
    # the scale sigma differs at k = 0.
    model_a, agents_a = _two_agent_setup(eps1=1.0)
    model_b, agents_b = _two_agent_setup(eps1=3.0)
    ta = run_simulation(model_a, agents_a, horizon=3, seed=777)
    tb = run_simulation(model_b, agents_b, horizon=3, seed=777)
    assert np.array_equal(ta.x[0], tb.x[0])
    za = (ta.y_bar[0, 2:] - ta.x[0, 2:]) / model_a.sigmas[1]
    zb = (tb.y_bar[0, 2:] - tb.x[0, 2:]) / model_b.sigmas[1]
    assert_allclose(za, zb, rtol=1e-13, atol=0.0)
    # agent 0 kept the same spec, so its wire values agree exactly at k = 0
    assert np.array_equal(ta.y_bar[0, :2], tb.y_bar[0, :2])


def test_process_noise_stream_is_privacy_independent():
    # Direct check at the stream level: the process noise derivation never
    # sees epsilon, so draws are a function of (seed, agent index) alone.
    z1 = derive_stream(777, 0, PROCESS_NOISE).standard_normal(8)
    z2 = derive_stream(777, 0, PROCESS_NOISE).standard_normal(8)
    assert np.array_equal(z1, z2)


# ----------------------------------------------------------------------
# Eavesdropper replay
# ----------------------------------------------------------------------

def test_replay_reconstructs_estimates_bit_for_bit():
    model, agents = _two_agent_setup()
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon=60, seed=29, synthesis=syn)
    log = eavesdropper_view(trace)
    replayed = replay_estimates(log, model, syn.filter, trace.x_hat0)
    assert replayed.shape == trace.x_hat.shape
    assert np.array_equal(replayed, trace.x_hat)


def test_replay_empty_log():
    model, _ = _two_agent_setup()
    syn = synthesize(model)
    replayed = replay_estimates([], model, syn.filter, np.zeros(4))
    assert replayed.shape == (0, 4)


def test_replay_rejects_unknown_message_kind():
    model, _ = _two_agent_setup()
    syn = synthesize(model)
    bogus = [WireMessage("gossip", "agent0", CLOUD, 0, np.zeros(2))]
    with pytest.raises(ValueError):
        replay_estimates(bogus, model, syn.filter, np.zeros(4))


def test_wire_never_carries_true_state_values():
    # With secret initial states every true state is a secret; no float on
    # the wire may coincide with any true state entry. Exact comparison is
    # the point: even a single leaked double would intersect.
    model, agents = _two_agent_setup(x0_cov=np.eye(2))
    trace = run_simulation(model, agents, horizon=50, seed=13)
    true_values = set(trace.x.ravel().tolist())
    wire_values = set()
    for msg in trace.messages:
        wire_values.update(msg.payload.ravel().tolist())
    assert len(wire_values) > 0
    assert true_values.isdisjoint(wire_values)


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------

def test_trace_csv_deterministic_and_parseable(tmp_path):
    model, agents = _two_agent_setup()
    trace = run_simulation(model, agents, horizon=6, seed=4)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trace_csv(trace, p1)
    write_trace_csv(trace, p2)
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["k", "agent_id"]
    assert header[-2:] == ["stage_cost", "avg_cost"]
    assert len(lines) == 1 + 6 * 2  # one row per (step, agent)
    # repr round-trip: the first state entry of agent 0 at step 0
    first = lines[1].split(",")
    assert float(first[2]) == trace.x[0, 0]


def test_messages_csv_layout(tmp_path):
    model, agents = _two_agent_setup()
    trace = run_simulation(model, agents, horizon=3, seed=4)
    path = tmp_path / "m.csv"
    write_messages_csv(trace.messages, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,sender,receiver,k,payload0,payload1"
    assert len(lines) == 1 + len(trace.messages)
    row = lines[1].split(",")
    assert row[0] == MEASUREMENT and row[1] == "agent0" and row[2] == CLOUD
    # control payloads are scalar, so their second cell is empty
    ctrl_row = lines[1 + 2].split(",")
    assert ctrl_row[0] == CONTROL
    assert ctrl_row[5] == ""


def test_mixed_dimension_agents_pad_csv(tmp_path):
    agents = [
        _scalar_agent(),
        _double_integrator_agent(1.0, 0.1),
    ]
    model = assemble_network(agents, Q=np.eye(3), R=np.eye(2))
    trace = run_simulation(model, agents, horizon=2, seed=6)
    path = tmp_path / "mixed.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    # scalar agent rows leave x1 empty
    row0 = lines[1].split(",")
    x1_col = lines[0].split(",").index("x1")
    assert row0[x1_col] == ""
