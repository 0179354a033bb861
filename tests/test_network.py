"""Tests for network assembly, simulation, the wire log, and replay."""

import csv
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, solve_discrete_lyapunov

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dplqg.bounds import logdet
from dplqg.config import build_network, load
from dplqg.errors import AssumptionError
from dplqg.lqg import filter_step, synthesize
from dplqg.network import (
    CLOUD,
    CONTROL,
    MEASUREMENT,
    SIM_CHUNK_STEPS,
    AgentModel,
    NetworkModel,
    SimulationTrace,
    _lockstep,
    assemble_network,
    average_costs,
    eavesdropper_view,
    read_messages_csv,
    replay_estimates,
    run_simulation,
    write_messages_csv,
    write_trace_csv,
)
from dplqg.output import write_matrix
from dplqg.privacy import PrivacySpec, calibrate_sigma
from dplqg.riccati import dare_residual_control, dare_residual_filter, solve_dare_filter
from dplqg.rng import (
    INIT_STATE,
    PRIVACY_NOISE,
    PROCESS_NOISE,
    derive_stream,
    psd_factor,
)


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
    # x0_cov must be symmetric positive semidefinite, as psd_factor requires;
    # a singular one is accepted
    for x0_cov, words in (([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
                          ([[1.0, 0.0], [0.0, -0.5]], "semidefinite")):
        with pytest.raises(ValueError, match=f"x0_cov: covariance .*{words}"):
            _double_integrator_agent(1.0, 0.1, x0_cov=np.array(x0_cov))
    singular = _double_integrator_agent(1.0, 0.1, x0_cov=np.ones((2, 2)))
    assert np.array_equal(singular.x0_cov, np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"A must have at least one row, got shape \(0, 0\)"):
        AgentModel(
            A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((0, 0)),
            W=np.zeros((0, 0)), privacy=PrivacySpec(1.0, 0.1), x0_mean=np.zeros(0),
        )
    # a vector field is 1-D: nested rows are named, not flattened
    A4 = np.eye(4)
    for name, value, shape in (("x0_mean", [[1.0, 2.0], [3.0, 4.0]], "(2, 2)"),
                               ("x0_mean", [[0.0]] * 4, "(4, 1)"),
                               ("x0_true", [[1.0, 2.0, 3.0, 4.0]], "(1, 4)")):
        fields = {**dict(A=A4, B=A4[:, :1], C=A4, W=A4, x0_mean=np.zeros(4)), name: value}
        with pytest.raises(ValueError, match=rf"^{name} must have shape \(4,\), got {re.escape(shape)}$"):
            AgentModel(privacy=PrivacySpec(1.0, 0.1), **fields)


@pytest.mark.parametrize("field", ["A", "B", "C", "W", "x0_mean", "x0_true", "x0_cov"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_agent_model_rejects_non_finite_numbers(field, bad):
    fields = dict(A=np.eye(2), B=np.ones((2, 1)), C=np.eye(2), W=np.eye(2),
                  x0_mean=np.zeros(2), x0_true=np.zeros(2), x0_cov=np.eye(2))
    fields[field] = fields[field].copy()
    fields[field].flat[-1] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        AgentModel(privacy=PrivacySpec(1.0, 0.1), **fields)


def test_assemble_network_rejects_non_finite_costs():
    agents = [_scalar_agent()]
    with pytest.raises(ValueError, match="Q must be finite") as info:
        assemble_network(agents, Q=np.array([[np.nan]]), R=np.eye(1))
    assert not isinstance(info.value, AssumptionError)
    with pytest.raises(ValueError, match="R must be finite"):
        assemble_network(agents, Q=np.eye(1), R=np.array([[np.inf]]))


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
    # bit for bit the scipy layout, on state dims (2, 1, 2) with 2 x 1 B_i
    model, agents = _interleaved_network()
    assert model.state_dims == (2, 1, 2) and model.input_dims == (1, 1, 1)

    def same_bits(got, expected):
        return got.shape == expected.shape and got.tobytes() == expected.tobytes()

    for name in ("A", "B", "C", "W"):
        expected = block_diag(*[getattr(ag, name) for ag in agents])
        assert same_bits(getattr(model, name), expected), name
    sigma_sq = np.square(model.sigmas)
    assert same_bits(model.V, np.diag(np.repeat(sigma_sq, model.state_dims)))
    assert same_bits(model.V, block_diag(
        *[s * s * np.eye(n) for s, n in zip(model.sigmas, model.state_dims)]))


def test_assemble_network_privacy_noise_block():
    model, agents = _two_agent_setup()
    s0 = calibrate_sigma(agents[0].privacy, agents[0].C)
    s1 = calibrate_sigma(agents[1].privacy, agents[1].C)
    assert model.sigmas == (s0, s1)
    assert_allclose(model.V, np.diag([s0 ** 2, s0 ** 2, s1 ** 2, s1 ** 2]))
    # the tighter privacy requirement gets much more noise
    assert s0 > 20.0 * s1
    # V is derived from sigmas, so the model re-noised at other epsilons
    # is, bit for bit, the network assembled at them
    agents = [replace(ag, privacy=replace(ag.privacy, epsilon=eps))
              for ag, eps in zip(agents, (0.7, 2.5))]
    assembled = assemble_network(agents, model.Q, model.R)
    renoised = replace(model, sigmas=tuple(
        calibrate_sigma(ag.privacy, ag.C) for ag in agents))
    assert renoised.sigmas == assembled.sigmas != model.sigmas
    assert np.array_equal(renoised.V, assembled.V)
    expected = solve_dare_filter(assembled.A, assembled.C, assembled.W, assembled.V)
    got = solve_dare_filter(renoised.A, renoised.C, renoised.W, renoised.V)
    for name in ("Sigma", "SigmaBar", "kalman_gain"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    with pytest.raises(TypeError):
        replace(model, V=np.eye(4))


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
# Closed-loop simulation
# ----------------------------------------------------------------------

def test_simulation_is_bit_reproducible():
    model, agents = _two_agent_setup()
    t1 = run_simulation(model, agents, horizon=40, seed=11, synthesis=synthesize(model))
    t2 = run_simulation(model, agents, horizon=40, seed=11, synthesis=synthesize(model))
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.x_hat, t2.x_hat)
    assert np.array_equal(t1.u, t2.u)
    assert np.array_equal(t1.y_bar, t2.y_bar)
    assert np.array_equal(t1.stage_cost, t2.stage_cost)


def test_simulation_seed_changes_trace():
    model, agents = _two_agent_setup()
    t1 = run_simulation(model, agents, horizon=10, seed=1, synthesis=synthesize(model))
    t2 = run_simulation(model, agents, horizon=10, seed=2, synthesis=synthesize(model))
    assert not np.array_equal(t1.y_bar, t2.y_bar)


def _published_rows(log, path):
    """The message rows of log as write_messages_csv publishes it, each a
    list of cells: kind, sender, receiver, k, payload cells."""
    write_messages_csv(log, path)
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_message_count_and_protocol_order(tmp_path):
    model, agents = _two_agent_setup()
    T = 17
    trace = run_simulation(model, agents, horizon=T, seed=5, synthesis=synthesize(model))
    N = len(agents)
    assert len(trace.messages) == 2 * N * T
    rows = _published_rows(trace.messages, tmp_path / "messages.csv")
    assert len(rows) == 2 * N * T
    for k in range(T):
        ups, downs = rows[2 * N * k: 2 * N * k + N], rows[2 * N * k + N: 2 * N * (k + 1)]
        for i, row in enumerate(ups):
            assert row[:4] == [MEASUREMENT, f"agent{i}", CLOUD, str(k)]
            assert row[4:] == [repr(v) for v in trace.y_bar[k, 2 * i: 2 * i + 2].tolist()]
        for i, row in enumerate(downs):
            assert row[:4] == [CONTROL, CLOUD, f"agent{i}", str(k)]
            assert row[4:] == [repr(float(trace.u[k, i])), ""]


def test_trace_shapes_and_cost_bookkeeping():
    model, agents = _two_agent_setup()
    T = 25
    trace = run_simulation(model, agents, horizon=T, seed=3, synthesis=synthesize(model))
    assert trace.x.shape == (T, 4)
    assert trace.u.shape == (T, 2)
    assert trace.horizon == T
    for k in [0, 7, T - 1]:
        expected = trace.x[k] @ model.Q @ trace.x[k] + trace.u[k] @ model.R @ trace.u[k]
        assert_allclose(trace.stage_cost[k], expected, rtol=1e-12)
    # the trace makes its running mean from its stage costs, bit for bit
    assert np.array_equal(trace.avg_cost, np.cumsum(trace.stage_cost) / np.arange(1, T + 1))


def test_estimator_used_for_u_is_the_logged_estimate():
    model, agents = _two_agent_setup()
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon=12, seed=8, synthesis=syn)
    for k in range(trace.horizon):
        assert np.array_equal(trace.u[k], syn.L @ trace.x_hat[k])
    # step 0 uses the public prior, measurements start updating at step 1
    assert np.array_equal(trace.x_hat[0], trace.x_hat0)
    assert not np.array_equal(trace.x_hat[1], trace.x_hat0)


def test_network_model_checks_its_noise_scales():
    # one finite scale >= 0 per agent, kept as floats, or a ValueError
    # naming sigmas before any solve or run reads them
    config = Path(__file__).resolve().parents[1] / "configs" / "sweep_4agent.json"
    model, _ = build_network(load(config))
    sigmas = replace(model, sigmas=(1, 0, np.float64(2), 3)).sigmas
    assert sigmas == (1.0, 0.0, 2.0, 3.0) and {type(s) for s in sigmas} == {float}
    for sigmas, match in (((-1.0,) * 4, "sigmas must be >= 0 and finite, got -1.0"),
                          ((math.inf,) * 4, "sigmas must be >= 0 and finite"),
                          ((1.0,) * 3, "sigmas must be 4 noise scales, got 3"),
                          (1.0, "sigmas must be 4 noise scales, got 1.0"),
                          (None, "sigmas must be 4 noise scales, got None"),
                          (("1",) * 4, "sigmas must be a real number")):
        with pytest.raises(ValueError, match=match):
            replace(model, sigmas=sigmas)


def test_a_trace_beyond_memory_names_the_horizon():
    # the trace rows of 10**17 steps cannot be allocated; the malloc fails
    # at once, before any step, and the error names the horizon
    model, agents = _two_agent_setup()
    with pytest.raises(ValueError, match="horizon 100000000000000000 does not fit"):
        run_simulation(model, agents, 10**17, 0, synthesis=synthesize(model))


def test_horizon_zero_and_agent_mismatch():
    model, agents = _two_agent_setup()
    syn = synthesize(model)
    empty = run_simulation(model, agents, horizon=0, seed=1, synthesis=syn)
    assert empty.x.shape == (0, 4)
    assert len(empty.messages) == 0

    def single(agents, horizon, seed, synthesis=syn):
        return run_simulation(model, agents, horizon, seed, synthesis=synthesis)

    def batch(agents, horizon, seed, L=syn.L, sigmas=(model.sigmas,),
              gains=(syn.kalman_gain,)):  # checked as run_simulation checks
        return average_costs(model, agents, horizon, [7, seed], L, sigmas, gains)

    # a horizon of 0 has no stage costs to average
    assert np.isnan(batch(agents, 0, 1)).all()
    for run in (single, batch):
        with pytest.raises(ValueError):
            run(agents[:1], 5, 1)
        with pytest.raises(ValueError):
            run(agents, -1, 1)
        # a horizon or seed is an integer >= 0, never truncated or converted
        for horizon, seed in ((2.7, 1), ("12", 1), (True, 1), (5, 2.7), (5, -1)):
            with pytest.raises(ValueError, match="must be an integer >= 0"):
                run(agents, horizon, seed)
        # an agent of other (n_i, m_i) than the model's is named, not broadcast
        three_states = AgentModel(
            A=np.eye(3), B=np.eye(3)[:, -1:], C=np.eye(3), W=np.eye(3),
            privacy=PrivacySpec(1.0, 0.1), x0_mean=np.zeros(3),
        )
        two_inputs = replace(agents[1], B=np.eye(2))
        for other in (three_states, two_inputs):
            with pytest.raises(ValueError, match="agent 1 has"):
                run([agents[0], other], 5, 1)
    # gains and noise scales of other shapes, or scales that are not finite
    # and >= 0, are named, not broadcast
    scalars = assemble_network([_scalar_agent()] * 4, Q=np.eye(4), R=np.eye(4))
    for synthesis, name in ((synthesize(scalars), "L"),
                            (replace(syn, kalman_gain=syn.kalman_gain[:2, :2]), "gains")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            single(agents, 5, 1, synthesis)
    gain = syn.kalman_gain
    for bad, name in (({"L": syn.L.T}, "L"), ({"gains": [gain[:2, :2]]}, "gains"),
                      ({"gains": gain}, "gains"), ({"gains": [gain] * 3}, "sigmas"),
                      ({"sigmas": [model.sigmas] * 2, "gains": [gain, gain[:2, :2]]},
                       "gains"),
                      ({"L": [[1.0, 2.0], [1.0]]}, "L"),
                      ({"sigmas": [model.sigmas] * 2, "gains": [gain] * 3}, "sigmas"),
                      ({"sigmas": [model.sigmas + (1.0,)]}, "sigmas"),
                      ({"sigmas": [(1.0, 2.0), (1.0,)], "gains": [gain] * 2}, "sigmas"),
                      ({"sigmas": [(-1.0, 1.0)]}, "sigmas"),
                      ({"sigmas": [(1.0, np.nan)]}, "sigmas"),
                      ({"sigmas": [(np.inf, 1.0)]}, "sigmas")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            batch(agents, 5, 1, **bad)
    # a noise scale of 0 is valid: the run publishes its measurements as is
    assert np.isfinite(batch(agents, 5, 1, sigmas=[(0.0, 0.0)])).all()


def test_engine_steps_the_model_not_the_agents_matrices():
    # The plant and the cloud both step the model's blocks, and the agents
    # give only their initial states: agents laid out as the model's blocks
    # but with another A or W run the model's own loop, bit for bit.
    model, agents = _two_agent_setup(x0_cov=np.eye(2))
    syn = synthesize(model)
    horizon, seeds = SIM_CHUNK_STEPS + 44, [5, 6]
    batch = (syn.L, [model.sigmas], [syn.kalman_gain])
    trace = run_simulation(model, agents, horizon, seeds[0], synthesis=syn)
    costs = average_costs(model, agents, horizon, seeds, *batch)
    for name, value in (("A", 2.0 * agents[1].A), ("W", 3.0 * agents[1].W)):
        others = [agents[0], replace(agents[1], **{name: value})]
        other = run_simulation(model, others, horizon, seeds[0], synthesis=syn)
        for field in ("x", "x_hat", "u", "y_bar", "stage_cost", "avg_cost", "x_hat0"):
            assert np.array_equal(getattr(other, field), getattr(trace, field)), (name, field)
        assert np.array_equal(average_costs(model, others, horizon, seeds, *batch),
                              costs), name


def test_x0_true_and_x0_cov_initialization():
    secret = np.array([3.0, -1.0])
    agent_fixed = AgentModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]), B=np.array([[0.0], [1.0]]),
        C=np.eye(2), W=np.array([[1.0, 0.5], [0.5, 1.0]]),
        privacy=PrivacySpec(1.0, 0.1), x0_mean=np.zeros(2), x0_true=secret,
    )
    model = assemble_network([agent_fixed], Q=np.eye(2), R=np.eye(1))
    trace = run_simulation(model, [agent_fixed], horizon=1, seed=0,
                           synthesis=synthesize(model))
    assert np.array_equal(trace.x[0], secret)
    assert np.array_equal(trace.x_hat[0], np.zeros(2))

    # drawn initial state: reproducible and actually random
    agent_drawn = _double_integrator_agent(1.0, 0.1, x0_cov=np.eye(2))
    model2 = assemble_network([agent_drawn], Q=np.eye(2), R=np.eye(1))
    syn2 = synthesize(model2)
    ta = run_simulation(model2, [agent_drawn], horizon=1, seed=21, synthesis=syn2)
    tb = run_simulation(model2, [agent_drawn], horizon=1, seed=21, synthesis=syn2)
    tc = run_simulation(model2, [agent_drawn], horizon=1, seed=22, synthesis=syn2)
    assert np.array_equal(ta.x[0], tb.x[0])
    assert not np.array_equal(ta.x[0], tc.x[0])
    assert not np.array_equal(ta.x[0], np.zeros(2))


def test_privacy_level_does_not_touch_other_streams():
    # Same seed, different epsilon: the initial state and the underlying
    # standard normal privacy draws coincide (common random numbers); only
    # the scale sigma differs at k = 0.
    model_a, agents_a = _two_agent_setup(eps1=1.0)
    model_b, agents_b = _two_agent_setup(eps1=3.0)
    ta = run_simulation(model_a, agents_a, horizon=3, seed=777,
                        synthesis=synthesize(model_a))
    tb = run_simulation(model_b, agents_b, horizon=3, seed=777,
                        synthesis=synthesize(model_b))
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
    # a Fortran-ordered gain holds the same numbers; the cloud's bits stay
    fortran = replace(syn.filter, kalman_gain=np.asfortranarray(syn.kalman_gain))
    assert np.array_equal(replay_estimates(log, model, fortran, trace.x_hat0), trace.x_hat)


def test_replay_memory_is_bounded_by_its_output():
    # the replay keeps its output, the stacked B u(k) and two scratch
    # vectors; a list of row views over the whole horizon would not fit
    config = Path(__file__).resolve().parents[1] / "configs" / "case_study_2agent.json"
    model, agents = build_network(load(config))
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon=20_000, seed=1, synthesis=syn)
    tracemalloc.start()
    try:
        replayed = replay_estimates(trace.messages, model, syn.filter, trace.x_hat0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(replayed, trace.x_hat)
    assert peak < 3 * replayed.nbytes + 64 * 1024, peak


def test_replay_empty_log(tmp_path):
    # the empty log, as the trace holds it and as the published file holds it
    model, agents = _two_agent_setup()
    syn = synthesize(model)
    empty = run_simulation(model, agents, horizon=0, seed=1, synthesis=syn).messages
    path = tmp_path / "messages.csv"
    write_messages_csv(empty, path)
    assert path.read_bytes() == b"kind,sender,receiver,k\r\n"
    for log in (empty, read_messages_csv(path, model)):
        replayed = replay_estimates(log, model, syn.filter, np.zeros(4))
        assert replayed.shape == (0, 4)


def _set_cell(lines, j, column, text):
    """The CSV lines with cell `column` of message row j set to text."""
    cells = lines[1 + j].split(",")
    cells[column] = text
    return lines[:1 + j] + [",".join(cells)] + lines[2 + j:]


# messages.csv of two agents with 2 states and 1 input each, as lines: the
# header kind,sender,receiver,k,payload0,payload1, then per step the rows of
# messages 0-1, the measurements, and 2-3, the inputs.
MALFORMED_LOGS = {
    "unknown kind": lambda lines: _set_cell(lines, 0, 0, "gossip"),
    "sender agent-1": lambda lines: _set_cell(lines, 1, 1, "agent-1"),
    "receiver agent9": lambda lines: _set_cell(lines, 2, 2, "agent9"),
    "sender agent01": lambda lines: _set_cell(lines, 1, 1, "agent01"),
    "measurement to an agent": lambda lines: _set_cell(lines, 0, 2, "agent1"),
    "short payload": lambda lines: _set_cell(lines, 0, 5, ""),
    "long payload": lambda lines: _set_cell(lines, 3, 5, "0.0"),
    "negative step": lambda lines: _set_cell(lines, 0, 3, "-1"),
    "bool step": lambda lines: _set_cell(lines, 4, 3, "True"),
    "missing entry": lambda lines: lines[:6] + lines[7:],
    "duplicated entry": lambda lines: lines + [lines[6]],
    "one entry missing, another duplicated": lambda lines: lines[:6] + lines[7:] + [lines[1]],
    "bad header": lambda lines: [lines[0].replace("payload1", "payload2")] + lines[1:],
    "float step": lambda lines: _set_cell(lines, 4, 3, "1.0"),
    "empty step": lambda lines: _set_cell(lines, 4, 3, ""),
    "non-float cell": lambda lines: _set_cell(lines, 0, 4, "x"),
    "extra cell": lambda lines: _set_cell(lines, 0, 5, lines[1].split(",")[5] + ","),
    "swapped steps": lambda lines: [lines[0]] + lines[5:9] + lines[1:5] + lines[9:],
    "payload header on an empty log": lambda lines: lines[:1],
    # every line but the last ended by LF, as a file re-saved with LF endings
    "LF line endings": lambda lines: ["\n".join(lines)],
}
# payload cells that float() reads but the writer never writes; each is put
# in payload1 of message row 2, agent1's measurement at step 0
NON_CANONICAL_CELLS = ["+0.5", "1_0", " 0.5", "5E-1", "0.50", "Infinity"]
MALFORMED_LOGS.update({
    f"payload cell {cell!r}": lambda lines, cell=cell: _set_cell(lines, 1, 5, cell)
    for cell in NON_CANONICAL_CELLS})
# a rejected payload cell is named by its message row and payload column
CELL_ERRORS = {
    "short payload": r"^message row 1 \(measurement at step 0\): payload1 cell ''",
    "non-float cell": r"^message row 1 \(measurement at step 0\): payload0 cell 'x'",
    **{f"payload cell {cell!r}": r"^message row 2 \(measurement at step 0\): payload1 cell "
       for cell in NON_CANONICAL_CELLS},
}


@pytest.mark.parametrize("name, corrupt", MALFORMED_LOGS.items(), ids=MALFORMED_LOGS)
def test_replay_rejects_unknown_message_kind(name, corrupt, tmp_path):
    # The eavesdropper holds messages.csv: the reader rejects each malformed
    # file before anything is replayed.
    model, agents = _two_agent_setup()
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon=3, seed=2, synthesis=syn)
    path = tmp_path / "messages.csv"
    write_messages_csv(trace.messages, path)
    lines = path.read_bytes().decode().split("\r\n")[:-1]
    assert len(lines) == 1 + 12
    path.write_bytes("".join(line + "\r\n" for line in corrupt(lines)).encode())
    with pytest.raises(ValueError, match=CELL_ERRORS.get(name)):
        replay_estimates(read_messages_csv(path, model), model, syn.filter, trace.x_hat0)


def test_reader_names_each_corrupted_cell(tmp_path):
    # Every cell of a mixed-width log, corrupted alone, is rejected and named
    # by its row and column: a non-empty cell gets a trailing space, and an
    # empty padding cell an "x".
    agents = [_scalar_agent(), _double_integrator_agent(1.0, 0.1)]
    model = assemble_network(agents, Q=np.eye(3), R=np.eye(2))
    trace = run_simulation(model, agents, horizon=3, seed=2, synthesis=synthesize(model))
    path = tmp_path / "messages.csv"
    write_messages_csv(trace.messages, path)
    lines = path.read_bytes().decode().split("\r\n")[:-1]
    header = lines[0].split(",")
    corrupted = set()
    for j, line in enumerate(lines):
        for c, cell in enumerate(line.split(",")):
            corrupted.add(cell == "")
            bad = _set_cell(lines, j - 1, c, cell + " " if cell else "x")
            path.write_bytes("".join(text + "\r\n" for text in bad).encode())
            row = "messages.csv line 1" if j == 0 else f"message row {j} ("
            with pytest.raises(ValueError, match=rf"^{re.escape(row)}.*: {header[c]} cell "):
                read_messages_csv(path, model)
    assert len(lines) * len(header) == 78 and corrupted == {True, False}


def test_replay_rejects_a_bad_prior():
    # The public prior is one finite vector of the model's n states: a (1,)
    # prior must not broadcast over them, on a log of any length.
    model, agents = _two_agent_setup()
    syn = synthesize(model)
    for horizon in (0, 1, 3):
        log = run_simulation(model, agents, horizon, seed=2, synthesis=syn).messages
        for prior in ([5.0], np.zeros((4, 1)), np.zeros(5), [0.0, np.nan, 0.0, 0.0],
                      [np.inf, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="x_hat0"):
                replay_estimates(log, model, syn.filter, prior)


def test_replay_rejects_a_log_of_other_agents():
    model, agents = _two_agent_setup()
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon=3, seed=2, synthesis=syn)
    scalar = _scalar_agent()
    other = assemble_network([scalar] * 4, Q=np.eye(4), R=np.eye(4))
    with pytest.raises(ValueError, match="dimensions"):
        replay_estimates(trace.messages, other, syn.filter, trace.x_hat0)


def test_wire_log_view_indexing():
    model, agents = _two_agent_setup()
    trace = run_simulation(model, agents, horizon=4, seed=3, synthesis=synthesize(model))
    log = trace.messages
    assert len(log) == 16
    # the log's arrays cannot be written through it
    with pytest.raises(ValueError):
        log.y_bar[0, 0] = 1.0
    with pytest.raises(ValueError):
        log.u[0, 0] = 1.0


@st.composite
def _agent_lists(draw):
    """Agents of small controllable, observable networks: N <= 4, dims <= 3."""
    agents = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 3))
        m = draw(st.integers(1, 3))
        a = draw(st.floats(0.5, 1.2))
        # a I plus a superdiagonal, driven through the last state: the
        # Krylov matrix of (A, e_n) is triangular with a nonzero diagonal.
        A = a * np.eye(n) + 0.1 * np.eye(n, k=1)
        B = np.zeros((n, m))
        B[-1, 0] = 1.0
        B[:, 1:] = np.array(draw(st.lists(
            st.floats(-1.0, 1.0), min_size=n * (m - 1), max_size=n * (m - 1),
        ))).reshape(n, m - 1)
        privacy = PrivacySpec(epsilon=draw(st.floats(0.2, 3.0)),
                              delta=draw(st.floats(0.05, 0.45)))
        agents.append(AgentModel(
            A=A, B=B, C=np.eye(n), W=draw(st.floats(0.1, 2.0)) * np.eye(n),
            privacy=privacy, x0_mean=np.zeros(n), x0_cov=np.eye(n),
        ))
    return agents


@st.composite
def _networks(draw):
    """_agent_lists assembled under identity Q and R."""
    agents = draw(_agent_lists())
    n_total = sum(ag.n for ag in agents)
    m_total = sum(ag.m for ag in agents)
    model = assemble_network(agents, Q=np.eye(n_total), R=np.eye(m_total))
    return model, agents


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=_networks(), horizon=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_wire_log_round_trip_and_replay_property(net, horizon, seed, tmp_path_factory):
    # The published bytes are the whole wire log: written, read back and
    # written again they are the same bytes, and the eavesdropper's replay
    # of the parsed log is the cloud's estimate sequence, bit for bit.
    model, agents = net
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon, seed, synthesis=syn)
    N, T = model.n_agents, horizon
    log = eavesdropper_view(trace)
    assert len(log) == 2 * N * T
    out = tmp_path_factory.mktemp("wire")
    write_messages_csv(log, out / "messages.csv")
    parsed = read_messages_csv(out / "messages.csv", model)
    write_messages_csv(parsed, out / "again.csv")
    assert (out / "again.csv").read_bytes() == (out / "messages.csv").read_bytes()
    assert np.array_equal(parsed.y_bar, trace.y_bar)
    assert np.array_equal(parsed.u, trace.u)
    assert np.array_equal(
        replay_estimates(parsed, model, syn.filter, trace.x_hat0), trace.x_hat)

    agent_names = [f"agent{i}" for i in range(N)]
    expected_order = []
    for k in range(T):
        expected_order += [[MEASUREMENT, a, CLOUD, str(k)] for a in agent_names]
        expected_order += [[CONTROL, CLOUD, a, str(k)] for a in agent_names]
    rows = _published_rows(parsed, out / "order.csv")
    assert [row[:4] for row in rows] == expected_order


def _reference_simulation(model, agents, horizon, seed, syn):
    """The per-step simulation loop, kept as the oracle for the trace bits.

    Each agent steps alone, with one standard_normal(n_i) call per stream
    per step: y_i = C_i x_i + sigma_i z and x_i+ = A_i x_i + B_i u_i + F_i z.
    The stage cost is x @ Q @ x + u @ R @ u of the step's vectors and its
    running mean a running sum. Returns the trace's arrays by name.
    """
    S, I = model.state_slices, model.input_slices
    process = [derive_stream(seed, i, PROCESS_NOISE) for i in range(len(agents))]
    privacy = [derive_stream(seed, i, PRIVACY_NOISE) for i in range(len(agents))]
    factors = [psd_factor(ag.W) for ag in agents]
    x_hat0 = np.concatenate([ag.x0_mean for ag in agents])
    x = np.empty(model.n)
    for i, ag in enumerate(agents):
        x[S[i]] = ag.x0_mean
        if ag.x0_true is not None:
            x[S[i]] = ag.x0_true
        elif ag.x0_cov is not None:
            init = derive_stream(seed, i, INIT_STATE)
            x[S[i]] = ag.x0_mean + init.correlated(psd_factor(ag.x0_cov))
    out = {name: [] for name in ("x", "x_hat", "u", "y_bar", "stage_cost")}
    x_hat, u = x_hat0, None
    for k in range(horizon):
        y_bar = np.empty(model.n)
        for i, ag in enumerate(agents):
            v = model.sigmas[i] * privacy[i].standard_normal(ag.n)
            y_bar[S[i]] = ag.C @ x[S[i]] + v
        if k > 0:
            x_hat = filter_step(model.A, model.B, model.C, syn.kalman_gain, x_hat, u, y_bar)
        u = syn.L @ x_hat
        for name, value in (("x", x), ("x_hat", x_hat), ("u", u), ("y_bar", y_bar),
                            ("stage_cost", float(x @ model.Q @ x + u @ model.R @ u))):
            out[name].append(value)
        x = np.concatenate([
            ag.A @ x[S[i]] + ag.B @ u[I[i]] + process[i].correlated(factors[i])
            for i, ag in enumerate(agents)
        ])
    shapes = {"x": (horizon, model.n), "x_hat": (horizon, model.n),
              "u": (horizon, model.m), "y_bar": (horizon, model.n),
              "stage_cost": (horizon,)}
    out = {name: np.array(values).reshape(shapes[name]) for name, values in out.items()}
    total, avg = 0.0, []
    for k, cost in enumerate(out["stage_cost"]):
        total += cost
        avg.append(total / (k + 1))
    out["avg_cost"] = np.array(avg).reshape(horizon)
    out["x_hat0"] = x_hat0
    return out


def _uniform(draw, low, high, shape):
    """An array of uniform entries from one drawn seed: drawing each entry
    from hypothesis costs far more than the properties that use them."""
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).uniform(low, high, shape)


def _dense(draw, n):
    return _uniform(draw, -1.0, 1.0, (n, n))


def _vector(draw, n):
    return _uniform(draw, -2.0, 2.0, n)


def _coupled_network(agents, G_q, G_r):
    """Assemble agents under the dense SPD Q = G_q G_q^T + 0.1 I and R alike."""
    Q = G_q @ G_q.T + 0.1 * np.eye(len(G_q))
    R = G_r @ G_r.T + 0.1 * np.eye(len(G_r))
    return assemble_network(agents, Q=Q, R=R), agents


@st.composite
def _noisy_networks(draw):
    """_agent_lists made dense: per agent a dense W and a dense invertible C
    (diagonally dominant), x0_true drawn or absent, x0_cov absent, identity
    or drawn; dense SPD Q and R that couple the agents."""
    varied = []
    for ag in draw(_agent_lists()):
        n = ag.n
        G = _dense(draw, n)
        x0_cov = draw(st.sampled_from([None, np.eye(n), G @ G.T]))
        x0_true = _vector(draw, n) if draw(st.booleans()) else None
        varied.append(replace(ag, W=G @ G.T + 0.1 * np.eye(n), x0_cov=x0_cov,
                              C=_dense(draw, n) + (n + 1) * np.eye(n),
                              x0_true=x0_true, x0_mean=_vector(draw, n)))
    n_total, m_total = sum(ag.n for ag in varied), sum(ag.m for ag in varied)
    return _coupled_network(varied, _dense(draw, n_total), _dense(draw, m_total))


def _interleaved_network():
    """State dims (2, 1, 2): agents 0 and 2 are alike but apart in x."""
    rng = np.random.default_rng(5)
    agents = []
    for n in (2, 1, 2):
        G = rng.uniform(-1.0, 1.0, (n, n))
        agents.append(AgentModel(
            A=0.9 * np.eye(n) + 0.1 * np.eye(n, k=1), B=np.eye(n)[:, -1:],
            C=rng.uniform(-1.0, 1.0, (n, n)) + (n + 1) * np.eye(n),
            W=G @ G.T + 0.1 * np.eye(n),
            privacy=PrivacySpec(epsilon=0.8, delta=0.2),
            x0_mean=rng.uniform(-2.0, 2.0, n),
            x0_true=rng.uniform(-2.0, 2.0, n) if n == 1 else None,
            x0_cov=np.eye(n) if n == 2 else None,
        ))
    return _coupled_network(agents, rng.uniform(-1.0, 1.0, (5, 5)),
                            rng.uniform(-1.0, 1.0, (3, 3)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=_noisy_networks(), horizon=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(net=_interleaved_network(), horizon=25, seed=9)
@example(net=_interleaved_network(), horizon=1, seed=9)
def test_whole_horizon_draws_match_per_step_oracle(net, horizon, seed):
    # Drawing each stream in chunks and stepping each run of consecutive
    # like agents as one stacked product must not move a single bit of the
    # trace: odd agent dimensions (a discarded Box-Muller half), like
    # agents apart in the state vector, a dense C and a Q and R that couple
    # the agents included. The eavesdropper's replay of the log, whose
    # stacked B u(k) has no rows at horizon 1, has the estimates' bits.
    model, agents = net
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon, seed, synthesis=syn)
    expected = _reference_simulation(model, agents, horizon, seed, syn)
    for name, value in expected.items():
        assert np.array_equal(getattr(trace, name), value), name
    replayed = replay_estimates(trace.messages, model, syn.filter, trace.x_hat0)
    assert np.array_equal(replayed, trace.x_hat)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(net=_noisy_networks(),
       epsilons=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=4),
       horizon=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       other_seed=st.integers(0, 2**32 - 1))
@example(net=_interleaved_network(), epsilons=[0.3, 2.5], horizon=25, seed=9,
         other_seed=9)
@example(net=_interleaved_network(), epsilons=[0.5, 0.2, 3.0, 1.0],
         horizon=SIM_CHUNK_STEPS - 1, seed=4, other_seed=5)
@example(net=_interleaved_network(), epsilons=[2.0, 0.7, 0.3],
         horizon=SIM_CHUNK_STEPS, seed=5, other_seed=0)
@example(net=_interleaved_network(), epsilons=[0.4, 1.5],
         horizon=SIM_CHUNK_STEPS + 1, seed=6, other_seed=2**32 - 1)
@example(net=_interleaved_network(), epsilons=[1.1, 0.25],
         horizon=2 * SIM_CHUNK_STEPS + 9, seed=7, other_seed=3)
def test_lockstep_batch_matches_per_step_oracle(net, epsilons, horizon, seed, other_seed):
    # A batch of runs that share one seed, each at its own epsilon and so
    # with its own sigma and Kalman gain, must give every run the bits of
    # that run alone, across chunk boundaries too. The chunks carry no
    # cost sums: run_simulation's running mean has the oracle's bits, and
    # average_costs, which runs one such batch per seed in the order given
    # and sums each run's stage costs itself, keeps each run's final
    # average cost with the bits of run_simulation's.
    model, agents = net
    members = []
    for eps in epsilons:
        run_agents = [replace(ag, privacy=replace(ag.privacy, epsilon=eps))
                      for ag in agents]
        run_model = assemble_network(run_agents, model.Q, model.R)
        members.append((run_model, run_agents, synthesize(run_model)))
    L = synthesize(model).L
    sigmas = [m.sigmas for m, _, _ in members]
    gains = [syn.kalman_gain for _, _, syn in members]
    chunks = list(_lockstep(model, agents, horizon, seed, L, sigmas, gains))
    assert [c.steps.start for c in chunks] == list(range(0, horizon, SIM_CHUNK_STEPS))
    costs = average_costs(model, agents, horizon, [seed, other_seed], L, sigmas, gains)
    assert costs.shape == (len(epsilons), 2)
    for j, (run_model, run_agents, syn) in enumerate(members):
        expected = _reference_simulation(run_model, run_agents, horizon, seed, syn)
        for name, value in expected.items():
            if name not in ("x_hat0", "avg_cost"):
                rows = [getattr(c, name)[:, j] for c in chunks]
                got = np.concatenate(rows) if rows else value[:0]
                assert np.array_equal(got, value), (j, name)
        if horizon:
            trace = run_simulation(run_model, run_agents, horizon, seed, synthesis=syn)
            assert np.array_equal(trace.avg_cost, expected["avg_cost"]), j
            other = run_simulation(run_model, run_agents, horizon, other_seed, synthesis=syn)
            assert np.array_equal(costs[j], [expected["avg_cost"][-1],
                                             other.avg_cost[-1]]), j
        else:
            assert np.isnan(costs[j]).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=_noisy_networks())
@example(net=_interleaved_network())
def test_synthesis_keeps_the_residuals_and_radius_of_the_model(net):
    # The record's residuals and radius are the solves' own, bit for bit
    # what the public residuals and a fresh eigenvalue solve give on the model.
    model, _ = net
    syn = synthesize(model)
    assert syn.control_residual == dare_residual_control(syn.K, model.A, model.B,
                                                         model.Q, model.R)
    assert syn.filter_residual == dare_residual_filter(syn.Sigma, model.A, model.C,
                                                       model.W, model.V)
    radius = np.abs(np.linalg.eigvals(model.A + model.B @ syn.L)).max()
    assert syn.closed_loop_spectral_radius == radius


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=_networks())
@example(net=_interleaved_network())
def test_the_blocks_are_the_models_one_source(net):
    # The engine's stacks are the diagonal blocks of the aggregates, bit for
    # bit and C-contiguous, one stack per maximal run of consecutive agents
    # of equal (n_i, m_i). Re-noising keeps every matrix the blocks give,
    # and nothing derived from the blocks can be set apart from them.
    model, _ = net
    S, I = model.state_slices, model.input_slices
    first, dims = 0, []
    for s, t, G, n, m, *stacks in model.stacks:
        run = range(first, first + G)
        assert (s, t) == (slice(S[run[0]].start, S[run[-1]].stop),
                          slice(I[run[0]].start, I[run[-1]].stop))
        assert all((model.state_dims[i], model.input_dims[i]) == (n, m) for i in run)
        for stack, M, cols in zip(stacks, (model.A, model.B, model.C), (S, I, S)):
            assert stack.flags.c_contiguous and stack.shape[0] == G
            for g, i in enumerate(run):
                block = M[S[i], cols[i]]
                assert stack[g].shape == block.shape
                assert stack[g].tobytes() == block.tobytes()
        first += G
        dims.append((n, m))
    assert first == model.n_agents
    assert all(a != b for a, b in zip(dims, dims[1:]))
    renoised = replace(model, sigmas=tuple(2.0 * s for s in model.sigmas))
    for name in ("A", "B", "C", "W"):
        assert getattr(renoised, name).tobytes() == getattr(model, name).tobytes(), name
    for got, want in zip(renoised.stacks, model.stacks, strict=True):
        assert got[:5] == want[:5]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got[5:], want[5:]))
    assert np.array_equal(renoised.V, 4.0 * model.V)
    for name in ("A", "B", "C", "W", "V", "state_dims", "input_dims", "stacks"):
        with pytest.raises(TypeError):
            replace(model, **{name: getattr(model, name)})


def test_one_symmetrized_w_for_plant_filter_and_residual():
    # A W within the symmetry tolerance but not exactly symmetric is kept
    # symmetrized: the plant's noise, the filter and its residual read the
    # same W, and the agent runs as with the symmetrized W given.
    W = np.array([[1.0, 0.5], [0.5 + 3e-12, 1.0]])
    assert not np.array_equal(W, W.T)
    asym = _double_integrator_agent(epsilon=1.0, delta=0.1)
    asym = replace(asym, W=W, x0_cov=np.eye(2))
    sym = replace(asym, W=0.5 * (W + W.T))
    assert np.array_equal(asym.W, sym.W)
    model = assemble_network([asym], Q=np.eye(2), R=np.eye(1))
    assert np.array_equal(model.W, model.W.T)
    syn = synthesize(model)
    assert syn.filter_residual == dare_residual_filter(syn.Sigma, model.A, model.C,
                                                       model.W, model.V)
    traces = [run_simulation(assemble_network([ag], Q=np.eye(2), R=np.eye(1)), [ag],
                             40, 5, synthesis=syn) for ag in (asym, sym)]
    assert np.array_equal(traces[0].x, traces[1].x)


def _stationary_cost(model, syn):
    """The closed loop's stationary average cost under syn's gains:
    J = tr(K W) + tr(L^T (R + B^T K B) L SigmaBar)."""
    BKB = model.B.T @ syn.K @ model.B
    return (np.trace(syn.K @ model.W)
            + np.trace(syn.L.T @ (model.R + BKB) @ syn.L @ syn.SigmaBar))


def test_average_costs_match_the_exact_stationary_cost():
    # Under the stationary gains z = [x; e], e = x - xhat, is a Gauss-Markov
    # chain z(k+1) = Phi z(k) + G xi(k), xi(k) = (w(k), v(k+1)), with stage
    # cost z^T M z. From z(0) = 0 the covariance recursion gives the expected
    # average of a T-step run; with Gamma = Phi Gamma Phi^T + G S G^T and
    # P = Phi^T P Phi + M, the stage cost's long-run variance is
    # 2 (2 tr(P Gamma M Gamma) - tr((M Gamma)^2)). The engine's mean over 20
    # seeds must lie within 4 standard errors of the expected average.
    cfg = load(Path(__file__).resolve().parent.parent / "configs/sweep_4agent.json")
    model, agents = build_network(cfg)
    assert all(not ag.x0_mean.any() and ag.x0_true is None and ag.x0_cov is None
               for ag in agents)
    syn = synthesize(model)
    L, gain, n, T, seeds = syn.L, syn.kalman_gain, model.n, cfg.horizon, 20
    I, Z = np.eye(n), np.zeros((n, n))
    LRL = L.T @ model.R @ L
    Phi = np.block([[model.A + model.B @ L, -model.B @ L], [Z, (I - gain @ model.C) @ model.A]])
    G = np.block([[I, Z], [I - gain @ model.C, -gain]])
    M = np.block([[model.Q + LRL, -LRL], [-LRL, LRL]])
    noise = G @ block_diag(model.W, model.V) @ G.T
    cov, total = np.zeros((2 * n, 2 * n)), 0.0
    for _ in range(T):
        total += np.trace(M @ cov)
        cov = Phi @ cov @ Phi.T + noise
    expected = total / T
    Gamma = solve_discrete_lyapunov(Phi, noise)
    P = solve_discrete_lyapunov(Phi.T, M)
    MG = M @ Gamma
    variance = 2.0 * (2.0 * np.trace(P @ Gamma @ MG) - np.trace(MG @ MG))
    # J = tr(M Gamma) is also tr(K W) + tr(L^T (R + B^T K B) L SigmaBar)
    assert_allclose(np.trace(MG), _stationary_cost(model, syn), rtol=1e-9)
    se = math.sqrt(variance / T / seeds)
    costs = average_costs(model, agents, T, range(cfg.seed, cfg.seed + seeds), L,
                          [model.sigmas], [gain])
    assert costs.shape == (1, seeds)
    assert abs(costs.mean() - expected) < 4.0 * se, (costs.mean(), expected, se)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(net=_noisy_networks(), eps_1=st.floats(0.2, 3.0), ratio=st.floats(1.05, 4.0))
def test_entropy_falls_as_epsilon_rises(net, eps_1, ratio):
    # A larger epsilon calibrates a smaller sigma_i for every agent, so V
    # falls in PSD order, and with it the filter's covariance Sigma and its
    # entropy: Sigma(eps_1) >= Sigma(eps_2) in PSD order, and strictly in
    # logdet since every C_i is invertible.
    model, agents = net
    covs = []
    for eps in (eps_1, eps_1 * ratio):
        renoised = replace(model, sigmas=tuple(
            calibrate_sigma(replace(ag.privacy, epsilon=eps), ag.C) for ag in agents))
        covs.append(solve_dare_filter(renoised.A, renoised.C, renoised.W,
                                      renoised.V).Sigma)
    low_eps, high_eps = covs
    gap = np.linalg.eigvalsh(low_eps - high_eps).min()
    assert gap >= -1e-12 * np.linalg.norm(low_eps, 2)
    assert logdet(low_eps) > logdet(high_eps)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(net=_noisy_networks(), agent=st.integers(0, 3), factor=st.floats(1.1, 4.0))
def test_cost_of_privacy_is_monotone(net, agent, factor):
    # More noise on one agent's measurements raises V in PSD order, and
    # with it the filtered covariance SigmaBar, while K and L stay: the
    # stationary cost J never falls. It is the exact statement behind c09's
    # Monte Carlo comparison of epsilons, which stays as it is.
    model, _ = net
    sigmas = list(model.sigmas)
    sigmas[agent % model.n_agents] *= factor
    noisier = replace(model, sigmas=tuple(sigmas))
    J, J_noisier = (_stationary_cost(m, synthesize(m)) for m in (model, noisier))
    assert J_noisier >= J * (1.0 - 1e-12), (J, J_noisier)


def test_wire_never_carries_true_state_values(tmp_path):
    # With secret initial states every true state is a secret; no float on
    # the wire may coincide with any true state entry. Exact comparison is
    # the point: even a single leaked double would intersect.
    model, agents = _two_agent_setup(x0_cov=np.eye(2))
    trace = run_simulation(model, agents, horizon=50, seed=13,
                           synthesis=synthesize(model))
    true_values = set(trace.x.ravel().tolist())
    rows = _published_rows(trace.messages, tmp_path / "messages.csv")
    wire_values = {float(cell) for row in rows for cell in row[4:] if cell}
    assert len(wire_values) > 0
    assert true_values.isdisjoint(wire_values)


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------

def test_trace_csv_deterministic_and_parseable(tmp_path):
    model, agents = _two_agent_setup()
    trace = run_simulation(model, agents, horizon=6, seed=4, synthesis=synthesize(model))
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
    trace = run_simulation(model, agents, horizon=3, seed=4, synthesis=synthesize(model))
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
    trace = run_simulation(model, agents, horizon=2, seed=6, synthesis=synthesize(model))
    path = tmp_path / "mixed.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    # scalar agent rows leave x1 empty
    row0 = lines[1].split(",")
    x1_col = lines[0].split(",").index("x1")
    assert row0[x1_col] == ""


def _cell(value):
    return repr(float(value))


def _reference_trace_csv(trace, path):
    """The per-cell trace writer, kept as the oracle for write_trace_csv's
    bytes: csv.writer with repr(float(v)) for each cell."""
    p, q = max(trace.state_dims), max(trace.input_dims)
    header = ["k", "agent_id"]
    for name, width in (("x", p), ("xhat", p), ("u", q), ("ybar", p)):
        header += [f"{name}{j}" for j in range(width)]
    header += ["stage_cost", "avg_cost"]

    def padded(vec, width):
        return [_cell(v) for v in vec] + [""] * (width - len(vec))

    S = [slice(a - n, a) for a, n in zip(np.cumsum(trace.state_dims), trace.state_dims)]
    I = [slice(a - m, a) for a, m in zip(np.cumsum(trace.input_dims), trace.input_dims)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(trace.horizon):
            costs = [_cell(trace.stage_cost[k]), _cell(trace.avg_cost[k])]
            for i, (s, t) in enumerate(zip(S, I)):
                writer.writerow([str(k), str(i)] + padded(trace.x[k, s], p)
                                + padded(trace.x_hat[k, s], p) + padded(trace.u[k, t], q)
                                + padded(trace.y_bar[k, s], p) + costs)


def _reference_messages_csv(log, path):
    """The per-message writer, kept as the oracle for write_messages_csv:
    per step k, agent i's measurement to the cloud for each i, then the
    cloud's input to agent i for each i, one csv.writer row each."""
    width = max(log.state_dims + log.input_dims) if len(log) else 0
    agents = [f"agent{i}" for i in range(len(log.state_dims))]
    slots = ([(MEASUREMENT, a, CLOUD) for a in agents]
             + [(CONTROL, CLOUD, a) for a in agents])
    S = [slice(a - n, a) for a, n in zip(np.cumsum(log.state_dims), log.state_dims)]
    I = [slice(a - m, a) for a, m in zip(np.cumsum(log.input_dims), log.input_dims)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "sender", "receiver", "k"]
                        + [f"payload{j}" for j in range(width)])
        for k in range(log.horizon):
            payloads = [log.y_bar[k, s] for s in S] + [log.u[k, t] for t in I]
            for slot, payload in zip(slots, payloads):
                writer.writerow([*slot, str(k)] + [_cell(v) for v in payload]
                                + [""] * (width - payload.size))


def _reference_matrix_csv(M, path):
    """The per-cell matrix writer, kept as the oracle for output.write_matrix."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(np.asarray(M, dtype=float)):
            writer.writerow([_cell(v) for v in row])


_AWKWARD_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                   -1e300, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e16, 123456789.0]


@st.composite
def _traces(draw):
    """SimulationTraces built directly: mixed agent dims, T at the edges of
    a CSV batch, and floats of every awkward kind."""
    N = draw(st.integers(1, 3))
    dims = st.lists(st.integers(1, 3), min_size=N, max_size=N)
    state_dims, input_dims = tuple(draw(dims)), tuple(draw(dims))
    B = SIM_CHUNK_STEPS
    T = draw(st.sampled_from([0, 1, B - 1, B, B + 1]))
    pool = np.array(_AWKWARD_FLOATS + draw(st.lists(st.floats(), max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(*shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        awkward = rng.random(shape) < 0.3
        out[awkward] = rng.choice(pool, size=int(awkward.sum()))
        return out

    n, m = sum(state_dims), sum(input_dims)
    return SimulationTrace(
        x=values(T, n), x_hat=values(T, n), u=values(T, m), y_bar=values(T, n),
        stage_cost=values(T), avg_cost=values(T), x_hat0=values(n),
        state_dims=state_dims, input_dims=input_dims,
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(trace=_traces())
def test_csv_writers_match_per_cell_oracle(trace, tmp_path_factory):
    # Whole-row batches must write the bytes of csv.writer fed one repr
    # per cell, for every CSV: trace, wire log and matrix.
    out = tmp_path_factory.mktemp("csv")
    for write, reference, data in (
            (write_trace_csv, _reference_trace_csv, trace),
            (write_messages_csv, _reference_messages_csv, trace.messages),
            (write_matrix, _reference_matrix_csv, trace.x),
            (write_matrix, _reference_matrix_csv, trace.x_hat0)):
        write(data, out / "new.csv")
        reference(data, out / "reference.csv")
        assert (out / "new.csv").read_bytes() == (out / "reference.csv").read_bytes(), \
            write.__name__
