"""Multi-agent networked simulation with an honest-but-curious wire.

Protocol per step k (all agents, then the cloud, then all agents):

1. every agent i draws privacy noise and sends ybar_i(k) = C_i x_i(k) + v_i(k)
   to the cloud;
2. the cloud updates its estimate (xhat(0) is the public prior; from k >= 1
   the filter consumes ybar(k)) and computes u(k) = L xhat(k);
3. the cloud sends u_i(k) to agent i, and only to agent i;
4. every agent steps x_i(k+1) = A_i x_i(k) + B_i u_i(k) + w_i(k).

Every message that crosses the wire is logged as a WireMessage; the
eavesdropper's knowledge is exactly that log. True states, process noise,
and the cost matrices Q and R never appear in it. replay_estimates shows
what the log leaks: the cloud's entire estimate sequence is reconstructible
from public model data plus the log, using the same arithmetic the cloud
used. Simulations are bit-reproducible for a given master seed (see
dplqg.rng for the stream discipline).
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .errors import AssumptionError
from .lqg import incremental_cost, synthesize
from .privacy import PrivacySpec, calibrate_sigma
from .riccati import _check_symmetric_pd, is_controllable, is_observable
from .rng import INIT_STATE, PRIVACY_NOISE, PROCESS_NOISE, derive_stream, psd_factor

MEASUREMENT = "measurement"
CONTROL = "control"
CLOUD = "cloud"


def _agent_name(index):
    return f"agent{index}"


def _agent_index(name):
    try:
        return int(name.removeprefix("agent"))
    except ValueError:
        raise ValueError(f"not an agent endpoint: {name!r}") from None


@dataclass(frozen=True)
class AgentModel:
    """One agent's local dynamics, output map, and privacy requirement.

    x0_mean is public (it seeds the cloud's estimate); x0_true is the secret
    initial state and defaults to x0_mean. When x0_cov is given and x0_true
    is not, the true initial state is drawn from N(x0_mean, x0_cov) on the
    agent's init stream.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    W: np.ndarray
    privacy: PrivacySpec
    x0_mean: np.ndarray
    x0_true: np.ndarray = None
    x0_cov: np.ndarray = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must be {n} x m, got shape {B.shape}")
        C = np.asarray(self.C, dtype=float)
        if C.shape != (n, n):
            raise ValueError(f"C must be {n} x {n}, got shape {C.shape}")
        W = np.asarray(self.W, dtype=float)
        if W.shape != (n, n):
            raise ValueError(f"W must be {n} x {n}, got shape {W.shape}")
        _check_symmetric_pd(W, "W")
        x0_mean = np.asarray(self.x0_mean, dtype=float).reshape(-1)
        if x0_mean.size != n:
            raise ValueError(f"x0_mean must have {n} entries")
        x0_true = self.x0_true
        if x0_true is not None:
            x0_true = np.asarray(x0_true, dtype=float).reshape(-1)
            if x0_true.size != n:
                raise ValueError(f"x0_true must have {n} entries")
        x0_cov = self.x0_cov
        if x0_cov is not None:
            x0_cov = np.asarray(x0_cov, dtype=float)
            if x0_cov.shape != (n, n):
                raise ValueError(f"x0_cov must be {n} x {n}")
        for name, value in (
            ("A", A), ("B", B), ("C", C), ("W", W),
            ("x0_mean", x0_mean), ("x0_true", x0_true), ("x0_cov", x0_cov),
        ):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass(frozen=True)
class NetworkModel:
    """Block-diagonal aggregate of all agents plus the cloud's cost weights."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    W: np.ndarray
    V: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    state_dims: tuple
    input_dims: tuple
    sigmas: tuple

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def n_agents(self):
        return len(self.state_dims)

    @property
    def state_slices(self):
        offsets = np.concatenate(([0], np.cumsum(self.state_dims)))
        return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]

    @property
    def input_slices(self):
        offsets = np.concatenate(([0], np.cumsum(self.input_dims)))
        return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


def assemble_network(agents, Q, R):
    """Stack agent models into a NetworkModel and validate the assumptions.

    Calibrates each agent's noise scale from its PrivacySpec and output map,
    forms the block-diagonal (A, B, C, W) and V = blockdiag(sigma_i^2 I),
    and checks the synthesis preconditions: Q, R symmetric positive
    definite, (A, B) controllable, (A, C) observable. Violations raise
    AssumptionError naming the failing condition.
    """
    agents = list(agents)
    if not agents:
        raise ValueError("at least one agent is required")
    A = block_diag(*[ag.A for ag in agents])
    B = block_diag(*[ag.B for ag in agents])
    C = block_diag(*[ag.C for ag in agents])
    W = block_diag(*[ag.W for ag in agents])
    sigmas = tuple(
        calibrate_sigma(ag.privacy, ag.C).sigma for ag in agents
    )
    V = block_diag(*[s * s * np.eye(ag.n) for s, ag in zip(sigmas, agents)])
    n = A.shape[0]
    m = B.shape[1]
    Q = _check_symmetric_pd(Q, "Q")
    R = _check_symmetric_pd(R, "R")
    if Q.shape[0] != n:
        raise ValueError(f"Q must be {n} x {n}, got {Q.shape}")
    if R.shape[0] != m:
        raise ValueError(f"R must be {m} x {m}, got {R.shape}")
    if not is_controllable(A, B):
        raise AssumptionError("(A, B) is not controllable")
    if not is_observable(A, C):
        raise AssumptionError("(A, C) is not observable")
    return NetworkModel(
        A=A, B=B, C=C, W=W, V=V, Q=Q, R=R,
        state_dims=tuple(ag.n for ag in agents),
        input_dims=tuple(ag.m for ag in agents),
        sigmas=sigmas,
    )


@dataclass(frozen=True, eq=False)
class WireMessage:
    """One message crossing the agent-cloud network."""

    kind: str
    sender: str
    receiver: str
    k: int
    payload: np.ndarray


@dataclass(eq=False)
class SimulationTrace:
    """Closed-loop run record, true (secret) side and wire side together.

    Row k of each array belongs to step k: the true state x(k), the cloud
    estimate xhat(k) used to form u(k), the input u(k), the privatized
    measurements ybar(k), the stage cost x(k)^T Q x(k) + u(k)^T R u(k), and
    the running mean of stage costs 0..k. messages is the complete wire log
    (2 N entries per step); x_hat0 is the public prior the estimator started
    from.
    """

    x: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    y_bar: np.ndarray
    stage_cost: np.ndarray
    avg_cost: np.ndarray
    messages: list
    x_hat0: np.ndarray
    state_dims: tuple
    input_dims: tuple

    @property
    def horizon(self):
        return self.stage_cost.shape[0]


def agent_step(agent, x, u, stream, noise_factor=None):
    """Advance one agent: x+ = A x + B u + w, w ~ N(0, W) from the stream.

    The noise is shaped as w = F z with F F^T = W (see dplqg.rng.psd_factor)
    and z standard normal, so the draw is reproducible from the stream
    state. Pass a precomputed factor to avoid refactorizing in a loop.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if noise_factor is None:
        noise_factor = psd_factor(agent.W)
    w = noise_factor @ stream.standard_normal(noise_factor.shape[1])
    return agent.A @ x + agent.B @ u + w


def _predict_correct(A, B, u_prev, gain, C, x_hat, y_bar):
    """One filter update written so a log replay is arithmetic-identical.

    The prediction uses A xhat + B u with the already-computed input u,
    which equals (A + B L) xhat but is computable by anyone holding the wire
    log (the eavesdropper has u, not L).
    """
    predicted = A @ x_hat + B @ u_prev
    return predicted + gain @ (y_bar - C @ predicted)


def run_simulation(model, agents, horizon, seed, synthesis=None):
    """Run the closed loop for `horizon` steps under a master seed.

    Returns a SimulationTrace. Identical (model, agents, horizon, seed)
    produce bit-identical traces. synthesis may be passed to reuse a
    precomputed SynthesisResult; by default it is computed here.
    """
    agents = list(agents)
    if len(agents) != model.n_agents:
        raise ValueError(
            f"model was assembled for {model.n_agents} agents, got {len(agents)}"
        )
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if synthesis is None:
        synthesis = synthesize(model)
    n, m, N = model.n, model.m, model.n_agents
    s_slices = model.state_slices
    i_slices = model.input_slices
    A, B, C = model.A, model.B, model.C
    gain = synthesis.kalman_gain
    L = synthesis.L

    process = [derive_stream(seed, i, PROCESS_NOISE) for i in range(N)]
    privacy = [derive_stream(seed, i, PRIVACY_NOISE) for i in range(N)]
    factors = [psd_factor(ag.W) for ag in agents]

    x_hat0 = np.concatenate([ag.x0_mean for ag in agents])
    x = np.empty(n)
    for i, ag in enumerate(agents):
        if ag.x0_true is not None:
            x[s_slices[i]] = ag.x0_true
        elif ag.x0_cov is not None:
            init = derive_stream(seed, i, INIT_STATE)
            f0 = psd_factor(ag.x0_cov)
            x[s_slices[i]] = ag.x0_mean + f0 @ init.standard_normal(f0.shape[1])
        else:
            x[s_slices[i]] = ag.x0_mean

    xs = np.empty((horizon, n))
    x_hats = np.empty((horizon, n))
    us = np.empty((horizon, m))
    y_bars = np.empty((horizon, n))
    stage = np.empty(horizon)
    avg = np.empty(horizon)
    messages = []

    x_hat = x_hat0
    u_prev = None
    cost_sum = 0.0
    for k in range(horizon):
        y_bar = np.empty(n)
        for i, ag in enumerate(agents):
            y_i = ag.C @ x[s_slices[i]] + model.sigmas[i] * privacy[
                i
            ].standard_normal(ag.n)
            y_bar[s_slices[i]] = y_i
            messages.append(
                WireMessage(MEASUREMENT, _agent_name(i), CLOUD, k, y_i.copy())
            )
        if k > 0:
            x_hat = _predict_correct(A, B, u_prev, gain, C, x_hat, y_bar)
        u = L @ x_hat
        for i in range(N):
            messages.append(
                WireMessage(CONTROL, CLOUD, _agent_name(i), k, u[i_slices[i]].copy())
            )
        xs[k] = x
        x_hats[k] = x_hat
        us[k] = u
        y_bars[k] = y_bar
        stage[k] = incremental_cost(x, u, model.Q, model.R)
        cost_sum += stage[k]
        avg[k] = cost_sum / (k + 1)
        x_next = np.empty(n)
        for i, ag in enumerate(agents):
            x_next[s_slices[i]] = agent_step(
                ag, x[s_slices[i]], u[i_slices[i]], process[i], factors[i]
            )
        x = x_next
        u_prev = u

    return SimulationTrace(
        x=xs, x_hat=x_hats, u=us, y_bar=y_bars,
        stage_cost=stage, avg_cost=avg, messages=messages, x_hat0=x_hat0,
        state_dims=model.state_dims, input_dims=model.input_dims,
    )


def eavesdropper_view(trace):
    """The wire log and nothing else: what a passive listener knows."""
    return list(trace.messages)


def replay_estimates(messages, model, filter_synthesis, x_hat0):
    """Reconstruct the cloud's estimates from the wire log alone.

    Needs only public information: the model matrices (A, B, C), the filter
    gain (derivable from A, C, W, V without the secret Q and R), the public
    prior, and the logged messages. The result matches the cloud's xhat
    sequence bit for bit. Returns a (T, n) array.
    """
    x_hat0 = np.asarray(x_hat0, dtype=float)
    if not messages:
        return np.zeros((0, model.n))
    T = max(msg.k for msg in messages) + 1
    y_bar = np.zeros((T, model.n))
    u = np.zeros((T, model.m))
    s_slices = model.state_slices
    i_slices = model.input_slices
    for msg in messages:
        if msg.kind == MEASUREMENT:
            y_bar[msg.k, s_slices[_agent_index(msg.sender)]] = msg.payload
        elif msg.kind == CONTROL:
            u[msg.k, i_slices[_agent_index(msg.receiver)]] = msg.payload
        else:
            raise ValueError(f"unknown message kind {msg.kind!r}")
    A, B, C = model.A, model.B, model.C
    gain = filter_synthesis.kalman_gain
    out = np.empty((T, model.n))
    out[0] = x_hat0
    x_hat = x_hat0
    for k in range(1, T):
        x_hat = _predict_correct(A, B, u[k - 1], gain, C, x_hat, y_bar[k])
        out[k] = x_hat
    return out


# ----------------------------------------------------------------------
# CSV serialization
# ----------------------------------------------------------------------

def _fmt(value):
    return repr(float(value))


def write_trace_csv(trace, path):
    """Write a trace as one CSV row per (step, agent).

    Columns: k, agent_id, x0..x{p-1}, xhat0..xhat{p-1}, u0..u{q-1},
    ybar0..ybar{p-1} with p, q the largest per-agent state and input
    dimensions (narrower agents leave trailing cells empty), then the
    network-level stage_cost and avg_cost repeated on each agent row of the
    step. Floats are written with repr, so identical traces give identical
    bytes.
    """
    max_n = max(trace.state_dims)
    max_m = max(trace.input_dims)
    header = ["k", "agent_id"]
    header += [f"x{j}" for j in range(max_n)]
    header += [f"xhat{j}" for j in range(max_n)]
    header += [f"u{j}" for j in range(max_m)]
    header += [f"ybar{j}" for j in range(max_n)]
    header += ["stage_cost", "avg_cost"]
    s_offsets = np.concatenate(([0], np.cumsum(trace.state_dims)))
    i_offsets = np.concatenate(([0], np.cumsum(trace.input_dims)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(trace.horizon):
            for i, (n_i, m_i) in enumerate(zip(trace.state_dims, trace.input_dims)):
                s = slice(s_offsets[i], s_offsets[i + 1])
                t = slice(i_offsets[i], i_offsets[i + 1])
                def padded(vec, width):
                    cells = [_fmt(v) for v in vec]
                    return cells + [""] * (width - len(cells))
                row = [str(k), str(i)]
                row += padded(trace.x[k, s], max_n)
                row += padded(trace.x_hat[k, s], max_n)
                row += padded(trace.u[k, t], max_m)
                row += padded(trace.y_bar[k, s], max_n)
                row += [_fmt(trace.stage_cost[k]), _fmt(trace.avg_cost[k])]
                writer.writerow(row)


def write_messages_csv(messages, path):
    """Write a wire log as CSV: kind, sender, receiver, k, payload cells.

    Payload columns run to the widest payload in the log; shorter payloads
    leave trailing cells empty.
    """
    width = max((msg.payload.size for msg in messages), default=0)
    header = ["kind", "sender", "receiver", "k"]
    header += [f"payload{j}" for j in range(width)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for msg in messages:
            cells = [_fmt(v) for v in msg.payload]
            cells += [""] * (width - len(cells))
            writer.writerow([msg.kind, msg.sender, msg.receiver, str(msg.k)] + cells)
