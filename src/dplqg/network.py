"""Multi-agent networked simulation with an honest-but-curious wire.

Protocol per step k (all agents, then the cloud, then all agents):

1. every agent i draws privacy noise and sends ybar_i(k) = C_i x_i(k) + v_i(k)
   to the cloud;
2. the cloud updates its estimate (xhat(0) is the public prior; from k >= 1
   the filter consumes ybar(k)) and computes u(k) = L xhat(k);
3. the cloud sends u_i(k) to agent i, and only to agent i;
4. every agent steps x_i(k+1) = A_i x_i(k) + B_i u_i(k) + w_i(k).

The wire log is the trace's y_bar and u arrays; trace.messages views them
as WireMessages in protocol order, built on demand. The eavesdropper's
knowledge is exactly that log. True states, process noise, and the cost
matrices Q and R never appear in it. replay_estimates shows what the log
leaks: the cloud's entire estimate sequence is reconstructible from public
model data plus the log, since the replay runs the cloud's own update
(dplqg.lqg.filter_step). Simulations are bit-reproducible for a given master
seed (see dplqg.rng for the stream discipline).
"""

import csv
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .errors import check_finite
from .lqg import filter_step, incremental_cost, synthesize
from .privacy import PrivacySpec, calibrate_sigma
from .riccati import _as_pair, _check_symmetric_pd, check_preconditions
from .rng import INIT_STATE, PRIVACY_NOISE, PROCESS_NOISE, derive_stream, psd_factor

MEASUREMENT = "measurement"
CONTROL = "control"
CLOUD = "cloud"


def _slices(dims):
    """Consecutive slices of the given widths."""
    offsets = np.concatenate(([0], np.cumsum(dims)))
    return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


@dataclass(frozen=True)
class AgentModel:
    """One agent's local dynamics, output map, and privacy requirement.

    x0_mean is public (it seeds the cloud's estimate); x0_true is the secret
    initial state and defaults to x0_mean. When x0_cov is given and x0_true
    is not, the true initial state is drawn from N(x0_mean, x0_cov) on the
    agent's init stream. x0_cov must be symmetric positive semidefinite,
    as dplqg.rng.psd_factor requires.
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
        A, B = _as_pair(self.A, self.B)
        n = A.shape[0]
        if n == 0:
            raise ValueError("A must have at least one state, got shape (0, 0)")
        shapes = {"A": A.shape, "B": B.shape, "C": (n, n), "W": (n, n),
                  "x0_mean": (n,), "x0_true": (n,), "x0_cov": (n, n)}
        for name, shape in shapes.items():
            value = getattr(self, name)
            if value is None and name in ("x0_true", "x0_cov"):
                continue
            value = np.asarray(value, dtype=float)
            if len(shape) == 1:
                value = value.reshape(-1)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            check_finite(value, name)
            object.__setattr__(self, name, value)
        _check_symmetric_pd(self.W, "W")
        if self.x0_cov is not None:
            try:
                psd_factor(self.x0_cov)
            except ValueError as exc:
                raise ValueError(f"x0_cov: {exc}") from None

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
        return _slices(self.state_dims)

    @property
    def input_slices(self):
        return _slices(self.input_dims)


def assemble_network(agents, Q, R):
    """Stack agent models into a NetworkModel and validate the assumptions.

    Calibrates each agent's noise scale from its PrivacySpec and output map,
    forms the block-diagonal (A, B, C, W) and V = blockdiag(sigma_i^2 I),
    and checks both Riccati problems' preconditions
    (dplqg.riccati.check_preconditions): Q, R, W, V symmetric positive
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
    Q, R = check_preconditions(A, B, Q, R)
    check_preconditions(A.T, C.T, W, V, dual=True)
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


def _step_slots(n_agents):
    """(kind, sender, receiver) of the 2 N messages of one step, in order."""
    agents = [f"agent{i}" for i in range(n_agents)]
    return ([(MEASUREMENT, a, CLOUD) for a in agents]
            + [(CONTROL, CLOUD, a) for a in agents])


class WireLog(Sequence):
    """Read-only sequence of WireMessages over the arrays y_bar and u.

    Agent i's entries sit in its state and input slices. Each step holds
    2 N messages in protocol order: the N measurements agent0..agent{N-1}
    -> cloud, then the N inputs cloud -> agent0..agent{N-1}. A message is
    built, with a copy of its payload, only when indexed; a slice is a list.
    """

    def __init__(self, y_bar, u, state_dims, input_dims):
        self.y_bar, self.u = (np.asarray(a, dtype=float).view() for a in (y_bar, u))
        self.y_bar.flags.writeable = self.u.flags.writeable = False
        self.state_dims, self.input_dims = tuple(state_dims), tuple(input_dims)
        self._slots = _step_slots(len(self.state_dims))
        self._slices = _slices(self.state_dims) + _slices(self.input_dims)

    @classmethod
    def from_messages(cls, messages, model):
        """Parse WireMessages, in any order, into the log of `model`'s agents.

        Raises ValueError for a (kind, sender, receiver) that is not one of
        the network's 2 N, a step that is not an integer >= 0, a payload not
        shaped like the agent's slice, and a (k, kind, agent) entry that is
        duplicated or missing from steps 0..max k.
        """
        N = model.n_agents
        slot_of = {slot: r for r, slot in enumerate(_step_slots(N))}
        widths = model.state_dims + model.input_dims
        payloads = {}
        for msg in messages:
            r = slot_of.get((msg.kind, msg.sender, msg.receiver))
            if r is None:
                raise ValueError(f"no {msg.kind!r} message goes from {msg.sender!r} "
                                 f"to {msg.receiver!r} among {N} agents and the cloud")
            if not isinstance(msg.k, (int, np.integer)) or msg.k < 0:
                raise ValueError(f"step must be a non-negative integer, got {msg.k!r}")
            if np.shape(msg.payload) != (widths[r],):
                raise ValueError(f"{msg.kind} payload of shape {np.shape(msg.payload)} "
                                 f"at step {msg.k}, expected ({widths[r]},)")
            j = 2 * N * int(msg.k) + r
            if j in payloads:
                raise ValueError(f"duplicate {msg.kind} for {msg.sender} -> "
                                 f"{msg.receiver} at step {msg.k}")
            payloads[j] = msg.payload
        T = max(payloads, default=-1) // (2 * N) + 1
        if len(payloads) != 2 * N * T:
            raise ValueError(f"wire log has {len(payloads)} of the {2 * N * T} "
                             f"messages of steps 0..{T - 1}")
        y_bar, u = np.empty((T, model.n)), np.empty((T, model.m))
        slices = model.state_slices + model.input_slices
        for j, payload in payloads.items():
            k, r = divmod(j, 2 * N)
            (y_bar if r < N else u)[k, slices[r]] = payload
        return cls(y_bar, u, model.state_dims, model.input_dims)

    @property
    def horizon(self):
        return self.y_bar.shape[0]

    def __len__(self):
        return len(self._slots) * self.horizon

    def __getitem__(self, index):
        j = range(len(self))[index]
        if isinstance(j, range):
            return [self[i] for i in j]
        kind, sender, receiver, k, payload = self._entry(j)
        return WireMessage(kind, sender, receiver, k, payload.copy())

    def _entry(self, j):
        """(kind, sender, receiver, k, payload view) of message j."""
        k, r = divmod(j, len(self._slots))
        array = self.y_bar if r < len(self.state_dims) else self.u
        return (*self._slots[r], k, array[k, self._slices[r]])


@dataclass(eq=False)
class SimulationTrace:
    """Closed-loop run record, true (secret) side and wire side together.

    Row k of each array belongs to step k: the true state x(k), the cloud
    estimate xhat(k) used to form u(k), the input u(k), the privatized
    measurements ybar(k), the stage cost x(k)^T Q x(k) + u(k)^T R u(k), and
    the running mean of stage costs 0..k. y_bar and u are the whole wire
    log, which messages views as 2 N WireMessages per step. x_hat0 is the
    public prior the estimator started from.
    """

    x: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    y_bar: np.ndarray
    stage_cost: np.ndarray
    avg_cost: np.ndarray
    x_hat0: np.ndarray
    state_dims: tuple
    input_dims: tuple

    @property
    def horizon(self):
        return self.stage_cost.shape[0]

    @property
    def messages(self):
        return WireLog(self.y_bar, self.u, self.state_dims, self.input_dims)


def agent_step(agent, x, u, z, noise_factor=None):
    """Advance one agent: x+ = A x + B u + F z, so w = F z ~ N(0, W).

    z is the step's standard-normal draw of width n, a row of the agent's
    process stream (GaussianStream.standard_normal_rows), and F F^T = W
    (see dplqg.rng.psd_factor). Pass a precomputed factor to avoid
    refactorizing in a loop.
    """
    if noise_factor is None:
        noise_factor = psd_factor(agent.W)
    return agent.A @ x + agent.B @ u + noise_factor @ z


def run_simulation(model, agents, horizon, seed, synthesis=None):
    """Run the closed loop for `horizon` steps under a master seed.

    Returns a SimulationTrace. Identical (model, agents, horizon, seed)
    produce bit-identical traces. synthesis may be passed to reuse a
    precomputed SynthesisResult; by default it is computed here.

    Each agent's process and privacy streams are drawn once for the whole
    horizon (GaussianStream.standard_normal_rows), and step k uses row k:
    the privacy noise sigma_i * z_k and the process noise F_i @ z_k are
    formed per step, so the trace is bit-equal to one standard_normal(n_i)
    call per stream per step.
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
    n, m = model.n, model.m
    s_slices = model.state_slices
    i_slices = model.input_slices
    A, B, C = model.A, model.B, model.C
    gain = synthesis.kalman_gain
    L = synthesis.L

    process = [derive_stream(seed, i, PROCESS_NOISE).standard_normal_rows(horizon, ag.n)
               for i, ag in enumerate(agents)]
    privacy = [derive_stream(seed, i, PRIVACY_NOISE).standard_normal_rows(horizon, ag.n)
               for i, ag in enumerate(agents)]
    factors = [psd_factor(ag.W) for ag in agents]

    x_hat0 = np.concatenate([ag.x0_mean for ag in agents])
    x = np.empty(n)
    for i, ag in enumerate(agents):
        if ag.x0_true is not None:
            x[s_slices[i]] = ag.x0_true
        elif ag.x0_cov is not None:
            init = derive_stream(seed, i, INIT_STATE)
            x[s_slices[i]] = ag.x0_mean + init.correlated(psd_factor(ag.x0_cov))
        else:
            x[s_slices[i]] = ag.x0_mean

    xs, x_hats, y_bars = (np.empty((horizon, n)) for _ in range(3))
    us = np.empty((horizon, m))
    stage, avg = np.empty(horizon), np.empty(horizon)

    x_hat = x_hat0
    u_prev = None
    cost_sum = 0.0
    for k in range(horizon):
        y_bar = y_bars[k]
        for i, ag in enumerate(agents):
            noise = model.sigmas[i] * privacy[i][k]
            y_bar[s_slices[i]] = ag.C @ x[s_slices[i]] + noise
        if k > 0:
            x_hat = filter_step(A, B, C, gain, x_hat, u_prev, y_bar)
        u = L @ x_hat
        xs[k] = x
        x_hats[k] = x_hat
        us[k] = u
        stage[k] = incremental_cost(x, u, model.Q, model.R)
        cost_sum += stage[k]
        avg[k] = cost_sum / (k + 1)
        x_next = np.empty(n)
        for i, ag in enumerate(agents):
            x_next[s_slices[i]] = agent_step(
                ag, x[s_slices[i]], u[i_slices[i]], process[i][k], factors[i]
            )
        x = x_next
        u_prev = u

    return SimulationTrace(
        x=xs, x_hat=x_hats, u=us, y_bar=y_bars,
        stage_cost=stage, avg_cost=avg, x_hat0=x_hat0,
        state_dims=model.state_dims, input_dims=model.input_dims,
    )


def eavesdropper_view(trace):
    """The wire log and nothing else: what a passive listener knows."""
    return trace.messages


def replay_estimates(messages, model, filter_synthesis, x_hat0):
    """Reconstruct the cloud's estimates from the wire log alone.

    messages is a WireLog or a list of WireMessages (parsed first by
    WireLog.from_messages). Needs only public information: the model
    matrices (A, B, C), the filter gain (derivable from A, C, W, V without
    the secret Q and R), the public prior, and the log. The replay runs the
    cloud's own filter_step, so the result matches the cloud's xhat
    sequence bit for bit. Returns a (T, n) array.
    """
    log = messages if isinstance(messages, WireLog) else WireLog.from_messages(
        messages, model)
    if (log.state_dims, log.input_dims) != (model.state_dims, model.input_dims):
        raise ValueError("the wire log's agent dimensions do not match the model")
    A, B, C = model.A, model.B, model.C
    gain = filter_synthesis.kalman_gain
    x_hat = np.asarray(x_hat0, dtype=float)
    out = np.empty((log.horizon, model.n))
    for k in range(log.horizon):
        if k > 0:
            x_hat = filter_step(A, B, C, gain, x_hat, log.u[k - 1], log.y_bar[k])
        out[k] = x_hat
    return out


# ----------------------------------------------------------------------
# CSV serialization
# ----------------------------------------------------------------------

def _fmt(value):
    return repr(float(value))


def _padded(vec, width):
    cells = [_fmt(v) for v in vec]
    return cells + [""] * (width - len(cells))


def write_trace_csv(trace, path):
    """Write a trace as one CSV row per (step, agent).

    Columns: k, agent_id, x0..x{p-1}, xhat0..xhat{p-1}, u0..u{q-1},
    ybar0..ybar{p-1} with p, q the largest per-agent state and input
    dimensions (narrower agents leave trailing cells empty), then the
    network-level stage_cost and avg_cost repeated on each agent row of the
    step. Floats are written with repr, so identical traces give identical
    bytes.
    """
    p, q = max(trace.state_dims), max(trace.input_dims)
    header = ["k", "agent_id"]
    for name, width in (("x", p), ("xhat", p), ("u", q), ("ybar", p)):
        header += [f"{name}{j}" for j in range(width)]
    header += ["stage_cost", "avg_cost"]
    slices = list(zip(_slices(trace.state_dims), _slices(trace.input_dims)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(trace.horizon):
            costs = [_fmt(trace.stage_cost[k]), _fmt(trace.avg_cost[k])]
            for i, (s, t) in enumerate(slices):
                writer.writerow(
                    [str(k), str(i)] + _padded(trace.x[k, s], p)
                    + _padded(trace.x_hat[k, s], p) + _padded(trace.u[k, t], q)
                    + _padded(trace.y_bar[k, s], p) + costs
                )


def write_messages_csv(log, path):
    """Write a WireLog as CSV: kind, sender, receiver, k, payload cells.

    Rows come in the log's protocol order, formatted straight from its
    arrays. Payload columns run to the widest agent state or input
    dimension (none for an empty log); narrower payloads leave trailing
    cells empty.
    """
    width = max(log.state_dims + log.input_dims) if len(log) else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "sender", "receiver", "k"]
                        + [f"payload{j}" for j in range(width)])
        for j in range(len(log)):
            kind, sender, receiver, k, payload = log._entry(j)
            writer.writerow([kind, sender, receiver, str(k)] + _padded(payload, width))
