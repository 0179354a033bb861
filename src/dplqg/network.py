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

Agents of equal (n_i, m_i) step as one group: each step makes one stacked
C_g x_g and one A_g x_g + B_g u_g per group, an np.matmul over the
group's (G, n_i, n_i) blocks, and then adds the step's noise, y = C x + v
and x+ = (A x + B u) + w, in the order of the per-agent equations. The
noise w_i = F_i z is formed for the whole horizon, also as a stacked matmul
over the rows. A stacked matmul runs each block through the same
matrix-vector kernel as C_i @ x_i, so every agent's numbers keep their
bits. A block-diagonal A @ x over the whole state, or Z @ F^T over the
horizon, sums in another order and moves the last bits, so neither is used.
"""

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


def _agent_groups(agents, model):
    """Agents grouped by (n_i, m_i), in order of first appearance.

    Each group is (state index, input index, A, B, C): the (G, n_i) and
    (G, m_i) positions of its G agents' entries in the network vectors, and
    the agents' A_i, B_i and C_i stacked as (G, ...) arrays.
    """
    members = {}
    for i, ag in enumerate(agents):
        members.setdefault((ag.n, ag.m), []).append(i)
    states, inputs = np.arange(model.n), np.arange(model.m)
    S, I = model.state_slices, model.input_slices
    return [(np.array([states[S[i]] for i in group]),
             np.array([inputs[I[i]] for i in group]),
             *(np.stack([getattr(agents[i], name) for i in group]) for name in "ABC"))
            for group in members.values()]


def _stacked(M, x):
    """Row g of the result is M[g] @ x[g] (M @ x[g] for one matrix M)."""
    return np.matmul(M, x[:, :, None])[:, :, 0]


def run_simulation(model, agents, horizon, seed, synthesis=None):
    """Run the closed loop for `horizon` steps under a master seed.

    Returns a SimulationTrace. Identical (model, agents, horizon, seed)
    produce bit-identical traces. synthesis may be passed to reuse a
    precomputed SynthesisResult; by default it is computed here.

    Each agent's process and privacy streams are drawn once for the whole
    horizon (GaussianStream.standard_normal_rows), and the noise is formed
    before the loop: v_i(k) = sigma_i z_k and w_i(k) = F_i z_k, the latter
    as a stacked matmul of F_i over the rows. Agents of equal (n_i, m_i) step
    together: one stacked C_g x_g and one A_g x_g + B_g u_g per group, then
    y += v(k) and x+ += w(k). Stage costs and their running means are
    computed after the loop from the recorded rows.
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
    A, B, C = model.A, model.B, model.C
    gain = synthesis.kalman_gain
    L = synthesis.L

    v, w = np.empty((horizon, n)), np.empty((horizon, n))
    for i, ag in enumerate(agents):
        s = s_slices[i]
        v[:, s] = model.sigmas[i] * derive_stream(
            seed, i, PRIVACY_NOISE).standard_normal_rows(horizon, ag.n)
        z = derive_stream(seed, i, PROCESS_NOISE).standard_normal_rows(horizon, ag.n)
        w[:, s] = _stacked(psd_factor(ag.W), z)
    groups = _agent_groups(agents, model)

    x_hat0 = np.concatenate([ag.x0_mean for ag in agents])
    xs, x_hats, y_bars = (np.empty((horizon, n)) for _ in range(3))
    us = np.empty((horizon, m))
    x = xs[0] if horizon else np.empty(n)
    for i, ag in enumerate(agents):
        if ag.x0_true is not None:
            x[s_slices[i]] = ag.x0_true
        elif ag.x0_cov is not None:
            init = derive_stream(seed, i, INIT_STATE)
            x[s_slices[i]] = ag.x0_mean + init.correlated(psd_factor(ag.x0_cov))
        else:
            x[s_slices[i]] = ag.x0_mean

    x_hat = x_hat0
    for k in range(horizon):
        x, y_bar = xs[k], y_bars[k]
        for s, _, _, _, C_g in groups:
            y_bar[s] = _stacked(C_g, x[s])
        y_bar += v[k]
        if k > 0:
            x_hat = filter_step(A, B, C, gain, x_hat, us[k - 1], y_bar)
        x_hats[k] = x_hat
        u = us[k] = L @ x_hat
        if k + 1 < horizon:
            x_next = xs[k + 1]
            for s, t, A_g, B_g, _ in groups:
                x_next[s] = _stacked(A_g, x[s]) + _stacked(B_g, u[t])
            x_next += w[k]

    del v, w  # the noise is spent; free it before the cost's temporaries
    stage = incremental_cost(xs, us, model.Q, model.R)
    return SimulationTrace(
        x=xs, x_hat=x_hats, u=us, y_bar=y_bars,
        stage_cost=stage, avg_cost=np.cumsum(stage) / np.arange(1, horizon + 1),
        x_hat0=x_hat0, state_dims=model.state_dims, input_dims=model.input_dims,
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

# Steps formatted per write: few enough that the cell strings of one batch
# stay small next to the trace, many enough to amortize the per-batch calls.
CSV_BATCH_STEPS = 256


def _fmt(value):
    return repr(float(value))


def _cells(block):
    """The repr of each float of a 2-D array, one list of strings per row,
    made as the rows are consumed."""
    return (list(map(repr, row)) for row in block.tolist())


def _write_rows(fh, rows):
    """Write rows of cell strings, each joined by commas and ended by CRLF.

    These are the bytes csv.writer writes in its default (excel) dialect,
    which quotes only a cell holding a comma, a quote or a line break, or a
    row that is one empty cell. No cell here needs that: the cells are
    float reprs, step and agent numbers, names and empty padding, and a row
    with one cell holds a float.
    """
    fh.writelines(",".join(row) + "\r\n" for row in rows)


def _padding(widths, width):
    """The empty cells that pad each of the given widths to `width`."""
    return [[""] * (width - w) for w in widths]


def write_trace_csv(trace, path):
    """Write a trace as one CSV row per (step, agent).

    Columns: k, agent_id, x0..x{p-1}, xhat0..xhat{p-1}, u0..u{q-1},
    ybar0..ybar{p-1} with p, q the largest per-agent state and input
    dimensions (narrower agents leave trailing cells empty), then the
    network-level stage_cost and avg_cost repeated on each agent row of the
    step. Floats are written with repr, so identical traces give identical
    bytes. Rows are formatted CSV_BATCH_STEPS steps at a time.
    """
    p, q = max(trace.state_dims), max(trace.input_dims)
    header = ["k", "agent_id"]
    for name, width in (("x", p), ("xhat", p), ("u", q), ("ybar", p)):
        header += [f"{name}{j}" for j in range(width)]
    header += ["stage_cost", "avg_cost"]
    # agent i's x, xhat, u and ybar cells are slices i, N+i, 2N+i and 3N+i
    # of the step's [x | x_hat | u | y_bar | stage_cost avg_cost] row
    N = len(trace.state_dims)
    cols = _slices(trace.state_dims * 2 + trace.input_dims + trace.state_dims)
    pad_x, pad_u = _padding(trace.state_dims, p), _padding(trace.input_dims, q)
    layout = [(str(i), *cols[i::N], pad_x[i], pad_u[i]) for i in range(N)]
    with open(path, "w", newline="") as fh:
        _write_rows(fh, [header])
        for k0 in range(0, trace.horizon, CSV_BATCH_STEPS):
            steps = slice(k0, k0 + CSV_BATCH_STEPS)
            block = np.column_stack([a[steps] for a in (
                trace.x, trace.x_hat, trace.u, trace.y_bar,
                trace.stage_cost, trace.avg_cost)])
            rows = []
            for j, cells in enumerate(_cells(block)):
                k, costs = str(k0 + j), cells[-2:]
                for i, x, x_hat, u, y_bar, px, pu in layout:
                    rows.append([k, i, *cells[x], *px, *cells[x_hat], *px,
                                 *cells[u], *pu, *cells[y_bar], *px, *costs])
            _write_rows(fh, rows)


def write_messages_csv(log, path):
    """Write a WireLog as CSV: kind, sender, receiver, k, payload cells.

    Rows come in the log's protocol order, formatted straight from its
    arrays, CSV_BATCH_STEPS steps at a time. Payload columns run to the
    widest agent state or input dimension (none for an empty log); narrower
    payloads leave trailing cells empty.
    """
    widths = log.state_dims + log.input_dims
    width = max(widths) if len(log) else 0
    # message r's payload is slice r of the step's [y_bar | u] row
    layout = list(zip(log._slots, _slices(widths), _padding(widths, width)))
    with open(path, "w", newline="") as fh:
        _write_rows(fh, [["kind", "sender", "receiver", "k"]
                         + [f"payload{j}" for j in range(width)]])
        for k0 in range(0, log.horizon, CSV_BATCH_STEPS):
            steps = slice(k0, k0 + CSV_BATCH_STEPS)
            rows = []
            for j, cells in enumerate(_cells(np.hstack((log.y_bar[steps],
                                                        log.u[steps])))):
                k = str(k0 + j)
                for slot, s, pad in layout:
                    rows.append([*slot, k, *cells[s], *pad])
            _write_rows(fh, rows)
