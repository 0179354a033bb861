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

Runs advance in lockstep batches (_lockstep): S runs that share the agents,
the seed and the control gain L, and differ only in their noise scales
sigma_i and Kalman gain. run_simulation is a batch of one, and the epsilon
sweep (dplqg.cli.sweep_epsilon) runs one batch per seed over its grid. The
batch keeps every run's bits, for three reasons:

* a per-run matrix-vector kernel: the state is held as (S, n, 1) columns and
  every product is an np.matmul M @ X, with M shared (n, n), per run
  (S, n, n), or, for a run of consecutive agents of equal (n_i, m_i), their
  stacked (G, n_i, n_i) blocks. A stacked matmul runs each column through
  the same matrix-vector kernel as C_i @ x_i of one agent in one run. A
  block-diagonal A @ x over the whole state, Z @ F^T over the rows, or one
  matrix-matrix product over the S runs sums in another order and moves the
  last bits, so none is used;
* chunked row draws that continue the stream: the horizon runs in chunks of
  SIM_CHUNK_STEPS steps, and each chunk draws its rows of every stream once
  for the whole batch (GaussianStream.standard_normal_rows). Successive row
  draws continue the stream, so the chunks' rows are those of one
  whole-horizon draw;
* additions in per-agent order: each step adds the noise after the
  products, y = C x + v and x+ = (A x + B u) + w with v = sigma z and
  w = F z, and the running sum of stage costs is carried from chunk to
  chunk in step order.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import check_count, check_finite
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


def _block_diag(blocks):
    """The block-diagonal matrix of the given 2-d blocks."""
    rows = _slices([b.shape[0] for b in blocks])
    cols = _slices([b.shape[1] for b in blocks])
    out = np.zeros((rows[-1].stop, cols[-1].stop))
    for block, r, c in zip(blocks, rows, cols):
        out[r, c] = block
    return out


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
    """Block-diagonal aggregate of all agents plus the cloud's cost weights.

    V is not an argument: it is derived from the agents' noise scales as
    blockdiag(sigma_i^2 I_{n_i}), so it always agrees with sigmas. Privacy
    enters the model only through sigmas, and replace(model, sigmas=...)
    is the same network at other privacy levels.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    W: np.ndarray
    V: np.ndarray = field(init=False)
    Q: np.ndarray
    R: np.ndarray
    state_dims: tuple
    input_dims: tuple
    sigmas: tuple

    def __post_init__(self):
        object.__setattr__(self, "V", np.diag(
            np.repeat(np.square(self.sigmas), self.state_dims)))

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
    forms the block-diagonal (A, B, C, W), from which the model derives
    V = blockdiag(sigma_i^2 I), and checks both Riccati problems'
    preconditions (dplqg.riccati.check_preconditions): Q, R, W, V
    symmetric positive definite, (A, B) controllable, (A, C) observable.
    Violations raise AssumptionError naming the failing condition.
    """
    agents = list(agents)
    if not agents:
        raise ValueError("at least one agent is required")
    A = _block_diag([ag.A for ag in agents])
    B = _block_diag([ag.B for ag in agents])
    C = _block_diag([ag.C for ag in agents])
    W = _block_diag([ag.W for ag in agents])
    sigmas = tuple(calibrate_sigma(ag.privacy, ag.C) for ag in agents)
    Q, R = check_preconditions(A, B, Q, R)
    model = NetworkModel(
        A=A, B=B, C=C, W=W, Q=Q, R=R,
        state_dims=tuple(ag.n for ag in agents),
        input_dims=tuple(ag.m for ag in agents),
        sigmas=sigmas,
    )
    check_preconditions(A.T, C.T, W, model.V, dual=True)
    return model


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
            check_count(msg.k, "step")
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


# Steps per chunk of the lockstep engine: its noise rows and step rows are
# made this many steps at a time, which bounds a batch's memory by the chunk,
# not the horizon, and amortizes the per-chunk draws and cost calls.
SIM_CHUNK_STEPS = 256


class _Chunk(NamedTuple):
    """Rows `steps` of S lockstep runs: entry [k, j] belongs to step
    steps.start + k of run j. The arrays are the caller's to keep."""

    steps: slice
    x: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    y_bar: np.ndarray
    stage_cost: np.ndarray
    avg_cost: np.ndarray


def _agent_runs(agents, model):
    """Maximal runs of consecutive agents of equal (n_i, m_i).

    Each run is (state slice, input slice, G, n_i, m_i, A, B, C): where its
    G agents' entries sit in the network vectors, and their A_i, B_i and C_i
    stacked as (G, ...) arrays. A run is contiguous in x and u, so each chunk
    reaches it through a basic view.
    """
    runs, S, I = [], model.state_slices, model.input_slices
    for i, ag in enumerate(agents):
        if runs and runs[-1][-1] == (ag.n, ag.m):
            runs[-1][0].append(i)
        else:
            runs.append(([i], (ag.n, ag.m)))
    return [(slice(S[r[0]].start, S[r[-1]].stop), slice(I[r[0]].start, I[r[-1]].stop),
             len(r), n, m,
             *(np.stack([getattr(agents[i], name) for i in r]) for name in "ABC"))
            for r, (n, m) in runs]


def _check_agents(model, agents, horizon, seed):
    """The agents as a list, once they, the horizon and the seed are
    checked: as many agents as the model's, each of the model's (n_i, m_i),
    and a horizon and seed that are integers >= 0 (errors.check_count). A
    mismatch raises ValueError naming the agent."""
    agents = list(agents)
    if len(agents) != model.n_agents:
        raise ValueError(
            f"model was assembled for {model.n_agents} agents, got {len(agents)}"
        )
    for i, ag in enumerate(agents):
        dims = (model.state_dims[i], model.input_dims[i])
        if (ag.n, ag.m) != dims:
            raise ValueError(f"agent {i} has (n, m) = ({ag.n}, {ag.m}), but the "
                             f"model was assembled with ({dims[0]}, {dims[1]})")
    check_count(horizon, "horizon")
    check_count(seed, "seed")
    return agents


def _lockstep(model, agents, horizon, seed, L, sigmas, gains):
    """Advance S closed-loop runs in lockstep; yield their rows as _Chunks.

    The runs share model's agents, dynamics and cost, the master seed and
    the control gain L. Run j publishes with noise scales sigmas[j] (one
    per agent) and filters with Kalman gain gains[j]. Run j's rows are
    bit-equal to those of run_simulation on its own model and synthesis;
    the module docstring says why. Chunks come SIM_CHUNK_STEPS steps at a
    time, and avg_cost is the running mean of stage costs from step 0.
    """
    agents = _check_agents(model, agents, horizon, seed)
    gains = np.asarray(gains, dtype=float)
    n_runs, n, m, N = len(gains), model.n, model.m, len(agents)
    A, B, C = model.A, model.B, model.C
    S = model.state_slices
    scale = np.repeat(np.asarray(sigmas, dtype=float), model.state_dims,
                      axis=1)[:, :, None]
    privacy = [derive_stream(seed, i, PRIVACY_NOISE) for i in range(N)]
    process = [derive_stream(seed, i, PROCESS_NOISE) for i in range(N)]
    factors = [psd_factor(ag.W) for ag in agents]
    runs = _agent_runs(agents, model)

    x_hat0 = np.concatenate([ag.x0_mean for ag in agents])
    x = np.empty((n, 1))
    for i, ag in enumerate(agents):
        if ag.x0_true is not None:
            x[S[i], 0] = ag.x0_true
        elif ag.x0_cov is not None:
            init = derive_stream(seed, i, INIT_STATE)
            x[S[i], 0] = ag.x0_mean + init.correlated(psd_factor(ag.x0_cov))
        else:
            x[S[i], 0] = ag.x0_mean
    x_hat = np.tile(x_hat0[:, None], (n_runs, 1, 1))
    total = u = None
    for k0 in range(0, horizon, SIM_CHUNK_STEPS):
        T = min(SIM_CHUNK_STEPS, horizon - k0)
        z, w = np.empty((T, 1, n, 1)), np.empty((T, n, 1))
        for i, ag in enumerate(agents):
            z[:, 0, S[i], 0] = privacy[i].standard_normal_rows(T, ag.n)
            z_w = process[i].standard_normal_rows(T, ag.n)
            w[:, S[i]] = np.matmul(factors[i], z_w[:, :, None])
        v = scale * z
        # row T of xs receives the state the next chunk starts from
        xs = np.empty((T + 1, n_runs, n, 1))
        xs[0] = x
        x_hats, y_bars = np.empty((T, n_runs, n, 1)), np.empty((T, n_runs, n, 1))
        us = np.empty((T, n_runs, m, 1))
        views = [(A_g, B_g, C_g,
                  xs[:, :, s].reshape(T + 1, n_runs, G, n_g, 1),
                  y_bars[:, :, s].reshape(T, n_runs, G, n_g, 1),
                  us[:, :, t].reshape(T, n_runs, G, m_g, 1))
                 for s, t, G, n_g, m_g, A_g, B_g, C_g in runs]
        for k in range(T):
            for _, _, C_g, x_g, y_g, _ in views:
                np.matmul(C_g, x_g[k], out=y_g[k])
            y_bar = y_bars[k]
            y_bar += v[k]
            if k0 + k:
                x_hat = filter_step(A, B, C, gains, x_hat, u, y_bar)
            x_hats[k] = x_hat
            u = us[k]
            np.matmul(L, x_hat, out=u)
            for A_g, B_g, _, x_g, _, u_g in views:
                np.add(A_g @ x_g[k], B_g @ u_g[k], out=x_g[k + 1])
            xs[k + 1] += w[k]
        x = xs[T]
        xs, us = xs[:T, :, :, 0], us[:, :, :, 0]
        stage = incremental_cost(xs, us, model.Q, model.R)
        sums = stage.copy()
        if total is not None:
            sums[0] += total
        sums = np.cumsum(sums, axis=0)
        total = sums[-1]
        yield _Chunk(slice(k0, k0 + T), xs, x_hats[:, :, :, 0], us,
                     y_bars[:, :, :, 0], stage,
                     sums / np.arange(k0 + 1, k0 + T + 1)[:, None])


def run_simulation(model, agents, horizon, seed, synthesis=None):
    """Run the closed loop for `horizon` steps under a master seed.

    Returns a SimulationTrace. Identical (model, agents, horizon, seed)
    produce bit-identical traces. synthesis may be passed to reuse a
    precomputed SynthesisResult; by default it is computed here. The run
    is a lockstep batch of one (_lockstep), whose chunks are copied into
    the trace's arrays. Agents whose number or (n_i, m_i) differ from the
    model's, and a horizon or seed that is not an integer >= 0, raise
    ValueError.
    """
    agents = _check_agents(model, agents, horizon, seed)
    if synthesis is None:
        synthesis = synthesize(model)
    n, m = model.n, model.m
    rows = {"x": np.empty((horizon, n)), "x_hat": np.empty((horizon, n)),
            "u": np.empty((horizon, m)), "y_bar": np.empty((horizon, n)),
            "stage_cost": np.empty(horizon), "avg_cost": np.empty(horizon)}
    for chunk in _lockstep(model, agents, horizon, seed, synthesis.L,
                           [model.sigmas], [synthesis.kalman_gain]):
        for name, out in rows.items():
            out[chunk.steps] = getattr(chunk, name)[:, 0]
    return SimulationTrace(
        **rows, x_hat0=np.concatenate([ag.x0_mean for ag in agents]),
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
