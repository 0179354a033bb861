"""Multi-agent networked simulation with an honest-but-curious wire.

Protocol per step k (all agents, then the cloud, then all agents):

1. every agent i draws privacy noise and sends ybar_i(k) = C_i x_i(k) + v_i(k)
   to the cloud;
2. the cloud updates its estimate (xhat(0) is the public prior; from k >= 1
   the filter consumes ybar(k)) and computes u(k) = L xhat(k);
3. the cloud sends u_i(k) to agent i, and only to agent i;
4. every agent steps x_i(k+1) = A_i x_i(k) + B_i u_i(k) + w_i(k).

The engine steps the cloud's model: A_i, B_i, C_i and w_i's covariance W_i
are the NetworkModel's blocks, from which the model derives its aggregates
and the engine's stacks, and the agents give only their initial states
(x0_mean, x0_true, x0_cov), laid out as the model's blocks.

The wire log is the trace's y_bar and u arrays, which trace.messages holds
read-only as a WireLog: row k holds the 2 N messages of step k. It is
published as messages.csv, one row per message in protocol order, through
a row template that alone defines the format; read_messages_csv parses the
bytes back into the same arrays bit for bit, and accepts a file only if it
is the template's text for what it parsed, line endings included. The
eavesdropper knows exactly that log: true states, process noise, and the
cost matrices Q and R never appear in it. replay_estimates shows what the
log leaks: the cloud's entire estimate sequence is reconstructible from
public model data plus the log, since the replay runs the cloud's own
update (dplqg.lqg.filter_step) with the same products and sums in the same
order, and is tested against it bit for bit. Simulations are
bit-reproducible for a given master seed (see dplqg.rng for the stream
discipline).

Runs advance in lockstep batches: S runs that share the model, the agents,
the seed and the control gain L, and differ only in their noise scales
sigma_i and Kalman gain. run_simulation is a batch of one, and
average_costs, which the epsilon sweep (dplqg.cli.sweep_epsilon) calls, one
batch per seed over its grid. The batch keeps every run's bits, for three
reasons:

* a per-run matrix-vector kernel: the state is held as (S, n, 1) columns and
  every product is an np.matmul M @ X, with M shared (n, n), per run
  (S, n, n), or, for a run of consecutive agents of equal (n_i, m_i), their
  stacked (G, n_i, n_i) blocks in NetworkModel.stacks. A stacked matmul
  runs each column through the same matrix-vector kernel as C_i @ x_i of
  one agent in one run, so one product of the group's stacked [C_g; A_g]
  gives C_g x and A_g x of every run in one call, each block its own
  matrix-vector product. The replay likewise forms every B u(k) of the log
  in one stacked matmul and its other products with ndarray.dot, which
  calls the same BLAS matrix-vector routine as the cloud's np.matmul on
  C-contiguous matrices. A block-diagonal A @ x over the whole state,
  Z @ F^T over the rows, or one matrix-matrix product over the S runs sums
  in another order and moves the last bits, so none is used;
* chunked row draws that continue the stream: the horizon runs in chunks of
  SIM_CHUNK_STEPS steps, and each chunk draws its rows of every stream once
  for the whole batch (GaussianStream.standard_normal_rows). Successive row
  draws continue the stream, so the chunks' rows are those of one
  whole-horizon draw;
* additions in per-agent order: each step adds the noise after the
  products, y = C x + v and x+ = (A x + B u) + w with v = sigma z and
  w = F z, and the stage costs are summed in step order (np.cumsum) by
  run_simulation and average_costs, the engine keeping no sum of them.
"""

import io
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain, groupby, zip_longest
from typing import NamedTuple

import numpy as np

from .errors import check_count, check_finite, check_pair, check_positive, check_spd
from .lqg import filter_step, incremental_cost
from .output import STEP, write_rows
from .privacy import PrivacySpec, calibrate_sigma
from .riccati import check_preconditions
from .rng import INIT_STATE, PRIVACY_NOISE, PROCESS_NOISE, derive_stream, psd_factor

MEASUREMENT = "measurement"
CONTROL = "control"
CLOUD = "cloud"


def _slices(dims):
    """Consecutive slices of the given widths."""
    return [slice(stop - dim, stop) for stop, dim in zip(accumulate(dims), dims)]


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
    as dplqg.rng.psd_factor requires. W is stored symmetrized, so the
    plant's noise, the filter and its residual read one W.
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
        for name, value in zip("AB", check_pair(self.A, self.B)):
            object.__setattr__(self, name, value)
        n = self.n
        shapes = {"C": (n, n), "W": (n, n), "x0_mean": (n,), "x0_true": (n,), "x0_cov": (n, n)}
        for name, shape in shapes.items():
            value = getattr(self, name)
            if value is None and name in ("x0_true", "x0_cov"):
                continue
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            check_finite(value, name)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "W", check_spd(self.W, "W"))
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
    """The agents' blocks, their noise scales and the cloud's cost weights.

    blocks, each agent's (A_i, B_i, C_i, W_i), is the one source of the
    dynamics: the block-diagonal A, B, C and W, V = blockdiag(sigma_i^2
    I_{n_i}), the dims and the engine's stacks are derived on first use and
    kept, so none can be set apart from the blocks (replace(model, A=...)
    raises TypeError). replace(model, sigmas=...) re-noises the network;
    sigmas, one finite scale >= 0 per agent, are kept as floats.
    """

    blocks: tuple
    Q: np.ndarray
    R: np.ndarray
    sigmas: tuple

    def __post_init__(self):
        if not np.iterable(self.sigmas):
            raise ValueError(f"sigmas must be {self.n_agents} noise scales, got {self.sigmas!r}")
        sigmas = tuple(check_positive(s, "sigmas", allow_zero=True) for s in self.sigmas)
        if len(sigmas) != self.n_agents:
            raise ValueError(f"sigmas must be {self.n_agents} noise scales, got {len(sigmas)}")
        object.__setattr__(self, "sigmas", sigmas)

    # the aggregates, each the block-diagonal matrix of the agents' k-th blocks
    A, B, C, W = (cached_property(lambda self, k=k: _block_diag([b[k] for b in self.blocks]))
                  for k in range(4))

    @cached_property
    def V(self):
        return np.diag(np.repeat(np.square(self.sigmas), self.state_dims))

    @cached_property
    def state_dims(self):
        return tuple(A_i.shape[0] for A_i, *_ in self.blocks)

    @cached_property
    def input_dims(self):
        return tuple(B_i.shape[1] for _, B_i, *_ in self.blocks)

    @property
    def n(self):
        return sum(self.state_dims)

    @property
    def m(self):
        return sum(self.input_dims)

    @property
    def n_agents(self):
        return len(self.blocks)

    @property
    def state_slices(self):
        return _slices(self.state_dims)

    @property
    def input_slices(self):
        return _slices(self.input_dims)

    @cached_property
    def stacks(self):
        """Per maximal run of consecutive agents of equal (n_i, m_i):
        (state slice, input slice, G, n_i, m_i, A, B, C), where its G agents'
        entries sit in x and u, and their A_i, B_i and C_i stacked as
        C-contiguous (G, ...) arrays."""
        stacks, s, t = [], 0, 0
        for (n, m), run in groupby(self.blocks, key=lambda blk: blk[1].shape):
            A, B, C = (np.stack(Ms) for Ms in list(zip(*run))[:3])
            G = len(A)
            stacks.append((slice(s, s + G * n), slice(t, t + G * m), G, n, m, A, B, C))
            s, t = s + G * n, t + G * m
        return stacks


def assemble_network(agents, Q, R):
    """The NetworkModel of the agents' blocks, once its assumptions hold.

    Calibrates each agent's noise scale from its PrivacySpec and output map
    and checks both Riccati problems' preconditions
    (dplqg.riccati.check_preconditions) on the model, which keeps the
    symmetrized Q and R: Q, R, W, V symmetric positive definite, (A, B)
    controllable, (A, C) observable. Violations raise AssumptionError
    naming the failing condition.
    """
    agents = list(agents)
    if not agents:
        raise ValueError("at least one agent is required")
    model = NetworkModel(tuple((ag.A, ag.B, ag.C, ag.W) for ag in agents), Q, R,
                         tuple(calibrate_sigma(ag.privacy, ag.C) for ag in agents))
    Q, R = check_preconditions(model.A, model.B, Q, R)
    model = replace(model, Q=Q, R=R)
    check_preconditions(model.A.T, model.C.T, model.W, model.V, dual=True)
    return model


def _step_slots(n_agents):
    """(kind, sender, receiver) of the 2 N messages of one step, in order."""
    agents = [f"agent{i}" for i in range(n_agents)]
    return ([(MEASUREMENT, a, CLOUD) for a in agents]
            + [(CONTROL, CLOUD, a) for a in agents])


class WireLog:
    """The wire log as its two arrays, y_bar and u, held read-only.

    Row k of y_bar holds the N measurements agent0..agent{N-1} -> cloud of
    step k, and row k of u the N inputs cloud -> agent0..agent{N-1}; agent
    i's entries sit in its state and input slices. len() is the number of
    messages, 2 N per step.
    """

    def __init__(self, y_bar, u, state_dims, input_dims):
        self.y_bar, self.u = (np.asarray(a, dtype=float).view() for a in (y_bar, u))
        self.y_bar.flags.writeable = self.u.flags.writeable = False
        self.state_dims, self.input_dims = tuple(state_dims), tuple(input_dims)

    @property
    def horizon(self):
        return self.y_bar.shape[0]

    def __len__(self):
        return 2 * len(self.state_dims) * self.horizon


@dataclass(eq=False)
class SimulationTrace:
    """Closed-loop run record, true (secret) side and wire side together.

    Row k of each array belongs to step k: the true state x(k), the cloud
    estimate xhat(k) used to form u(k), the input u(k), the privatized
    measurements ybar(k), the stage cost x(k)^T Q x(k) + u(k)^T R u(k), and
    the running mean of stage costs 0..k. y_bar and u are the whole wire
    log, which messages holds read-only as a WireLog. x_hat0 is the public
    prior the estimator started from.
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


def _floats(value, name, rule):
    """value as a float array; ValueError naming it when its rows are
    ragged or not numbers."""
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ValueError(f"{name} must be {rule}, got rows that are ragged "
                         "or not numbers") from None


def _check_batch(model, agents, horizon, seeds, L, sigmas, gains):
    """The agents as a list and L, sigmas and gains as float arrays, once
    checked: the model's count of agents, each laid out as its (n_i, m_i)
    blocks; a horizon and seeds that are integers >= 0, the horizon at most
    np.intp's maximum, which no array length exceeds; L of shape (m, n),
    gains of shape (n, n), and per gain one row of the model's N noise
    scales, each finite and >= 0. ValueError names the agent or argument."""
    n, m, N = model.n, model.m, model.n_agents
    agents = list(agents)
    if len(agents) != N:
        raise ValueError(f"model was assembled for {N} agents, got {len(agents)}")
    for i, dims in enumerate(zip(model.state_dims, model.input_dims)):
        if (agents[i].n, agents[i].m) != dims:
            raise ValueError(f"agent {i} has (n_i, m_i) = {(agents[i].n, agents[i].m)}, "
                             f"not the model's {dims}")
    if check_count(horizon, "horizon") > np.iinfo(np.intp).max:
        raise ValueError(f"horizon must be at most {np.iinfo(np.intp).max}")
    for seed in seeds:
        check_count(seed, "seed")
    sigmas = _floats(sigmas, "sigmas", f"one row of {N} noise scales per gain")
    L = _floats(L, "L", f"a matrix of shape ({m}, {n})")
    gains = _floats(gains, "gains", f"Kalman gains of shape ({n}, {n})")
    if L.shape != (m, n):
        raise ValueError(f"L must have shape ({m}, {n}), got {L.shape}")
    if gains.ndim != 3 or gains.shape[1:] != (n, n):
        raise ValueError(f"gains must be Kalman gains of shape ({n}, {n}), "
                         f"got an array of shape {gains.shape}")
    if sigmas.shape != (len(gains), N):
        raise ValueError(f"sigmas must be one row of {N} noise scales per gain, "
                         f"got shape {sigmas.shape} for {len(gains)} gains")
    for sigma in sigmas.flat:
        check_positive(sigma, "sigmas", allow_zero=True)
    return agents, L, sigmas, gains


def _lockstep(model, agents, horizon, seed, L, sigmas, gains):
    """Advance S closed-loop runs in lockstep; yield their rows as _Chunks.

    The runs share the model, whose blocks they step, the agents' initial
    states, the master seed and the control gain L; agents, L, sigmas and
    gains are what _check_batch returns. Run j publishes with noise scales
    sigmas[j] (one per agent) and filters with Kalman gain gains[j]. Run
    j's rows are bit-equal to those of run_simulation on its own model and
    synthesis; the module docstring says why. Chunks come SIM_CHUNK_STEPS
    steps at a time, with no cost state passed from chunk to chunk.
    """
    n_runs, n, m, N = len(gains), model.n, model.m, model.n_agents
    A, B, C = model.A, model.B, model.C
    S = model.state_slices
    scale = np.repeat(sigmas, model.state_dims, axis=1)[:, :, None]
    privacy = [derive_stream(seed, i, PRIVACY_NOISE) for i in range(N)]
    process = [derive_stream(seed, i, PROCESS_NOISE) for i in range(N)]
    factors = [psd_factor(W_i) for *_, W_i in model.blocks]

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
    u = None
    for k0 in range(0, horizon, SIM_CHUNK_STEPS):
        T = min(SIM_CHUNK_STEPS, horizon - k0)
        z, w = np.empty((T, 1, n, 1)), np.empty((T, n, 1))
        for i, n_i in enumerate(model.state_dims):
            z[:, 0, S[i], 0] = privacy[i].standard_normal_rows(T, n_i)
            z_w = process[i].standard_normal_rows(T, n_i)
            w[:, S[i]] = np.matmul(factors[i], z_w[:, :, None])
        v = scale * z
        # yx[k] holds y(k - 1) over x(k), which step k - 1's product of a
        # group's stacked [C_g; A_g] writes; row T's x starts the next chunk
        yx = np.empty((T + 1, 2, n_runs, n, 1))
        xs, y_bars = yx[:, 1], yx[1:, 0]
        xs[0] = x
        x_hats, us = np.empty((T, n_runs, n, 1)), np.empty((T, n_runs, m, 1))
        Bu = np.empty((n_runs, n, 1))
        views = [(np.stack((C_g, A_g))[:, None], B_g,
                  yx[:, :, :, s].reshape(T + 1, 2, n_runs, G, n_g, 1),
                  us[:, :, t].reshape(T, n_runs, G, m_g, 1),
                  Bu[:, s].reshape(n_runs, G, n_g, 1))
                 for s, t, G, n_g, m_g, A_g, B_g, C_g in model.stacks]
        for k in range(T):
            for CA_g, _, yx_g, _, _ in views:
                np.matmul(CA_g, yx_g[k, 1], out=yx_g[k + 1])
            y_bar = y_bars[k]
            y_bar += v[k]
            if k0 + k:
                x_hat = filter_step(A, B, C, gains, x_hat, u, y_bar)
            x_hats[k] = x_hat
            u = us[k]
            np.matmul(L, x_hat, out=u)
            for _, B_g, _, u_g, Bu_g in views:
                np.matmul(B_g, u_g[k], out=Bu_g)
            x_next = xs[k + 1]
            x_next += Bu
            x_next += w[k]
        x = xs[T]
        xs, us = xs[:T, :, :, 0], us[:, :, :, 0]
        yield _Chunk(slice(k0, k0 + T), xs, x_hats[:, :, :, 0], us, y_bars[:, :, :, 0],
                     incremental_cost(xs, us, model.Q, model.R))


def run_simulation(model, agents, horizon, seed, synthesis):
    """Run the closed loop for `horizon` steps under a master seed.

    The plant and the cloud step the model; agents give only their initial
    states. synthesis is the model's SynthesisResult (dplqg.lqg.synthesize),
    whose gains L and Kalman gain the cloud applies. Returns a
    SimulationTrace; identical inputs produce bit-identical traces. The run
    is a lockstep batch of one (_lockstep). Agents not laid out as the
    model's (n_i, m_i) blocks, a horizon or seed that is not an integer
    >= 0, an L or Kalman gain not shaped for the model, and a horizon whose
    trace memory cannot be allocated raise ValueError.
    """
    agents, L, sigmas, gains = _check_batch(model, agents, horizon, [seed], synthesis.L,
                                            [model.sigmas], [synthesis.kalman_gain])
    n, m = model.n, model.m
    try:
        rows = {"x": np.empty((horizon, n)), "x_hat": np.empty((horizon, n)),
                "u": np.empty((horizon, m)), "y_bar": np.empty((horizon, n)),
                "stage_cost": np.empty(horizon)}
    except MemoryError:
        raise ValueError(f"a trace of horizon {horizon} does not fit in memory") from None
    for chunk in _lockstep(model, agents, horizon, seed, L, sigmas, gains):
        for name, out in rows.items():
            out[chunk.steps] = getattr(chunk, name)[:, 0]
    return SimulationTrace(
        **rows, avg_cost=np.cumsum(rows["stage_cost"]) / np.arange(1, horizon + 1),
        x_hat0=np.concatenate([ag.x0_mean for ag in agents]),
        state_dims=model.state_dims, input_dims=model.input_dims,
    )


def average_costs(model, agents, horizon, seeds, L, sigmas, gains):
    """The (S, len(seeds)) final average costs of S runs per master seed.

    Entry [j, s] has the bits of run_simulation(...).avg_cost[-1] under
    seeds[s] for run j, which publishes with noise scales sigmas[j] and
    applies the gains L and gains[j]. Each seed is one lockstep batch, which
    steps the model and draws its noise once; agents give only their
    initial states. Inputs are checked as run_simulation checks them, and
    sigmas must give one row of N finite scales >= 0 per gain. Each run's
    sum of stage costs is carried from chunk to chunk, np.cumsum seeded
    with it, and divided by the horizon: 0 gives NaN, the mean of no costs.
    """
    agents, L, sigmas, gains = _check_batch(model, agents, horizon, seeds, L, sigmas, gains)
    costs = np.full((len(gains), len(seeds)), np.nan)
    for s, seed in enumerate(seeds):
        for chunk in _lockstep(model, agents, horizon, seed, L, sigmas, gains):
            if chunk.steps.start:
                chunk.stage_cost[0] += costs[:, s]
            costs[:, s] = np.cumsum(chunk.stage_cost, axis=0)[-1]
    return costs / horizon


def eavesdropper_view(trace):
    """The wire log and nothing else: what a passive listener knows."""
    return trace.messages


def replay_estimates(log, model, filter_synthesis, x_hat0):
    """Reconstruct the cloud's estimates from the wire log alone.

    log is a WireLog, whose y_bar and u arrays are all the replay reads:
    trace.messages, or the published messages.csv as read_messages_csv
    parses it. Needs only public information: the model matrices (A, B, C),
    the filter gain (derivable from A, C, W, V without the secret Q and R),
    the public prior, and the log. The replay runs dplqg.lqg.filter_step's
    products and sums in its order, writing each estimate into its row of
    the result, so the result matches the cloud's xhat sequence bit for
    bit; filter_step is the reference it is tested against. Returns a
    (T, n) array. A log of other agent dimensions, or an x_hat0 that is
    not a finite vector of shape (n,), raises ValueError.
    """
    if (log.state_dims, log.input_dims) != (model.state_dims, model.input_dims):
        raise ValueError("the wire log's agent dimensions do not match the model")
    A, B, C = model.A, model.B, model.C
    gain = np.ascontiguousarray(filter_synthesis.kalman_gain, dtype=float)
    x_hat = np.asarray(x_hat0, dtype=float)
    if x_hat.shape != (model.n,):
        raise ValueError(f"x_hat0 must have shape ({model.n},), got {x_hat.shape}")
    check_finite(x_hat, "x_hat0")
    out = np.empty((log.horizon, model.n))
    out[:1] = x_hat
    # filter_step in its order, each estimate written into its row of out
    Bu = np.matmul(B, log.u[:-1, :, None])[:, :, 0]
    predicted, residual = np.empty(model.n), np.empty(model.n)
    for x_hat, x_next, Bu_k, y_next in zip(out, out[1:], Bu, log.y_bar[1:]):
        A.dot(x_hat, out=predicted)
        predicted += Bu_k
        C.dot(predicted, out=residual)
        np.subtract(y_next, residual, out=residual)
        gain.dot(residual, out=x_next)
        x_next += predicted
    return out


# ----------------------------------------------------------------------
# CSV files: a header, then each step's rows through a dplqg.output template
# ----------------------------------------------------------------------

def _cells(cols, width):
    """The block columns of the slice cols, then empty cells up to width."""
    return [*range(cols.start, cols.stop), *[""] * (width - (cols.stop - cols.start))]


def _write_csv(fh, header, step, arrays):
    """Write the header, then the template step per row of the arrays side by side."""
    write_rows(fh, [header])
    for k0 in range(0, len(arrays[0]), SIM_CHUNK_STEPS):
        steps = slice(k0, k0 + SIM_CHUNK_STEPS)
        write_rows(fh, step, np.column_stack([a[steps] for a in arrays]), k0)


def write_trace_csv(trace, path):
    """Write a trace as one CSV row per (step, agent).

    Columns: k, agent_id, x0..x{p-1}, xhat0..xhat{p-1}, u0..u{q-1},
    ybar0..ybar{p-1} with p, q the largest per-agent state and input
    dimensions (narrower agents leave trailing cells empty), then the
    step's network-level stage_cost and avg_cost, on each agent row.
    """
    p, q = max(trace.state_dims), max(trace.input_dims)
    widths = {"x": p, "xhat": p, "u": q, "ybar": p}
    header = ["k", "agent_id", *(f"{name}{j}" for name, w in widths.items() for j in range(w)),
              "stage_cost", "avg_cost"]
    # agent i's x, xhat, u and ybar cells are slices i, N+i, 2N+i and 3N+i
    # of the step's [x | x_hat | u | y_bar | stage_cost avg_cost] row
    N = len(trace.state_dims)
    cols = _slices(trace.state_dims * 2 + trace.input_dims + trace.state_dims)
    step = [[STEP, str(i), *chain.from_iterable(map(_cells, cols[i::N], widths.values())),
             cols[-1].stop, cols[-1].stop + 1] for i in range(N)]
    with open(path, "w", newline="") as fh:
        _write_csv(fh, header, step, (trace.x, trace.x_hat, trace.u, trace.y_bar,
                                      trace.stage_cost, trace.avg_cost))


def _write_messages(fh, log):
    """Write messages.csv's text for a WireLog to fh; this alone defines it."""
    widths = log.state_dims + log.input_dims
    width = max(widths) if len(log) else 0
    # message r's payload is slice r of the step's [y_bar | u] row
    step = [[*slot, STEP, *_cells(cols, width)]
            for slot, cols in zip(_step_slots(len(log.state_dims)), _slices(widths))]
    header = ["kind", "sender", "receiver", "k"] + [f"payload{j}" for j in range(width)]
    _write_csv(fh, header, step, (log.y_bar, log.u))


def write_messages_csv(log, path):
    """Write a WireLog as CSV: kind, sender, receiver, k, payload cells.

    Payload columns run to the widest agent state or input dimension (none
    for an empty log); narrower payloads leave trailing cells empty.
    """
    with open(path, "w", newline="") as fh:
        _write_messages(fh, log)


def read_messages_csv(path, model):
    """Parse the bytes write_messages_csv wrote into `model`'s WireLog.

    Row j below the header is message j - 1 of protocol order; float()
    reads its payload cells back to their doubles, bit for bit, and the
    file, line endings included, must be the writer's text for that log.
    A payload cell float() refuses, and the first line that differs
    ("+0.5" for "0.5", another slot, step or line ending, a missing or
    extra message or cell), raise ValueError naming the column and the
    message row (1 is the row below the header), or the file line.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    N, widths = model.n_agents, model.state_dims + model.input_dims
    rows, slots, cols = text.splitlines(), _step_slots(N), _slices(widths)
    T = max(len(rows) - 1, 0) // (2 * N)
    # a payload cell missing from a short row stays NaN; the comparison names it
    values = np.full((T, model.n + model.m), np.nan)
    for j, row in enumerate(rows[1:1 + 2 * N * T], 1):
        k, r = divmod(j - 1, 2 * N)
        for c, cell in enumerate(row.split(",")[4:4 + widths[r]]):
            try:
                values[k, cols[r].start + c] = float(cell)
            except ValueError:
                raise ValueError(f"message row {j} ({slots[r][0]} at step {k}): payload{c} "
                                 f"cell {cell!r} is not the repr of a double") from None
    log = WireLog(*np.hsplit(values, [model.n]), model.state_dims, model.input_dims)
    expected = io.StringIO(newline="")
    _write_messages(expected, log)
    if text != expected.getvalue():
        # only now split into lines, endings kept, and the first differing one at commas
        lines = zip_longest(text.splitlines(True), expected.getvalue().splitlines(True))
        j, (got, want) = next((j, pair) for j, pair in enumerate(lines) if pair[0] != pair[1])
        header = expected.getvalue().splitlines()[0].split(",")
        got, want = (line.split(",") if line else [] for line in (got, want))
        c = next(c for c, (a, b) in enumerate(zip_longest(got, want)) if a != b)
        where = (f"message row {j} ({want[0]} at step {want[3]})" if j and want
                 else f"messages.csv line {j + 1}")
        column = header[c] if c < len(header) else f"column {c + 1}"
        got, want = (repr(row[c]) if c < len(row) else "(none)" for row in (got, want))
        raise ValueError(f"{where}: {column} cell {got} is not the writer's {want}")
    return log
