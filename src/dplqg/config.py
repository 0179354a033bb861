"""Experiment descriptions: a JSON document mapped to validated models.

A config is one JSON object:

    {
      "agents": [
        {"A": [[1.0, 0.1], [0.0, 1.0]],
         "B": [[0.0], [1.0]],
         "C": [[1.0, 0.0], [0.0, 1.0]],        # optional, identity if absent
         "W": [[1.0, 0.5], [0.5, 1.0]],
         "epsilon": 0.1, "delta": 0.01,
         "adjacency_bound": 1.0,               # optional, default 1.0
         "x0_mean": [0.0, 0.0],                # optional, default zeros
         "x0_true": [...], "x0_cov": [[...]]}  # optional, see AgentModel
      ],
      "cost": {"Q": [[...]] | {"random_pd": {"seed": 7}},
               "R": [[...]] | {"random_pd": {"seed": 8}}},
      "horizon": 200,
      "seed": 12345,
      "out": "results"                          # optional
    }

Matrices are written row-major as lists of rows. A cost entry may be an
explicit matrix or a recipe {"random_pd": {"seed": s}}: the matrix is then
G^T G + 0.1 I with G an i.i.d. standard normal square matrix of the right
dimension, drawn from the documented Gaussian stream for that seed (the
config's master seed when the recipe seed is omitted). Off-diagonal
couplings are then almost surely nonzero, which is the point: the cloud's
cost couples agents even though their dynamics are decoupled.

Parsing is strict: unknown keys, wrong shapes, invalid privacy
parameters, or a horizon or seed that is not a JSON integer >= 0 raise
ConfigError.
"""

import json

import numpy as np

from .errors import ConfigError, check_count
from .network import AgentModel, assemble_network
from .privacy import PrivacySpec
from .rng import COST_MATRIX, GaussianStream

_AGENT_KEYS = {
    "A", "B", "C", "W", "epsilon", "delta", "adjacency_bound",
    "x0_mean", "x0_true", "x0_cov",
}
_TOP_KEYS = {"agents", "cost", "horizon", "seed", "out"}
_COST_KEYS = {"Q", "R"}


class RandomPdRecipe:
    """Deferred G^T G + 0.1 I cost matrix; resolved at network build time."""

    def __init__(self, seed=None):
        self.seed = None if seed is None else int(seed)

    def __eq__(self, other):
        return isinstance(other, RandomPdRecipe) and self.seed == other.seed

    def __repr__(self):
        return f"RandomPdRecipe(seed={self.seed})"

    def resolve(self, dim, default_seed, which):
        seed = self.seed if self.seed is not None else int(default_seed)
        stream = GaussianStream((seed, COST_MATRIX, which))
        G = stream.standard_normal(dim * dim).reshape(dim, dim)
        return G.T @ G + 0.1 * np.eye(dim)


class ExperimentConfig:
    """Validated experiment description."""

    def __init__(self, agents, cost_q, cost_r, horizon, seed, out=None):
        self.agents = list(agents)
        self.cost_q = cost_q
        self.cost_r = cost_r
        self.horizon = check_count(horizon, "horizon", ConfigError)
        self.seed = check_count(seed, "seed", ConfigError)
        self.out = out
        if not self.agents:
            raise ConfigError("at least one agent is required")

    @property
    def n(self):
        return sum(ag.n for ag in self.agents)

    @property
    def m(self):
        return sum(ag.m for ag in self.agents)


def _matrix(value, where):
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: not a numeric matrix") from None
    if M.ndim != 2:
        raise ConfigError(f"{where}: expected a list of rows, got shape {M.shape}")
    return M


def _agent_from_dict(entry, index):
    where = f"agents[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(entry) - _AGENT_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key in ("A", "B", "W", "epsilon", "delta"):
        if key not in entry:
            raise ConfigError(f"{where}: missing required key {key!r}")
    A = _matrix(entry["A"], f"{where}.A")
    n = A.shape[0]
    C = _matrix(entry["C"], f"{where}.C") if "C" in entry else np.eye(n)
    try:
        privacy = PrivacySpec(
            epsilon=entry["epsilon"],
            delta=entry["delta"],
            adjacency_bound=entry.get("adjacency_bound", 1.0),
        )
        return AgentModel(
            A=A,
            B=_matrix(entry["B"], f"{where}.B"),
            C=C,
            W=_matrix(entry["W"], f"{where}.W"),
            privacy=privacy,
            x0_mean=entry.get("x0_mean", np.zeros(n)),
            x0_true=entry.get("x0_true"),
            x0_cov=None if "x0_cov" not in entry
            else _matrix(entry["x0_cov"], f"{where}.x0_cov"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _cost_entry(value, where):
    if isinstance(value, dict):
        if set(value) != {"random_pd"}:
            raise ConfigError(
                f"{where}: a cost object must be exactly {{'random_pd': ...}}"
            )
        recipe = value["random_pd"]
        if not isinstance(recipe, dict) or set(recipe) - {"seed"}:
            raise ConfigError(f"{where}.random_pd: only a 'seed' key is allowed")
        seed = recipe.get("seed")
        if seed is not None:
            check_count(seed, f"{where}.random_pd.seed", ConfigError)
        return RandomPdRecipe(seed=seed)
    return _matrix(value, where)


def from_dict(raw):
    """Build an ExperimentConfig from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("agents", "cost", "horizon", "seed"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    if not isinstance(raw["agents"], list):
        raise ConfigError("'agents' must be a list")
    agents = [_agent_from_dict(a, i) for i, a in enumerate(raw["agents"])]
    cost = raw["cost"]
    if not isinstance(cost, dict) or set(cost) != _COST_KEYS:
        raise ConfigError("'cost' must be an object with exactly keys Q and R")
    cost_q = _cost_entry(cost["Q"], "cost.Q")
    cost_r = _cost_entry(cost["R"], "cost.R")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("'out' must be a string path")
    return ExperimentConfig(
        agents=agents, cost_q=cost_q, cost_r=cost_r,
        horizon=raw["horizon"], seed=raw["seed"], out=out,
    )


def loads(text):
    """Parse a JSON config document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    return from_dict(raw)


def load(path):
    """Read and parse a config file."""
    with open(path) as fh:
        return loads(fh.read())


def resolve_costs(cfg, seed=None):
    """Materialize the cost matrices (explicit or random recipe) as arrays.

    seed overrides the default seed that unseeded random_pd recipes fall
    back to (the config's master seed).
    """
    default = cfg.seed if seed is None else check_count(seed, "seed", ConfigError)
    n, m = cfg.n, cfg.m
    if isinstance(cfg.cost_q, RandomPdRecipe):
        Q = cfg.cost_q.resolve(n, default, 0)
    else:
        Q = np.asarray(cfg.cost_q, dtype=float)
    if isinstance(cfg.cost_r, RandomPdRecipe):
        R = cfg.cost_r.resolve(m, default, 1)
    else:
        R = np.asarray(cfg.cost_r, dtype=float)
    return Q, R


def build_network(cfg, seed=None):
    """Assemble the validated NetworkModel for a config.

    Returns (model, agents). Assumption violations propagate as
    AssumptionError from the assembly.
    """
    Q, R = resolve_costs(cfg, seed=seed)
    model = assemble_network(cfg.agents, Q, R)
    return model, cfg.agents
