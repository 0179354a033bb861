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
parameters, a number that is not a JSON number (a bool or a string such as
"0.1"), or a horizon or seed that is not a JSON integer >= 0 raise
ConfigError. The command line's --seed, --steps and --out replace seed,
horizon and out, under the same checks, before any verb runs.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_count, check_real
from .network import AgentModel, assemble_network
from .privacy import PrivacySpec
from .rng import COST_MATRIX, GaussianStream

_AGENT_ARRAYS = {"A": "matrix", "B": "matrix", "C": "matrix", "W": "matrix",
                 "x0_mean": "vector", "x0_true": "vector", "x0_cov": "matrix"}
_AGENT_KEYS = {*_AGENT_ARRAYS, "epsilon", "delta", "adjacency_bound"}
_TOP_KEYS = {"agents", "cost", "horizon", "seed", "out"}
_COST_KEYS = {"Q", "R"}


@dataclass(frozen=True)
class RandomPdRecipe:
    """Deferred G^T G + 0.1 I cost matrix; resolved at network build time."""

    seed: int = None

    def __post_init__(self):
        if self.seed is not None:
            object.__setattr__(self, "seed", check_count(self.seed, "seed"))

    def resolve(self, dim, default_seed, which):
        seed = self.seed
        if seed is None:
            seed = check_count(default_seed, "default_seed")
        stream = GaussianStream((seed, COST_MATRIX, which))
        G = stream.standard_normal(dim * dim).reshape(dim, dim)
        return G.T @ G + 0.1 * np.eye(dim)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description; dataclasses.replace edits it under
    the checks of construction."""

    agents: tuple
    cost_q: object
    cost_r: object
    horizon: int
    seed: int
    out: str = None

    def __post_init__(self):
        for name in ("horizon", "seed"):
            object.__setattr__(self, name,
                               check_count(getattr(self, name), name, ConfigError))
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("'out' must be a string path")
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ConfigError("at least one agent is required")


def _array(value, where, kind="matrix"):
    """value as a float array, a list of rows for a matrix; ConfigError
    naming `where` unless its entries are JSON numbers (errors.check_real:
    not a bool or a string such as "1") in lists that are not ragged."""
    try:
        entries = np.asarray(value, dtype=object)
        for entry in entries.flat:
            check_real(entry, where)
    except ValueError:
        raise ConfigError(f"{where}: not a numeric {kind}") from None
    M = entries.astype(float)
    if kind == "matrix" and M.ndim != 2:
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
    arrays = {key: _array(entry[key], f"{where}.{key}", kind)
              for key, kind in _AGENT_ARRAYS.items() if key in entry}
    n = arrays["A"].shape[0]
    arrays.setdefault("C", np.eye(n))
    arrays.setdefault("x0_mean", np.zeros(n))
    try:
        privacy = PrivacySpec(
            epsilon=entry["epsilon"],
            delta=entry["delta"],
            adjacency_bound=entry.get("adjacency_bound", 1.0),
        )
        return AgentModel(privacy=privacy, **arrays)
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
        try:
            return RandomPdRecipe(seed=recipe.get("seed"))
        except ValueError as exc:
            raise ConfigError(f"{where}.random_pd.{exc}") from None
    return _array(value, where)


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
    return ExperimentConfig(
        agents=agents, cost_q=cost_q, cost_r=cost_r,
        horizon=raw["horizon"], seed=raw["seed"], out=raw.get("out"),
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

    seed, when given, replaces the config's master seed, under the same
    check, as the default that unseeded random_pd recipes fall back to.
    """
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    costs = []
    for which, (cost, dim) in enumerate([(cfg.cost_q, "n"), (cfg.cost_r, "m")]):
        if isinstance(cost, RandomPdRecipe):
            cost = cost.resolve(sum(getattr(ag, dim) for ag in cfg.agents), cfg.seed, which)
        costs.append(np.asarray(cost, dtype=float))
    return tuple(costs)


def build_network(cfg):
    """Assemble the validated NetworkModel for a config.

    Returns (model, agents). Assumption violations propagate as
    AssumptionError from the assembly.
    """
    model = assemble_network(cfg.agents, *resolve_costs(cfg))
    return model, cfg.agents
