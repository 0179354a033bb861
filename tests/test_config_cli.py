"""Tests for config parsing and the command-line verbs.

CLI verbs are exercised in-process through main(argv) so exit codes and
written files can be asserted cheaply. Two subprocess tests run the bound
verb as `python -m dplqg.cli` and check the installed console script.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import math
from dataclasses import replace

import dplqg.bounds as bounds
import dplqg.cli as cli
import dplqg.lqg as lqg
import dplqg.network as network
import dplqg.riccati as riccati
from dplqg.bounds import entropy_bound_report, logdet
from dplqg.cli import DEFAULT_SWEEP_GRID, main, sweep_epsilon
from dplqg.config import (
    ExperimentConfig,
    RandomPdRecipe,
    build_network,
    from_dict,
    load,
    loads,
    resolve_costs,
)
from dplqg.errors import ConfigError
from dplqg.lqg import synthesize
from dplqg.network import SIM_CHUNK_STEPS, assemble_network, run_simulation
from dplqg.rng import PRIVACY_NOISE, PROCESS_NOISE

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CASE_STUDY_BOUND_REPORT = (
    b"status = inapplicable\n"
    b"condition_holds = false\n"
    b"condition_margin = -0.1025788795076612\n"
    b"variance_floor = 1.4032362393510973\n"
    b"posterior_floor_diag = 0.9981888785356193, 0.9981888785356193, "
    b"0.3333333333333334, 0.3333333333333334\n"
)
# the synthesize verb's summary of each shipped config, frozen bytewise
SYNTHESIS_SUMMARIES = {
    "sweep_4agent.json": (
        b"control_residual = 7.951064052879909e-13\n"
        b"filter_residual = 1.041711835896473e-13\n"
        b"closed_loop_spectral_radius = 0.9265732928719442\n"
        b"logdet_prediction_cov = 3.546865992051656\n"
        b"sigma_agent0 = 1.120656711733085\n"
        b"sigma_agent1 = 1.120656711733085\n"
        b"sigma_agent2 = 1.120656711733085\n"
        b"sigma_agent3 = 1.120656711733085\n"
    ),
    "case_study_2agent.json": (
        b"control_residual = 7.742328213836318e-13\n"
        b"filter_residual = 9.149853235241269e-13\n"
        b"closed_loop_spectral_radius = 0.9048024432667668\n"
        b"logdet_prediction_cov = 6.462095058278662\n"
        b"sigma_agent0 = 23.476458057296718\n"
        b"sigma_agent1 = 0.7071067811865476\n"
    ),
}


def _agent_dict(**overrides):
    entry = {
        "A": [[1.0, 0.1], [0.0, 1.0]],
        "B": [[0.0], [1.0]],
        "W": [[1.0, 0.5], [0.5, 1.0]],
        "epsilon": 1.0,
        "delta": 0.1,
    }
    entry.update(overrides)
    return entry


def _config_dict(**overrides):
    raw = {
        "agents": [_agent_dict()],
        "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
        "horizon": 30,
        "seed": 9,
    }
    raw.update(overrides)
    return raw


def _write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def test_round_trip_preserves_optional_fields():
    raw = _config_dict()
    raw["agents"][0]["x0_true"] = [1.0, -1.0]
    raw["agents"][0]["x0_cov"] = [[2.0, 0.0], [0.0, 2.0]]
    raw["agents"][0]["adjacency_bound"] = 2.5
    raw["out"] = "somewhere"
    cfg = loads(json.dumps(raw))
    ag = cfg.agents[0]
    assert np.array_equal(ag.x0_true, [1.0, -1.0])
    assert np.array_equal(ag.x0_cov, 2.0 * np.eye(2))
    assert ag.privacy.adjacency_bound == 2.5
    assert cfg.out == "somewhere"


def test_defaults_for_omitted_keys():
    cfg = from_dict(_config_dict())
    ag = cfg.agents[0]
    assert np.array_equal(ag.C, np.eye(2))
    assert np.array_equal(ag.x0_mean, np.zeros(2))
    assert ag.privacy.adjacency_bound == 1.0
    assert ag.x0_true is None and ag.x0_cov is None


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        from_dict(_config_dict(extra=1))
    raw = _config_dict()
    raw["agents"][0]["typo_key"] = 5
    with pytest.raises(ConfigError, match="unknown keys"):
        from_dict(raw)


def test_missing_required_keys_rejected():
    raw = _config_dict()
    del raw["horizon"]
    with pytest.raises(ConfigError, match="horizon"):
        from_dict(raw)
    raw = _config_dict()
    del raw["agents"][0]["W"]
    with pytest.raises(ConfigError, match="missing required key"):
        from_dict(raw)


def test_invalid_privacy_becomes_config_error():
    raw = _config_dict()
    raw["agents"][0]["delta"] = 0.7
    with pytest.raises(ConfigError, match="delta"):
        from_dict(raw)


def test_bad_matrix_and_bad_json():
    raw = _config_dict()
    raw["agents"][0]["A"] = [1.0, 0.0]  # not a list of rows
    with pytest.raises(ConfigError, match="list of rows"):
        from_dict(raw)
    raw["agents"][0]["A"] = [[1.0, "x"], [0.0, 1.0]]
    with pytest.raises(ConfigError, match=r"agents\[0\]\.A: not a numeric matrix"):
        from_dict(raw)
    with pytest.raises(ConfigError, match=r"agents\[0\]: expected an object"):
        from_dict(_config_dict(agents=[[1.0]]))
    with pytest.raises(ConfigError, match="'agents' must be a list"):
        from_dict(_config_dict(agents={"A": [[1.0]]}))
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        loads("[1, 2]")
    with pytest.raises(ConfigError, match="invalid JSON"):
        loads("{not json")
    with pytest.raises(ConfigError):
        from_dict(_config_dict(horizon="soon"))
    with pytest.raises(ConfigError):
        from_dict(_config_dict(horizon=-3))
    # horizon and seed are JSON integers >= 0: nothing is converted or rounded
    for key in ("horizon", "seed"):
        for bad in ("12", 2.7, 2.0, True, -1, None, [3]):
            with pytest.raises(ConfigError, match=f"{key} must be an integer >= 0"):
                from_dict(_config_dict(**{key: bad}))
    cfg = from_dict(_config_dict(horizon=0, seed=0))
    assert (cfg.horizon, cfg.seed) == (0, 0)
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
        resolve_costs(cfg, seed=-1)


def test_cost_entry_validation():
    with pytest.raises(ConfigError, match="exactly keys Q and R"):
        from_dict(_config_dict(cost={"Q": [[1.0]]}))
    raw = _config_dict(cost={"Q": {"random_pd": {"seed": 1, "extra": 2}},
                             "R": [[1.0]]})
    with pytest.raises(ConfigError, match="random_pd"):
        from_dict(raw)
    raw = _config_dict(cost={"Q": {"other": {}}, "R": [[1.0]]})
    with pytest.raises(ConfigError, match="random_pd"):
        from_dict(raw)
    for bad in ("abc", "7", 1.5, 1.0, False, -1):
        raw = _config_dict(cost={"Q": [[1.0, 0.0], [0.0, 1.0]],
                                 "R": {"random_pd": {"seed": bad}}})
        with pytest.raises(ConfigError,
                           match=r"cost\.R\.random_pd\.seed must be an integer >= 0"):
            from_dict(raw)
    raw = _config_dict(cost={"Q": {"random_pd": {"seed": 0}}, "R": [[1.0]]})
    assert from_dict(raw).cost_q == RandomPdRecipe(0)


# ----------------------------------------------------------------------
# Random cost recipes
# ----------------------------------------------------------------------

def test_random_pd_recipe_deterministic_and_pd():
    recipe = RandomPdRecipe(seed=33)
    Q1 = recipe.resolve(4, default_seed=0, which=0)
    Q2 = RandomPdRecipe(seed=33).resolve(4, default_seed=99, which=0)
    assert np.array_equal(Q1, Q2)  # explicit seed wins over the default
    assert np.all(np.linalg.eigvalsh(0.5 * (Q1 + Q1.T)) >= 0.1 - 1e-12)
    assert_allclose(Q1, Q1.T, rtol=0.0, atol=0.0)
    # Q and R recipes with the same seed still use distinct streams
    R1 = RandomPdRecipe(seed=33).resolve(4, default_seed=0, which=1)
    assert not np.array_equal(Q1, R1)


def test_random_pd_recipe_rejects_non_integer_seeds():
    # a seed is never converted: 2.7, "12" and True do not become 2, 12 and 1
    for bad in (2.7, 2.0, "12", True, -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            RandomPdRecipe(bad)
        with pytest.raises(ValueError, match="default_seed must be an integer >= 0"):
            RandomPdRecipe().resolve(2, default_seed=bad, which=0)
    assert RandomPdRecipe(np.int64(12)) == RandomPdRecipe(12)
    assert np.array_equal(RandomPdRecipe().resolve(3, np.uint32(12), 0),
                          RandomPdRecipe(12).resolve(3, 0, 0))
    # an explicit seed wins, so the unused default is not inspected
    assert np.array_equal(RandomPdRecipe(12).resolve(3, None, 0),
                          RandomPdRecipe(12).resolve(3, 0, 0))


def test_random_pd_seed_falls_back_to_master():
    raw = _config_dict(cost={"Q": {"random_pd": {}}, "R": {"random_pd": {}}})
    cfg = from_dict(raw)
    Qa, Ra = resolve_costs(cfg)
    Qb, _ = resolve_costs(cfg, seed=cfg.seed)
    Qc, _ = resolve_costs(cfg, seed=cfg.seed + 1)
    assert np.array_equal(Qa, Qb)
    assert not np.array_equal(Qa, Qc)
    assert Qa.shape == (2, 2) and Ra.shape == (1, 1)


def test_recipe_equality_and_repr():
    assert RandomPdRecipe(1) == RandomPdRecipe(1)
    assert RandomPdRecipe(1) != RandomPdRecipe(2)
    assert RandomPdRecipe(None) == RandomPdRecipe(None)
    assert "RandomPdRecipe" in repr(RandomPdRecipe(7))


def test_build_network_matches_manual_assembly():
    cfg = from_dict(_config_dict())
    model, agents = build_network(cfg)
    assert len(agents) == 1
    assert model.n == 2 and model.m == 1
    Q, R = resolve_costs(cfg)
    assert np.array_equal(model.Q, Q)
    assert np.array_equal(model.R, R)


def test_experiment_config_validates():
    with pytest.raises(ConfigError):
        ExperimentConfig(agents=[], cost_q=np.eye(1), cost_r=np.eye(1),
                         horizon=1, seed=0)
    # an edit runs the checks of construction, on the file's values and on
    # the command line's overrides alike
    cfg = from_dict(_config_dict())
    for edit, message in (({"horizon": -1}, "horizon must be an integer >= 0"),
                          ({"seed": 2.7}, "seed must be an integer >= 0"),
                          ({"out": 5}, "'out' must be a string path")):
        with pytest.raises(ConfigError, match=message):
            replace(cfg, **edit)
        with pytest.raises(ConfigError, match=message):
            from_dict(_config_dict(**edit))
    assert replace(cfg, horizon=np.int64(4)).horizon.__class__ is int


# ----------------------------------------------------------------------
# CLI verbs, in process
# ----------------------------------------------------------------------

def test_cli_synthesize_writes_expected_files(tmp_path):
    cfg_path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "res"
    code = main(["synthesize", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    for name in ["K.csv", "L.csv", "Sigma.csv", "SigmaBar.csv", "V.csv",
                 "synthesis_summary.txt"]:
        assert (out / name).exists(), name
    # L.csv round-trips to the library's result exactly (repr serialization)
    cfg = load(cfg_path)
    model, _ = build_network(cfg)
    syn = synthesize(model)
    L_read = np.array([[float(v) for v in line.split(",")]
                       for line in (out / "L.csv").read_text().splitlines()])
    assert np.array_equal(L_read, syn.L)
    summary = (out / "synthesis_summary.txt").read_text()
    assert "control_residual = " in summary
    assert "sigma_agent0 = " in summary


def test_cli_synthesize_reruns_byte_identical(tmp_path):
    cfg_path = _write_config(tmp_path, _config_dict())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["synthesize", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["synthesize", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ["K.csv", "L.csv", "Sigma.csv", "synthesis_summary.txt"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SYNTHESIS_SUMMARIES))
def test_cli_synthesize_summary_of_shipped_configs(tmp_path, name):
    out = tmp_path / "syn"
    assert main(["synthesize", "--config", str(CONFIG_DIR / name), "--out", str(out)]) == 0
    assert (out / "synthesis_summary.txt").read_bytes() == SYNTHESIS_SUMMARIES[name]


def test_cli_simulate_trace_and_summary(tmp_path):
    cfg_path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "sim"
    code = main(["simulate", "--config", cfg_path, "--steps", "12",
                 "--out", str(out)])
    assert code == 0
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert len(trace_lines) == 1 + 12  # one agent, 12 steps
    msg_lines = (out / "messages.csv").read_text().splitlines()
    assert len(msg_lines) == 1 + 2 * 1 * 12
    summary = dict(
        line.split(" = ") for line in
        (out / "simulate_summary.txt").read_text().splitlines()
    )
    assert summary["steps"] == "12"
    assert summary["message_count"] == "24"
    assert float(summary["final_avg_cost"]) > 0.0
    # no steps: no average cost, and a wire log of the header alone
    assert main(["simulate", "--config", cfg_path, "--steps", "0",
                 "--out", str(out)]) == 0
    summary = (out / "simulate_summary.txt").read_text()
    assert "message_count = 0\nfinal_avg_cost = none\n" in summary
    assert (out / "messages.csv").read_bytes() == b"kind,sender,receiver,k\r\n"


def test_cli_simulate_wire_file_replays_to_trace_estimates(tmp_path):
    # The threat model on the verb's own files: an eavesdropper who holds
    # only the published messages.csv and public model data (no Q or R)
    # replays trace.csv's xhat columns, bit for bit.
    cfg_path = CONFIG_DIR / "case_study_2agent.json"
    out, T = tmp_path / "out", 300
    assert main(["simulate", "--config", str(cfg_path), "--steps", str(T),
                 "--out", str(out)]) == 0
    model, agents = build_network(load(cfg_path))
    public_filter = riccati.solve_dare_filter(model.A, model.C, model.W, model.V)
    log = network.read_messages_csv(out / "messages.csv", model)
    replayed = network.replay_estimates(
        log, model, public_filter, np.concatenate([ag.x0_mean for ag in agents]))

    header, *rows = (out / "trace.csv").read_text().splitlines()
    xhat = header.split(",").index("xhat0")
    estimates = np.full((T, model.n), np.nan)
    for row in rows:
        cells = row.split(",")
        k, i = int(cells[0]), int(cells[1])
        s = model.state_slices[i]
        estimates[k, s] = [float(c) for c in cells[xhat:xhat + s.stop - s.start]]
    assert len(rows) == T * model.n_agents
    assert np.array_equal(replayed, estimates)


@pytest.mark.parametrize("argv, steps", [
    (["synthesize"], None),
    (["simulate"], 40),
    (["sweep-epsilon", "--seeds", "2", "--grid", "0.5,2.0"], 30),
], ids=["synthesize", "simulate", "sweep-epsilon"])
def test_cli_overrides_are_config_edits(tmp_path, argv, steps):
    # --seed, --steps and --out write the files that a config file holding
    # those values gives; the costs are unseeded random_pd recipes, so
    # --seed also redraws Q and R
    raw = _config_dict(cost={"Q": {"random_pd": {}}, "R": {"random_pd": {}}})
    given, edited, master = tmp_path / "given", tmp_path / "edited", tmp_path / "master"
    cfg_path = _write_config(tmp_path, raw)
    edit = {"seed": 3, "out": str(edited)} | ({} if steps is None else {"horizon": steps})
    edited_path = _write_config(tmp_path, raw | edit, "edited.json")
    steps_argv = [] if steps is None else ["--steps", str(steps)]
    assert main(argv + ["--config", cfg_path, *steps_argv, "--seed", "3",
                        "--out", str(given)]) == 0
    assert main(argv + ["--config", edited_path]) == 0
    assert main(argv + ["--config", cfg_path, *steps_argv, "--out", str(master)]) == 0
    names = sorted(path.name for path in given.iterdir())
    assert names == sorted(path.name for path in edited.iterdir())
    for name in names:
        assert (given / name).read_bytes() == (edited / name).read_bytes(), name
    # the override took effect: the config's own seed writes other files
    assert any((given / name).read_bytes() != (master / name).read_bytes()
               for name in names)


def test_cli_simulate_checks_overrides_before_solving(tmp_path, capsys, monkeypatch):
    # a bad --steps or --seed is rejected before anything is solved
    def unreachable(*args, **kwargs):
        raise AssertionError("synthesize ran before the overrides were checked")

    monkeypatch.setattr(cli, "synthesize", unreachable)
    cfg_path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--steps", "-1",
                 "--out", str(out)]) == 2
    assert "horizon must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()
    for overrides in ({"horizon": 2.5}, {"seed": 2.7}, {"seed": True}):
        with pytest.raises(ConfigError, match="must be an integer >= 0"):
            cli.cmd_simulate(replace(load(cfg_path), out=str(out), **overrides))
    assert not (out / "trace.csv").exists()


def test_cli_sweep_outputs_monotone_logdet(tmp_path):
    cfg_path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "sweep"
    code = main(["sweep-epsilon", "--config", cfg_path, "--grid", "0.3,1.0,3.0",
                 "--seeds", "2", "--steps", "40", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("epsilon,sigma,mean_cost,logdet_cov,"
                        "entropy_bound,condition_margin")
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    eps = [float(r["epsilon"]) for r in rows]
    lds = [float(r["logdet_cov"]) for r in rows]
    sigmas = [float(r["sigma"]) for r in rows]
    assert eps == [0.3, 1.0, 3.0]
    assert all(a > b for a, b in zip(lds, lds[1:]))
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def test_sweep_epsilon_rows_reuse_common_randomness():
    cfg = from_dict(_config_dict())
    rows = sweep_epsilon(replace(cfg, horizon=25), grid=[0.5, 2.0], n_seeds=2)
    assert [r["epsilon"] for r in rows] == [0.5, 2.0]
    # tighter privacy costs more, in this plant, at these settings
    assert rows[0]["mean_cost"] > rows[1]["mean_cost"]
    assert rows[0]["logdet_cov"] > rows[1]["logdet_cov"]


def test_sweep_solves_control_once_and_filter_once_per_epsilon(monkeypatch):
    # Privacy enters only through sigma, so the sweep assembles the network
    # once; the feedback gain does not depend on epsilon (separation), and
    # each epsilon's filter solve also serves its entropy report.
    calls = {"assemble_network": 0, "solve_dare_control": 0,
             "solve_dare_filter": 0}

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return wrapper

    for module, name, call in (
            (cli, "assemble_network", network.assemble_network),
            (cli, "solve_dare_control", riccati.solve_dare_control),
            (cli, "solve_dare_filter", riccati.solve_dare_filter),
            (lqg, "solve_dare_control", riccati.solve_dare_control),
            (lqg, "solve_dare_filter", riccati.solve_dare_filter),
            (bounds, "solve_dare_filter", riccati.solve_dare_filter)):
        monkeypatch.setattr(module, name, counted(name, call))
    cfg = load(CONFIG_DIR / "sweep_4agent.json")
    sweep_epsilon(replace(cfg, horizon=1), DEFAULT_SWEEP_GRID, n_seeds=1)
    assert calls == {"assemble_network": 1, "solve_dare_control": 1,
                     "solve_dare_filter": len(DEFAULT_SWEEP_GRID)}


def _reference_sweep(cfg, grid, n_seeds, steps, seed):
    """The sweep as one run_simulation per (epsilon, seed), kept as the
    oracle for sweep_epsilon's rows."""
    Q, R = resolve_costs(cfg, seed=seed)
    rows = []
    for eps in grid:
        agents = [replace(ag, privacy=replace(ag.privacy, epsilon=eps))
                  for ag in cfg.agents]
        model = assemble_network(agents, Q, R)
        syn = synthesize(model)
        report = entropy_bound_report(model.A, model.W, model.C, model.V,
                                      Sigma=syn.Sigma)
        costs = [run_simulation(model, agents, steps, seed + j,
                                synthesis=syn).avg_cost[-1]
                 for j in range(n_seeds)]
        rows.append({
            "epsilon": eps,
            "sigma": model.sigmas[0],
            "mean_cost": float(np.mean(costs)),
            "logdet_cov": logdet(syn.Sigma),
            "entropy_bound": (
                report.entropy_bound if report.condition_holds else math.nan
            ),
            "condition_margin": report.condition_margin,
        })
    return rows


def test_sweep_rows_match_one_run_per_epsilon_and_seed():
    # One lockstep batch per seed must give every row the bits of the
    # per-(epsilon, seed) runs, across a chunk boundary, from the config's
    # master seed and from an override.
    cfg = load(CONFIG_DIR / "sweep_4agent.json")
    grid, steps = [0.05, 0.5, 5.0], SIM_CHUNK_STEPS + 1
    for seed in (cfg.seed, 20):
        rows = sweep_epsilon(replace(cfg, horizon=steps, seed=seed), grid, n_seeds=3)
        expected = _reference_sweep(cfg, grid, 3, steps, seed)
        assert [list(row) for row in rows] == [list(row) for row in expected]
        assert ([[repr(v) for v in row.values()] for row in rows]
                == [[repr(v) for v in row.values()] for row in expected])


def test_sweep_draws_each_seeds_noise_once(monkeypatch):
    # A seed's noise does not depend on epsilon, so the sweep opens each
    # agent's process and privacy streams once per seed, not once per run.
    kinds = []

    def counted(seed, entity, kind):
        kinds.append(kind)
        return derive_stream(seed, entity, kind)

    derive_stream = network.derive_stream
    monkeypatch.setattr(network, "derive_stream", counted)
    cfg = load(CONFIG_DIR / "sweep_4agent.json")
    sweep_epsilon(replace(cfg, horizon=1), DEFAULT_SWEEP_GRID, n_seeds=2)
    N = len(cfg.agents)
    assert kinds.count(PROCESS_NOISE) == kinds.count(PRIVACY_NOISE) == 2 * N


def test_sweep_epsilon_rejects_bad_grid():
    cfg = from_dict(_config_dict())
    with pytest.raises(ConfigError):
        sweep_epsilon(cfg, grid=[], n_seeds=1)
    with pytest.raises(ConfigError):
        sweep_epsilon(cfg, grid=[-1.0], n_seeds=1)
    with pytest.raises(ConfigError):
        sweep_epsilon(cfg, grid=[1.0], n_seeds=0)
    # counts are integers, not truncated floats
    with pytest.raises(ConfigError, match="--seeds must be an integer"):
        sweep_epsilon(cfg, grid=[1.0], n_seeds=1.9)
    with pytest.raises(ConfigError, match="horizon must be an integer"):
        sweep_epsilon(replace(cfg, horizon=2.5), grid=[1.0], n_seeds=1)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        sweep_epsilon(replace(cfg, seed=2.7), grid=[1.0], n_seeds=1)
    # 2 epsilon overflows, kappa overflows, or epsilon is not finite
    for eps in (1e308, 1e-320, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            sweep_epsilon(cfg, grid=[1.0, eps], n_seeds=1)
    assert len(DEFAULT_SWEEP_GRID) >= 4


def test_cli_bound_applicable_and_not(tmp_path):
    # stable scalar agent with loose privacy: cap applies
    good = _config_dict(agents=[_agent_dict(
        A=[[0.5]], B=[[1.0]], W=[[1.0]], epsilon=3.0, delta=0.5)],
        cost={"Q": [[1.0]], "R": [[1.0]]})
    good_path = _write_config(tmp_path, good, "good.json")
    out = tmp_path / "bnd"
    assert main(["bound", "--config", good_path, "--out", str(out)]) == 0
    text = (out / "bound_report.txt").read_text()
    assert "status = applicable" in text
    assert "entropy_bound = " in text

    # tight privacy on a marginally stable plant: cap does not apply
    bad = _config_dict()
    bad["agents"][0]["epsilon"] = 0.1
    bad["agents"][0]["delta"] = 0.01
    bad_path = _write_config(tmp_path, bad, "bad.json")
    out2 = tmp_path / "bnd2"
    assert main(["bound", "--config", bad_path, "--out", str(out2)]) == 5
    assert (out2 / "bound_report.txt").read_text().splitlines() == [
        "status = inapplicable",
        "condition_holds = false",
        "condition_margin = -0.1025788795076612",
        "variance_floor = 1.4032362393510973",
        "posterior_floor_diag = 0.9981888785356193, 0.9981888785356193",
    ]

    # the shipped case study is inapplicable too; its report is pinned bytewise
    out3 = tmp_path / "bnd3"
    case_study = str(CONFIG_DIR / "case_study_2agent.json")
    assert main(["bound", "--config", case_study, "--out", str(out3)]) == 5
    assert (out3 / "bound_report.txt").read_bytes() == CASE_STUDY_BOUND_REPORT


def _run_cli_module(argv, cwd, timeout):
    """`python -m dplqg.cli ARGV` on this checkout's src/, as a process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "dplqg.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_module_bound_in_subprocess(tmp_path):
    # the verb as a process: `python -m dplqg.cli`, exit code and bytes
    out = tmp_path / "bnd"
    proc = _run_cli_module(["bound", "--config", str(CONFIG_DIR / "case_study_2agent.json"),
                            "--out", str(out)], tmp_path, timeout=120)
    assert proc.returncode == 5, proc.stderr
    assert "entropy cap not applicable" in proc.stdout
    assert (out / "bound_report.txt").read_bytes() == CASE_STUDY_BOUND_REPORT


@pytest.mark.parametrize("verb", ["simulate", "sweep-epsilon"])
def test_a_horizon_beyond_any_array_length_exits_2_naming_it(verb, tmp_path):
    # A JSON horizon is any integer >= 0, but no array or chunk loop takes
    # one above np.intp's maximum: the verb exits 2 naming the horizon. It
    # runs as a process with a timeout, so a sweep that steps chunks
    # without end fails instead of hanging.
    raw = json.loads((CONFIG_DIR / "sweep_4agent.json").read_text())
    raw["horizon"] = 10**400
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(raw))
    argv = [verb, "--config", str(config), "--out", str(tmp_path / "out")]
    if verb == "sweep-epsilon":
        argv += ["--grid", "1.0", "--seeds", "1"]
    proc = _run_cli_module(argv, tmp_path, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert re.search(rf"^error: horizon must be at most {np.iinfo(np.intp).max}\b",
                     proc.stderr, re.M), proc.stderr


def test_cli_exit_code_invalid_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    assert main(["synthesize", "--config", str(path)]) == 2

    unknown = _write_config(tmp_path, _config_dict(surprise=1), "unknown.json")
    assert main(["synthesize", "--config", unknown]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["synthesize", "--config", missing]) == 2

    cfg_path = _write_config(tmp_path, _config_dict())
    assert main(["sweep-epsilon", "--config", cfg_path, "--grid", "a,b",
                 "--out", str(tmp_path / "x")]) == 2
    for grid in ("1e308", "1e-320", "inf"):
        capsys.readouterr()
        assert main(["sweep-epsilon", "--config", cfg_path, "--grid", grid,
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: epsilon")
    assert main(["sweep-epsilon", "--config", cfg_path, "--steps", "0",
                 "--out", str(tmp_path / "x")]) == 2
    assert "sweep needs at least one simulation step" in capsys.readouterr().err

    for verb in ("synthesize", "simulate", "sweep-epsilon"):
        capsys.readouterr()
        assert main([verb, "--config", cfg_path, "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    # an only agent with no inputs leaves an empty R, which is named
    raw = _config_dict(agents=[_agent_dict(B=[[], []])],
                       cost={"Q": [[1.0, 0.0], [0.0, 1.0]], "R": {"random_pd": {}}})
    no_input = _write_config(tmp_path, raw, "no_input.json")
    assert main(["synthesize", "--config", no_input, "--out", str(tmp_path / "x")]) == 2
    assert "R must have at least one row, got shape (0, 0)" in capsys.readouterr().err


# per field: bad values and the error each names, a non-finite number, a
# JSON integer beyond the double range (401 digits), and a JSON string or
# bool where a number belongs (never converted), or a vector given as rows
# (never flattened)
_BAD_NUMBERS = {
    "x0_mean": [([float("inf"), 0.0], "x0_mean must be finite"),
                (["1", "0"], "agents[0].x0_mean: not a numeric vector"),
                ([[0.0], [0.0]], "x0_mean must have shape (2,), got (2, 1)")],
    "A": [([[float("nan"), 0.1], [0.0, 1.0]], "A must be finite"),
          ([["1", "0.1"], ["0", "1"]], "agents[0].A: not a numeric matrix"),
          ([[True, 0.1], [0, 1]], "agents[0].A: not a numeric matrix"),
          ([[True, False], [False, True]], "agents[0].A: not a numeric matrix"),
          ([[10**400, 0.1], [0, 1]], "agents[0].A: not a numeric matrix")],
    "epsilon": [(True, "epsilon must be a real number, got True"),
                (10**400, "epsilon must be within the double range"),
                ("0.1", "epsilon must be a real number, got '0.1'")],
    "delta": [("0.01", "delta must be a real number, got '0.01'")],
    "adjacency_bound": [("1e0", "adjacency_bound must be a real number, got '1e0'")],
    "Q": [([["1", "0"], ["0", "1"]], "cost.Q: not a numeric matrix")],
}


@pytest.mark.parametrize("field", ["x0_mean", "A", "epsilon", "delta", "adjacency_bound", "Q"])
def test_config_rejects_non_finite_agent_numbers(tmp_path, capsys, field):
    for value, message in _BAD_NUMBERS[field]:
        raw = (_config_dict(cost={"Q": value, "R": [[1.0]]}) if field == "Q"
               else _config_dict(agents=[_agent_dict(**{field: value})]))
        path = _write_config(tmp_path, raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load(path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "trace.csv").exists()
    # JSON integers are numbers
    ag = from_dict(_config_dict(agents=[_agent_dict(
        A=[[1, 0], [0, 1]], epsilon=1, adjacency_bound=2)])).agents[0]
    assert np.array_equal(ag.A, np.eye(2))
    assert (ag.privacy.epsilon, ag.privacy.adjacency_bound) == (1.0, 2.0)


@pytest.mark.parametrize("verb", ["synthesize", "simulate", "bound", "sweep-epsilon"])
def test_cli_rejects_asymmetric_x0_cov(tmp_path, capsys, verb):
    raw = _config_dict(agents=[_agent_dict(x0_cov=[[1.0, 0.5], [0.0, 1.0]])])
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    assert "x0_cov: covariance must be symmetric" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["simulate", "sweep-epsilon"])
def test_cli_rejects_non_finite_cost(tmp_path, capsys, verb):
    raw = _config_dict(cost={"Q": [[1.0, 0.0], [0.0, float("-inf")]], "R": [[1.0]]})
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    assert "Q must be finite" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


def test_cli_exit_code_assumption_failure(tmp_path):
    raw = _config_dict(agents=[_agent_dict(A=[[1.0]], B=[[0.0]], W=[[1.0]])],
                       cost={"Q": [[1.0]], "R": [[1.0]]})
    path = _write_config(tmp_path, raw)
    assert main(["synthesize", "--config", path,
                 "--out", str(tmp_path / "y")]) == 3


def test_cli_exit_code_nonconvergence(tmp_path, monkeypatch):
    monkeypatch.setattr(riccati, "MAX_ITERATIONS", 2)
    cfg_path = _write_config(tmp_path, _config_dict())
    assert main(["synthesize", "--config", cfg_path,
                 "--out", str(tmp_path / "z")]) == 4


def test_cli_exit_code_non_finite_iterate(tmp_path, capsys):
    # A^T X A overflows: the control solve stops at step 1, not after
    # MAX_ITERATIONS, and the verb still exits 4
    raw = _config_dict(agents=[_agent_dict(A=[[1e200]], B=[[1.0]], W=[[1.0]])],
                       cost={"Q": [[1.0]], "R": [[1.0]]})
    path = _write_config(tmp_path, raw)
    with np.errstate(all="ignore"):
        assert main(["synthesize", "--config", path,
                     "--out", str(tmp_path / "z")]) == 4
    assert "iterate not finite at step 1" in capsys.readouterr().err


def test_console_script_entry_point_resolves():
    # The installed console script runs (next test) only where it is on PATH;
    # its entry point, as pyproject.toml declares it, is checked everywhere.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"dplqg": "dplqg.cli:main"}
    module, _, attr = scripts["dplqg"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_console_script_installed(tmp_path):
    exe = shutil.which("dplqg")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    cfg_path = _write_config(tmp_path, _config_dict())
    proc = subprocess.run(
        [exe, "synthesize", "--config", cfg_path, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "L.csv").exists()
