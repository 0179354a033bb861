"""Tests for config parsing and the command-line verbs.

CLI verbs are exercised in-process through main(argv) so exit codes and
written files can be asserted cheaply. Two subprocess tests run the bound
verb as `python -m dplqg.cli` and check the installed console script.
"""

import json
import os
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


def test_cli_simulate_checks_overrides_before_solving(tmp_path, capsys, monkeypatch):
    # a bad --steps or --seed is rejected before anything is solved
    def unreachable(*args, **kwargs):
        raise AssertionError("synthesize ran before the overrides were checked")

    monkeypatch.setattr(cli, "synthesize", unreachable)
    cfg_path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--steps", "-1",
                 "--out", str(out)]) == 2
    assert "steps must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()
    for overrides in ({"steps": 2.5}, {"seed": 2.7}, {"seed": True}):
        with pytest.raises(ConfigError, match="must be an integer >= 0"):
            cli.cmd_simulate(load(cfg_path), out=str(out), **overrides)
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
    rows = sweep_epsilon(cfg, grid=[0.5, 2.0], n_seeds=2, steps=25)
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
    sweep_epsilon(cfg, DEFAULT_SWEEP_GRID, n_seeds=1, steps=1)
    assert calls == {"assemble_network": 1, "solve_dare_control": 1,
                     "solve_dare_filter": len(DEFAULT_SWEEP_GRID)}


def _reference_sweep(cfg, grid, n_seeds, steps):
    """The sweep as one run_simulation per (epsilon, seed), kept as the
    oracle for sweep_epsilon's rows."""
    Q, R = resolve_costs(cfg, seed=cfg.seed)
    rows = []
    for eps in grid:
        agents = [replace(ag, privacy=replace(ag.privacy, epsilon=eps))
                  for ag in cfg.agents]
        model = assemble_network(agents, Q, R)
        syn = synthesize(model)
        report = entropy_bound_report(model.A, model.W, model.C, model.V,
                                      Sigma=syn.Sigma)
        costs = [run_simulation(model, agents, steps, cfg.seed + j,
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
    # per-(epsilon, seed) runs, across a chunk boundary.
    cfg = load(CONFIG_DIR / "sweep_4agent.json")
    grid, steps = [0.05, 0.5, 5.0], SIM_CHUNK_STEPS + 1
    rows = sweep_epsilon(cfg, grid, n_seeds=3, steps=steps)
    expected = _reference_sweep(cfg, grid, 3, steps)
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
    sweep_epsilon(cfg, DEFAULT_SWEEP_GRID, n_seeds=2, steps=1)
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
    with pytest.raises(ConfigError, match="steps must be an integer"):
        sweep_epsilon(cfg, grid=[1.0], n_seeds=1, steps=2.5)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        sweep_epsilon(cfg, grid=[1.0], n_seeds=1, seed=2.7)
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


def test_cli_module_bound_in_subprocess(tmp_path):
    # the verb as a process: `python -m dplqg.cli`, exit code and bytes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "bnd"
    proc = subprocess.run(
        [sys.executable, "-m", "dplqg.cli", "bound", "--config",
         str(CONFIG_DIR / "case_study_2agent.json"), "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 5, proc.stderr
    assert "entropy cap not applicable" in proc.stdout
    assert (out / "bound_report.txt").read_bytes() == CASE_STUDY_BOUND_REPORT


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

    for verb in ("synthesize", "simulate", "sweep-epsilon"):
        capsys.readouterr()
        assert main([verb, "--config", cfg_path, "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["x0_mean", "A"])
def test_config_rejects_non_finite_agent_numbers(tmp_path, capsys, field):
    values = {"x0_mean": [float("inf"), 0.0], "A": [[float("nan"), 0.1], [0.0, 1.0]]}
    path = _write_config(tmp_path, _config_dict(agents=[_agent_dict(
        **{field: values[field]})]))
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        load(path)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


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
