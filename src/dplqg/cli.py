"""Command-line experiment runner.

Verbs:

    dplqg synthesize   --config cfg.json [--seed N] [--out DIR]
    dplqg simulate     --config cfg.json [--steps N] [--seed N] [--out DIR]
    dplqg sweep-epsilon --config cfg.json [--grid LIST] [--seeds N]
                        [--steps N] [--seed N] [--out DIR]
    dplqg bound        --config cfg.json [--out DIR]

Exit codes: 0 success, 2 invalid configuration or arguments, 3 model
assumption failure, 4 Riccati non-convergence, 5 entropy cap inapplicable
(its spectral condition fails). Unexpected internal errors exit 1 with a
traceback.

All outputs are deterministic for a given config and seed: rerunning a verb
with the same inputs rewrites byte-identical files.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import entropy_bound_report, logdet
from .config import build_network, load, resolve_costs
from .errors import AssumptionError, ConfigError, ConvergenceError, check_count
from .lqg import synthesize
from .network import (
    _cells,
    _fmt,
    _lockstep,
    _write_rows,
    assemble_network,
    run_simulation,
    write_messages_csv,
    write_trace_csv,
)
from .privacy import calibrate_sigma
from .riccati import (dare_residual_control, dare_residual_filter, solve_dare_control,
                      solve_dare_filter)

DEFAULT_SWEEP_GRID = (0.1, 0.3, 0.7, 1.2, 2.0, 3.0)
DEFAULT_SWEEP_SEEDS = 10


def _write_matrix(M, path):
    with open(path, "w", newline="") as fh:
        _write_rows(fh, _cells(np.atleast_2d(np.asarray(M, dtype=float))))


def _write_kv(lines, path):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _out_dir(cfg, override):
    out = Path(override if override is not None else (cfg.out or "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synthesize(cfg, out=None, seed=None):
    """Solve both Riccati equations and write gains, covariances, residuals."""
    model, _ = build_network(cfg, seed=seed)
    syn = synthesize(model)
    out_dir = _out_dir(cfg, out)
    _write_matrix(syn.K, out_dir / "K.csv")
    _write_matrix(syn.L, out_dir / "L.csv")
    _write_matrix(syn.Sigma, out_dir / "Sigma.csv")
    _write_matrix(syn.SigmaBar, out_dir / "SigmaBar.csv")
    _write_matrix(model.V, out_dir / "V.csv")
    closed = model.A + model.B @ syn.L
    lines = [
        f"control_residual = {_fmt(dare_residual_control(syn.K, model.A, model.B, model.Q, model.R))}",
        f"filter_residual = {_fmt(dare_residual_filter(syn.Sigma, model.A, model.C, model.W, model.V))}",
        f"closed_loop_spectral_radius = {_fmt(np.abs(np.linalg.eigvals(closed)).max())}",
        f"logdet_prediction_cov = {_fmt(logdet(syn.Sigma))}",
    ]
    for i, sigma in enumerate(model.sigmas):
        lines.append(f"sigma_agent{i} = {_fmt(sigma)}")
    _write_kv(lines, out_dir / "synthesis_summary.txt")
    print(f"wrote synthesis results to {out_dir}")
    return 0


def cmd_simulate(cfg, out=None, steps=None, seed=None):
    """Run the closed loop and write the trace, the wire log, and a summary.

    The horizon and seed overrides are checked before anything is solved."""
    master_seed = cfg.seed if seed is None else check_count(seed, "seed", ConfigError)
    horizon = cfg.horizon if steps is None else check_count(steps, "steps", ConfigError)
    model, agents = build_network(cfg, seed=master_seed)
    syn = synthesize(model)
    trace = run_simulation(model, agents, horizon, master_seed, synthesis=syn)
    out_dir = _out_dir(cfg, out)
    write_trace_csv(trace, out_dir / "trace.csv")
    write_messages_csv(trace.messages, out_dir / "messages.csv")
    max_norm = (
        float(np.linalg.norm(trace.x, axis=1).max()) if trace.horizon else 0.0
    )
    lines = [
        f"steps = {trace.horizon}",
        f"seed = {master_seed}",
        f"message_count = {len(trace.messages)}",
        f"final_avg_cost = {_fmt(trace.avg_cost[-1]) if trace.horizon else 'none'}",
        f"max_state_norm = {_fmt(max_norm)}",
        f"logdet_prediction_cov = {_fmt(logdet(syn.Sigma))}",
    ]
    _write_kv(lines, out_dir / "simulate_summary.txt")
    print(f"wrote simulation results to {out_dir}")
    return 0


def sweep_epsilon(cfg, grid, n_seeds, steps=None, seed=None):
    """Rerun the pipeline across privacy levels; returns one row per epsilon.

    Every agent's epsilon is replaced by the grid value (deltas and
    adjacency bounds keep their configured values). Privacy enters the
    model only through the noise scales sigma_i, and the feedback gain
    does not depend on epsilon (separation), so the network is assembled
    and the control Riccati equation solved once; each epsilon re-noises
    the network, replace(model, sigmas=...), and its one filter solve
    also serves its entropy report. The cost matrices are resolved once,
    the noise streams do not depend on epsilon, and seeds run from the
    master seed upward, so rows are directly comparable. Each seed runs
    the whole grid as one lockstep batch (dplqg.network._lockstep), which
    draws the seed's noise once, and keeps of each run only its final
    average cost; mean_cost is the mean of those over the seeds, with the
    bits of one run_simulation per (epsilon, seed).
    Each row is a dict with keys epsilon, sigma, mean_cost, logdet_cov,
    entropy_bound, condition_margin.
    """
    grid = [float(e) for e in grid]
    if not grid or any(not e > 0.0 for e in grid):
        raise ConfigError("epsilon grid must be non-empty and positive")
    n_seeds = check_count(n_seeds, "--seeds", ConfigError)
    if n_seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    horizon = cfg.horizon if steps is None else check_count(steps, "steps", ConfigError)
    if horizon < 1:
        raise ConfigError("sweep needs at least one simulation step")
    base_seed = cfg.seed if seed is None else check_count(seed, "seed", ConfigError)
    Q, R = resolve_costs(cfg, seed=base_seed)
    base = assemble_network(cfg.agents, Q, R)
    control = solve_dare_control(base.A, base.B, base.Q, base.R)
    members = []
    for eps in grid:
        model = replace(base, sigmas=tuple(
            calibrate_sigma(replace(ag.privacy, epsilon=eps), ag.C)
            for ag in cfg.agents))
        filt = solve_dare_filter(model.A, model.C, model.W, model.V)
        report = entropy_bound_report(model.A, model.W, model.C, model.V,
                                      Sigma=filt.Sigma)
        members.append((eps, model, filt, report))
    sigmas = [model.sigmas for _, model, _, _ in members]
    gains = [filt.kalman_gain for _, _, filt, _ in members]
    costs = np.empty((len(grid), n_seeds))
    for j in range(n_seeds):
        for chunk in _lockstep(base, cfg.agents, horizon, base_seed + j,
                               control.L, sigmas, gains):
            pass  # only the last chunk's average costs are kept
        costs[:, j] = chunk.avg_cost[-1]
    return [
        {
            "epsilon": eps,
            "sigma": model.sigmas[0],
            "mean_cost": float(np.mean(cost)),
            "logdet_cov": logdet(filt.Sigma),
            "entropy_bound": (
                report.entropy_bound if report.condition_holds else math.nan
            ),
            "condition_margin": report.condition_margin,
        }
        for (eps, model, filt, report), cost in zip(members, costs)
    ]


def cmd_sweep_epsilon(cfg, out=None, grid=None, n_seeds=DEFAULT_SWEEP_SEEDS,
                      steps=None, seed=None):
    """Run sweep_epsilon and write sweep.csv."""
    rows = sweep_epsilon(
        cfg,
        DEFAULT_SWEEP_GRID if grid is None else grid,
        n_seeds,
        steps=steps,
        seed=seed,
    )
    out_dir = _out_dir(cfg, out)
    fields = ["epsilon", "sigma", "mean_cost", "logdet_cov",
              "entropy_bound", "condition_margin"]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        _write_rows(fh, [fields] + [[_fmt(row[f]) for f in fields] for row in rows])
    print(f"wrote sweep results to {out_dir}")
    return 0


def cmd_bound(cfg, out=None):
    """Evaluate the entropy cap; exit 5 (after writing the verdict) if it
    does not apply to this model."""
    model, _ = build_network(cfg)
    out_dir = _out_dir(cfg, out)
    path = out_dir / "bound_report.txt"
    report = entropy_bound_report(model.A, model.W, model.C, model.V)
    status = "applicable" if report.condition_holds else "inapplicable"
    _write_kv([f"status = {status}"] + report.kv_lines(), path)
    if not report.condition_holds:
        print(f"entropy cap not applicable "
              f"(margin {report.condition_margin:.6g}); verdict written to {path}")
        return 5
    print(f"wrote entropy bound report to {path}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dplqg",
        description="Privacy-calibrated cloud LQG: synthesis, simulation, "
                    "privacy sweeps, and entropy bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=False, seed=True, grid=False):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output directory (default: config's "
                                     "'out' or ./results)")
        if steps:
            p.add_argument("--steps", type=int, help="override the horizon")
        if seed:
            p.add_argument("--seed", type=int, help="override the master seed")
        if grid:
            p.add_argument("--grid", help="comma-separated epsilon values "
                                          "(default %s)" % ",".join(
                                              str(e) for e in DEFAULT_SWEEP_GRID))
            p.add_argument("--seeds", type=int, default=DEFAULT_SWEEP_SEEDS,
                           help="number of Monte Carlo seeds per epsilon")

    common(sub.add_parser("synthesize", help="solve the Riccati equations "
                                             "and write gains/covariances"))
    common(sub.add_parser("simulate", help="run the closed loop and write "
                                           "trace + wire log"), steps=True)
    common(sub.add_parser("sweep-epsilon", help="rerun across privacy levels"),
           steps=True, grid=True)
    common(sub.add_parser("bound", help="evaluate the estimation-entropy cap"),
           seed=False)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load(args.config)
        if args.command == "synthesize":
            return cmd_synthesize(cfg, out=args.out, seed=args.seed)
        if args.command == "simulate":
            return cmd_simulate(cfg, out=args.out, steps=args.steps,
                                seed=args.seed)
        if args.command == "sweep-epsilon":
            grid = None
            if args.grid is not None:
                try:
                    grid = [float(v) for v in args.grid.split(",") if v.strip()]
                except ValueError:
                    raise ConfigError(f"bad --grid value: {args.grid!r}") from None
            return cmd_sweep_epsilon(cfg, out=args.out, grid=grid,
                                     n_seeds=args.seeds, steps=args.steps,
                                     seed=args.seed)
        if args.command == "bound":
            return cmd_bound(cfg, out=args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"error: model assumption fails: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: Riccati solve failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
