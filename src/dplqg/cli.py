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

--out, --steps and --seed replace the config's out, horizon and seed,
under the config's own checks, before any verb runs: every verb reads that
one config, as if the config file held those values.

All outputs are deterministic for a given config and seed: rerunning a verb
with the same inputs on one host rewrites byte-identical files. This module
holds the verbs, the argument parser and the exit codes; the files are
written in the one text format of dplqg.output.
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
from .network import (assemble_network, average_costs, run_simulation, write_messages_csv,
                      write_trace_csv)
from .output import write_kv, write_matrix, write_rows
from .privacy import calibrate_sigma
from .riccati import solve_dare_control, solve_dare_filter

DEFAULT_SWEEP_GRID = (0.1, 0.3, 0.7, 1.2, 2.0, 3.0)
DEFAULT_SWEEP_SEEDS = 10


def _out_dir(cfg):
    out = Path(cfg.out or "results")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synthesize(cfg):
    """Solve both Riccati equations and write gains, covariances, and the
    solvers' own residuals and closed-loop spectral radius."""
    model, _ = build_network(cfg)
    syn = synthesize(model)
    out_dir = _out_dir(cfg)
    write_matrix(syn.K, out_dir / "K.csv")
    write_matrix(syn.L, out_dir / "L.csv")
    write_matrix(syn.Sigma, out_dir / "Sigma.csv")
    write_matrix(syn.SigmaBar, out_dir / "SigmaBar.csv")
    write_matrix(model.V, out_dir / "V.csv")
    write_kv([("control_residual", syn.control_residual),
              ("filter_residual", syn.filter_residual),
              ("closed_loop_spectral_radius", syn.closed_loop_spectral_radius),
              ("logdet_prediction_cov", logdet(syn.Sigma)),
              *((f"sigma_agent{i}", sigma) for i, sigma in enumerate(model.sigmas))],
             out_dir / "synthesis_summary.txt")
    print(f"wrote synthesis results to {out_dir}")
    return 0


def cmd_simulate(cfg):
    """Run the closed loop and write the trace, the wire log, and a summary."""
    model, agents = build_network(cfg)
    syn = synthesize(model)
    trace = run_simulation(model, agents, cfg.horizon, cfg.seed, synthesis=syn)
    out_dir = _out_dir(cfg)
    write_trace_csv(trace, out_dir / "trace.csv")
    write_messages_csv(trace.messages, out_dir / "messages.csv")
    max_norm = float(np.linalg.norm(trace.x, axis=1).max()) if trace.horizon else 0.0
    write_kv([("steps", trace.horizon), ("seed", cfg.seed),
              ("message_count", len(trace.messages)),
              ("final_avg_cost", trace.avg_cost[-1] if trace.horizon else None),
              ("max_state_norm", max_norm), ("logdet_prediction_cov", logdet(syn.Sigma))],
             out_dir / "simulate_summary.txt")
    print(f"wrote simulation results to {out_dir}")
    return 0


def sweep_epsilon(cfg, grid, n_seeds):
    """Rerun the pipeline across privacy levels; returns one row per epsilon.

    Every agent's epsilon is replaced by the grid value (deltas and
    adjacency bounds keep their configured values). Privacy enters the
    model only through the noise scales sigma_i, and the feedback gain
    does not depend on epsilon (separation), so the network is assembled
    and the control Riccati equation solved once; each epsilon re-noises
    the network, replace(model, sigmas=...), and its one filter solve
    also serves its entropy report. The cost matrices are resolved once,
    the noise streams do not depend on epsilon, and seeds run from the
    master seed upward, so rows are directly comparable. The final average
    costs come from dplqg.network.average_costs, which runs the grid's
    (model, filter) pairs as one lockstep batch per seed, one 256-step
    chunk at a time with no horizon cap; mean_cost is their mean over the
    seeds, with the bits of one run_simulation per (epsilon, seed).
    Each row is a dict with keys epsilon, sigma, mean_cost, logdet_cov,
    entropy_bound, condition_margin.
    """
    grid = [float(e) for e in grid]
    if not grid or any(not e > 0.0 for e in grid):
        raise ConfigError("epsilon grid must be non-empty and positive")
    n_seeds = check_count(n_seeds, "--seeds", ConfigError)
    if n_seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if cfg.horizon < 1:
        raise ConfigError("sweep needs at least one simulation step")
    base = assemble_network(cfg.agents, *resolve_costs(cfg))
    control = solve_dare_control(base.A, base.B, base.Q, base.R)
    members = []
    for eps in grid:
        model = replace(base, sigmas=tuple(
            calibrate_sigma(replace(ag.privacy, epsilon=eps), ag.C)
            for ag in cfg.agents))
        filt = solve_dare_filter(base.A, base.C, base.W, model.V)
        report = entropy_bound_report(base.A, base.W, base.C, model.V,
                                      Sigma=filt.Sigma)
        members.append((eps, model, filt, report))
    costs = average_costs([(model, filt) for _, model, filt, _ in members], cfg.agents,
                          cfg.horizon, range(cfg.seed, cfg.seed + n_seeds), control)
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


def cmd_sweep_epsilon(cfg, grid, n_seeds):
    """Run sweep_epsilon and write sweep.csv, one column per key of its rows."""
    rows = sweep_epsilon(cfg, grid, n_seeds)
    out_dir = _out_dir(cfg)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        write_rows(fh, [list(rows[0])])
        write_rows(fh, [range(len(rows[0]))], [list(row.values()) for row in rows])
    print(f"wrote sweep results to {out_dir}")
    return 0


def cmd_bound(cfg):
    """Evaluate the entropy cap; exit 5 (after writing the verdict) if it
    does not apply to this model."""
    model, _ = build_network(cfg)
    out_dir = _out_dir(cfg)
    path = out_dir / "bound_report.txt"
    report = entropy_bound_report(model.A, model.W, model.C, model.V)
    status = "applicable" if report.condition_holds else "inapplicable"
    write_kv([("status", status), *report.kv_pairs()], path)
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
            p.add_argument("--steps", type=int, dest="horizon", metavar="STEPS",
                           help="override the horizon")
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
    overrides = {name: getattr(args, name) for name in ("out", "horizon", "seed")
                 if getattr(args, name, None) is not None}
    try:
        cfg = replace(load(args.config), **overrides)
        if args.command == "sweep-epsilon":
            grid = DEFAULT_SWEEP_GRID
            if args.grid is not None:
                try:
                    grid = [float(v) for v in args.grid.split(",") if v.strip()]
                except ValueError:
                    raise ConfigError(f"bad --grid value: {args.grid!r}") from None
            return cmd_sweep_epsilon(cfg, grid, args.seeds)
        verbs = {"synthesize": cmd_synthesize, "simulate": cmd_simulate, "bound": cmd_bound}
        return verbs[args.command](cfg)
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
