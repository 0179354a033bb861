"""One measured run of one benchmark workload, in a fresh process.

bench/run.py starts this file with OMP_NUM_THREADS=1 and PYTHONPATH=src;
see run.py for the command line and the result format. Two phases:

* ``--phase setup`` imports the package, generates the workload's inputs
  from the seed and prints {"setup_s": ...}. run.py starts several of these
  so that setup_s is a median over fresh processes.
* ``--phase measure`` sets up the same way, then repeats the workload's
  unit of work until ``--seconds`` have passed and prints the readable
  report followed by one JSON line for run.py.

The package is called only through its public functions and the CLI's
``main(argv)``. Timing is plain ``time.perf_counter``.

With ``--trace 1`` every repetition also runs a traced pipeline: the same
public functions the verbs call, one by one and in the verbs' order, each
wrapped in a span kept in memory (name, start, end, parent, run id). After
the pipeline, probes time the inner calls a span hides (noise calibration
and rank checks inside assembly, the two Riccati solves inside synthesis
and the entropy report, the Gaussian draws inside the simulation), so that
each layer's self time can be split out. Spans are written to spans.jsonl
at the end. Nothing is traced inside src/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the timed set-up)
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import dplqg
from dplqg import cli
from dplqg.bounds import entropy_bound_report
from dplqg.config import build_network, load, resolve_costs
from dplqg.errors import AssumptionError, InapplicableBoundError
from dplqg.lqg import synthesize
from dplqg.network import (
    AgentModel,
    assemble_network,
    eavesdropper_view,
    replay_estimates,
    run_simulation,
    write_messages_csv,
    write_trace_csv,
)
from dplqg.privacy import (
    PrivacySpec,
    calibrate_sigma,
    sensitivity_bound,
    verify_dp_inequality,
)
from dplqg.riccati import (
    dare_residual_control,
    dare_residual_filter,
    is_controllable,
    is_observable,
    solve_dare_control,
    solve_dare_filter,
)
from dplqg.rng import GaussianStream

BENCH_DIR = Path(__file__).resolve().parent

# Workload sizes. "full" is what BENCHMARK.json measures; "smoke" is the
# tiny size the benchmark's own test runs.
SIZES = {
    "full": {"sweep_steps": 2500, "sweep_seeds": 1, "sim_steps": 20000,
             "design_agents": 64},
    "smoke": {"sweep_steps": 40, "sweep_seeds": 1, "sim_steps": 200,
              "design_agents": 8},
}
# Per-agent privacy ranges for design64. The entropy-cap margin shrinks as
# the noise scale grows, so it is smallest at the (epsilon, delta) corner
# (0.6, 0.05), where it is still +0.039: every draw gives a model whose
# bound verb succeeds.
DESIGN_EPSILON = (0.6, 3.0)
DESIGN_DELTA = (0.05, 0.3)
# design64's Q and R use the sweep config's random_pd recipe seed, not the
# workload seed: the control DARE's iteration count depends on Q and R
# (303-332 over seeds 1-5 at 64 agents), and a seed-dependent amount of
# work would read as run-to-run noise.
DESIGN_COST = {"random_pd": {"seed": 404}}
RESIDUAL_TOL = 1e-9
# Each repetition repeats build_network + synthesize for at least this long.
# The host's speed swings last seconds; a 0.2 s window caught one swing and
# gave synth_s a spread of 0.36-0.48 where wall_s had 0.15-0.25.
SYNTH_MIN_S = 1.0
RNG_PROBE_CALLS = 2000   # standard_normal calls timed by the rng.draw probe
LAYERS = ("bench", "config", "privacy", "riccati", "lqg", "network", "rng",
          "bounds")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Tracer:
    """Spans around calls into the package, kept in memory.

    A disabled tracer records nothing, so the same pipeline code serves the
    untraced and the traced run. A probe span names the pipeline span
    (host) whose interval contains the work it re-measures; weight says how
    many such calls the probe stands for, so host self time shrinks by
    duration * weight and the probe's layer gains it.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.run_id = 0
        self._open = []

    @contextlib.contextmanager
    def span(self, name, host=None, weight=1.0):
        if not self.enabled:
            yield
            return
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "host": host, "weight": weight}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, name, run_id):
        """Sum of duration * weight over the spans called name in one run."""
        return sum(_duration(s) * s["weight"] for s in self.spans
                   if s["name"] == name and s["run"] == run_id)


def _duration(span):
    return span["end"] - span["start"]


def layer_self_times(spans, run_id):
    """Self time per layer (first dotted part of the span name) in one run.

    A pipeline span's self time is its duration minus its children's; a
    probe moves duration * weight from its host's layer to its own. A layer
    that a probe over-estimates is clamped at zero.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        if s["run"] != run_id:
            continue
        layer = s["name"].split(".")[0]
        if s["host"] is None:
            self_s[layer] += _duration(s) - child_time[i]
        else:
            moved = _duration(s) * s["weight"]
            self_s[layer] += moved
            self_s[s["host"].split(".")[0]] -= moved
    return {k: max(v, 0.0) for k, v in self_s.items()}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

class Checks:
    """Correctness gate: every check counts as attempted, failures are kept.

    A check flagged known_defect records a defect the package has today;
    it counts in check_pass_rate but not in the result's failed count.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.known_defects = []   # (name, ok, detail) for every probe made

    def __call__(self, name, ok, detail="", known_defect=False):
        ok = bool(ok)
        if known_defect:
            self.known_defects.append((name, ok, str(detail)))
            return ok
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    @property
    def all_attempted(self):
        return self.attempted + len(self.known_defects)

    @property
    def all_failed(self):
        return len(self.failures) + sum(not ok for _, ok, _ in self.known_defects)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

@dataclass
class Run:
    """State of one measured run: inputs, per-repetition records, checks."""

    workload: str
    seed: int
    size: dict
    work: Path
    tracer: Tracer
    check: Checks = field(default_factory=Checks)
    config: Path = None
    cfg: object = None
    agents: int = 0
    steps: int = 0
    seeds: int = 1
    wall: list = field(default_factory=list)
    synth: list = field(default_factory=list)
    cli: dict = field(default_factory=dict)
    counts: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    synthesis: tuple = None

    def rep_dir(self, name):
        """An empty output directory for this repetition."""
        path = self.work / name
        if path.exists():
            for child in path.iterdir():
                child.unlink()
        path.mkdir(parents=True, exist_ok=True)
        return path


def _shipped_config(name):
    return json.loads((Path("configs") / name).read_text())


def _set_inputs(run, raw, seeds=1):
    run.config = run.work / "input.json"
    run.config.write_text(json.dumps(raw, indent=2) + "\n")
    run.cfg = load(run.config)
    run.agents = len(run.cfg.agents)
    run.steps = run.cfg.horizon
    run.seeds = seeds


def inputs_sweep4(run):
    raw = _shipped_config("sweep_4agent.json")
    raw.update(seed=run.seed, horizon=run.size["sweep_steps"])
    _set_inputs(run, raw, seeds=run.size["sweep_seeds"])


def inputs_simulate_io2(run):
    raw = _shipped_config("case_study_2agent.json")
    raw.update(seed=run.seed, horizon=run.size["sim_steps"])
    _set_inputs(run, raw)


def inputs_design64(run):
    """The sweep agent's dynamics, per-agent (epsilon, delta) from the seed."""
    base = _shipped_config("sweep_4agent.json")["agents"][0]
    rng = np.random.default_rng(run.seed)
    n = run.size["design_agents"]
    eps = rng.uniform(*DESIGN_EPSILON, n)
    delta = rng.uniform(*DESIGN_DELTA, n)
    agents = [dict(base, epsilon=float(e), delta=float(d))
              for e, d in zip(eps, delta)]
    raw = {"agents": agents,
           "cost": {"Q": DESIGN_COST, "R": DESIGN_COST},
           "horizon": 0, "seed": run.seed}
    _set_inputs(run, raw)


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------

def _verb(run, name, argv):
    """Run one CLI verb in-process; returns (exit code, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    run.cli.setdefault(name, []).append(seconds)
    return code, seconds


def _read_csv(path):
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_kv(path):
    if not path.is_file():
        return {}
    pairs = (line.split(" = ", 1) for line in path.read_text().splitlines())
    return {key: value for key, value in pairs}


def _line_count(path):
    if not path.is_file():
        return -1
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _strictly_falls(values):
    return len(values) > 1 and all(a > b for a, b in zip(values, values[1:]))


def _digest(arrays=(), files=(), text=""):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    h.update(text.encode())
    return h.hexdigest()


def _check_synthesis(run, model, syn):
    check = run.check
    res_c = dare_residual_control(syn.K, model.A, model.B, model.Q, model.R)
    res_f = dare_residual_filter(syn.Sigma, model.A, model.C, model.W, model.V)
    radius = float(np.abs(np.linalg.eigvals(model.A + model.B @ syn.L)).max())
    check("control DARE residual <= 1e-9", res_c <= RESIDUAL_TOL, res_c)
    check("filter DARE residual <= 1e-9", res_f <= RESIDUAL_TOL, res_f)
    check("closed-loop spectral radius < 1", radius < 1.0, radius)


def measure_synth(run):
    """Median seconds from parsed config to verified (K, L, Sigma, gain)."""
    samples = []
    stop = time.perf_counter() + SYNTH_MIN_S
    while not samples or time.perf_counter() < stop:
        start = time.perf_counter()
        model, _ = build_network(run.cfg)
        syn = synthesize(model)
        samples.append(time.perf_counter() - start)
    _check_synthesis(run, model, syn)
    run.synthesis = (model, syn)
    return statistics.median(samples)


# Probes: re-time the inner calls that a pipeline span hides, on the same
# inputs, outside the traced pipeline's wall time.

def _probe_assembly(tr, model, agents, weight=1.0):
    with tr.span("privacy.calibrate", host="network.assemble", weight=weight):
        for ag in agents:
            calibrate_sigma(ag.privacy, ag.C)
    with tr.span("riccati.rank_check", host="network.assemble", weight=weight):
        is_controllable(model.A, model.B)
        is_observable(model.A, model.C)


def _probe_synthesis(tr, model):
    with tr.span("riccati.control_dare", host="lqg.synthesize"):
        solve_dare_control(model.A, model.B, model.Q, model.R)
    with tr.span("riccati.filter_dare", host="lqg.synthesize"):
        solve_dare_filter(model.A, model.C, model.W, model.V)


def _probe_report_filter(tr, model):
    """entropy_bound_report solves the filter DARE a second time."""
    with tr.span("riccati.filter_dare", host="bounds.report"):
        solve_dare_filter(model.A, model.C, model.W, model.V)


def _probe_rng(tr, draws, width):
    """Time RNG_PROBE_CALLS draws of one agent's width; weight scales to draws."""
    stream = GaussianStream((0, 0, 0))
    with tr.span("rng.draw", host="network.simulate",
                 weight=draws / RNG_PROBE_CALLS):
        for _ in range(RNG_PROBE_CALLS):
            stream.standard_normal(width)


def _new_counts():
    return {"sim_runs": 0, "wire_messages": 0, "draw_calls": 0,
            "csv_bytes": 0, "audit_calls": 0}


# ----------------------------------------------------------------------
# sweep4: the sweep-epsilon verb, i.e. acceptance test c09's job
# ----------------------------------------------------------------------

def sweep4_unit(run):
    out = run.rep_dir("sweep")
    code, wall = _verb(run, "sweep_epsilon", [
        "sweep-epsilon", "--config", str(run.config), "--seeds", str(run.seeds),
        "--steps", str(run.steps), "--out", str(out)])
    check = run.check
    check("sweep-epsilon exit code 0", code == 0, f"exit {code}")
    rows = _read_csv(out / "sweep.csv")
    check("sweep.csv has one row per epsilon",
          len(rows) == len(cli.DEFAULT_SWEEP_GRID), f"{len(rows)} rows")
    sigma = [float(r["sigma"]) for r in rows]
    logdet_cov = [float(r["logdet_cov"]) for r in rows]
    check("sigma falls as epsilon rises", _strictly_falls(sigma), sigma)
    check("logdet_cov strictly falls as epsilon rises",
          _strictly_falls(logdet_cov), logdet_cov)
    run.digests.append(_digest(files=[out / "sweep.csv"]))
    return wall


def sweep4_traced(run, tr):
    counts = _new_counts()
    models = []
    with tr.span("bench.sweep4"):
        with tr.span("config.load"):
            cfg = load(run.config)
        with tr.span("config.resolve_costs"):
            Q, R = resolve_costs(cfg, seed=cfg.seed)
        for eps in cli.DEFAULT_SWEEP_GRID:
            agents = [replace(ag, privacy=PrivacySpec(
                epsilon=eps, delta=ag.privacy.delta,
                adjacency_bound=ag.privacy.adjacency_bound)) for ag in cfg.agents]
            with tr.span("network.assemble"):
                model = assemble_network(agents, Q, R)
            with tr.span("lqg.synthesize"):
                syn = synthesize(model)
            applicable = True
            with tr.span("bounds.report"):
                try:
                    entropy_bound_report(model.A, model.W, model.C, model.V)
                except InapplicableBoundError:
                    applicable = False
            for j in range(run.seeds):
                with tr.span("network.simulate"):
                    trace = run_simulation(model, agents, run.steps,
                                           cfg.seed + j, synthesis=syn)
                counts["sim_runs"] += 1
                counts["wire_messages"] += len(trace.messages)
            models.append((model, agents, applicable))
    for model, agents, applicable in models:
        _probe_assembly(tr, model, agents)
        _probe_synthesis(tr, model)
        if applicable:
            _probe_report_filter(tr, model)
    counts["draw_calls"] = 2 * run.agents * run.steps * counts["sim_runs"]
    _probe_rng(tr, counts["draw_calls"], cfg.agents[0].n)
    run.counts.append(counts)


# ----------------------------------------------------------------------
# simulate_io2: the simulate verb's calls, with the wire log written and
# replayed by an eavesdropper
# ----------------------------------------------------------------------

def simulate_io2_pipeline(run, tr, out):
    """What cmd_simulate calls, then replay_estimates on the wire log."""
    with tr.span("bench.simulate_io2"):
        with tr.span("config.load"):
            cfg = load(run.config)
        with tr.span("config.resolve_costs"):
            Q, R = resolve_costs(cfg, seed=cfg.seed)
        with tr.span("network.assemble"):
            model = assemble_network(cfg.agents, Q, R)
        with tr.span("lqg.synthesize"):
            syn = synthesize(model)
        with tr.span("network.simulate"):
            trace = run_simulation(model, cfg.agents, cfg.horizon, cfg.seed,
                                   synthesis=syn)
        with tr.span("network.csv"):
            write_trace_csv(trace, out / "trace.csv")
            write_messages_csv(trace.messages, out / "messages.csv")
        with tr.span("network.replay"):
            replayed = replay_estimates(eavesdropper_view(trace), model,
                                        syn.filter, trace.x_hat0)
    return model, trace, replayed


def _check_wire_log(run, trace, replayed, out):
    check = run.check
    n, t = run.agents, run.steps
    check("replay equals trace.x_hat bit for bit",
          np.array_equal(replayed, trace.x_hat))
    check("wire log has 2 N T messages", len(trace.messages) == 2 * n * t,
          len(trace.messages))
    check("trace.csv has N T rows", _line_count(out / "trace.csv") == n * t + 1)
    check("messages.csv has 2 N T rows",
          _line_count(out / "messages.csv") == 2 * n * t + 1)


def _csv_files(out):
    return [out / "trace.csv", out / "messages.csv"]


def simulate_io2_unit(run):
    out = run.rep_dir("pipeline")
    start = time.perf_counter()
    _, trace, replayed = simulate_io2_pipeline(run, NO_TRACE, out)
    wall = time.perf_counter() - start
    _check_wire_log(run, trace, replayed, out)
    arrays = (trace.x, trace.x_hat, trace.u, trace.y_bar, trace.stage_cost,
              trace.avg_cost, replayed)
    run.digests.append(_digest(arrays=arrays, files=_csv_files(out)))
    return wall


def simulate_io2_traced(run, tr):
    counts = _new_counts()
    out = run.rep_dir("traced")
    model, trace, replayed = simulate_io2_pipeline(run, tr, out)
    _check_wire_log(run, trace, replayed, out)
    counts["sim_runs"] = 1
    counts["wire_messages"] = len(trace.messages)
    counts["draw_calls"] = 2 * run.agents * run.steps
    counts["csv_bytes"] = sum(p.stat().st_size for p in _csv_files(out))
    del trace, replayed   # free the 2 N T messages before the verb makes its own
    _probe_assembly(tr, model, run.cfg.agents)
    _probe_synthesis(tr, model)
    _probe_rng(tr, counts["draw_calls"], run.cfg.agents[0].n)
    run.counts.append(counts)
    verb_out = run.rep_dir("verb")
    code, _ = _verb(run, "simulate", ["simulate", "--config", str(run.config),
                                      "--out", str(verb_out)])
    run.check("simulate exit code 0", code == 0, f"exit {code}")
    run.check("simulate verb writes the same CSV bytes as its calls",
              _digest(files=_csv_files(verb_out)) == _digest(files=_csv_files(out)))


# ----------------------------------------------------------------------
# design64: controller design and audits at 64 agents, no simulation
# ----------------------------------------------------------------------

DESIGN_OUTPUTS = ("K.csv", "L.csv", "Sigma.csv", "SigmaBar.csv", "V.csv",
                  "synthesis_summary.txt", "bound_report.txt")


def _audit_all(agents, sigmas):
    return [verify_dp_inequality(sensitivity_bound(ag.C, ag.privacy.adjacency_bound),
                                 sigma, ag.privacy.epsilon, ag.privacy.delta)
            for ag, sigma in zip(agents, sigmas)]


def design64_unit(run):
    out = run.rep_dir("design")
    cfg_args = ["--config", str(run.config), "--out", str(out)]
    code_s, wall_s = _verb(run, "synthesize", ["synthesize"] + cfg_args)
    code_b, wall_b = _verb(run, "bound", ["bound"] + cfg_args)
    check = run.check
    check("synthesize exit code 0", code_s == 0, f"exit {code_s}")
    check("bound exit code 0", code_b == 0, f"exit {code_b}")
    summary = _read_kv(out / "synthesis_summary.txt")
    sigmas = [float(summary[f"sigma_agent{i}"]) for i in range(run.agents)
              if f"sigma_agent{i}" in summary]
    check("synthesis_summary lists every agent's sigma",
          len(sigmas) == run.agents, f"{len(sigmas)} of {run.agents}")
    for key in ("control_residual", "filter_residual"):
        value = float(summary.get(key, "inf"))
        check(f"synthesis_summary {key} <= 1e-9", value <= RESIDUAL_TOL, value)
    radius = float(summary.get("closed_loop_spectral_radius", "inf"))
    check("synthesis_summary spectral radius < 1", radius < 1.0, radius)
    start = time.perf_counter()
    audits = _audit_all(run.cfg.agents, sigmas)
    wall_a = time.perf_counter() - start
    for i, audit in enumerate(audits):
        check(f"privacy audit agent{i} holds", audit.holds, audit.min_slack)
    slacks = ",".join(repr(a.min_slack) for a in audits)
    run.digests.append(_digest(files=[out / f for f in DESIGN_OUTPUTS],
                               text=slacks))
    return wall_s + wall_b + wall_a


def design64_traced(run, tr):
    """The calls of the synthesize verb, the bound verb and the audits."""
    counts = _new_counts()
    with tr.span("bench.design64"):
        with tr.span("config.load"):
            cfg = load(run.config)
        with tr.span("config.resolve_costs"):
            Q, R = resolve_costs(cfg)
        with tr.span("network.assemble"):
            model = assemble_network(cfg.agents, Q, R)
        with tr.span("lqg.synthesize"):
            syn = synthesize(model)
        with tr.span("riccati.residuals"):
            dare_residual_control(syn.K, model.A, model.B, model.Q, model.R)
            dare_residual_filter(syn.Sigma, model.A, model.C, model.W, model.V)
        with tr.span("config.load"):
            cfg = load(run.config)
        with tr.span("config.resolve_costs"):
            Q, R = resolve_costs(cfg)
        with tr.span("network.assemble"):
            model = assemble_network(cfg.agents, Q, R)
        with tr.span("bounds.report"):
            entropy_bound_report(model.A, model.W, model.C, model.V)
        for ag, sigma in zip(cfg.agents, model.sigmas):
            with tr.span("privacy.audit"):
                _audit_all([ag], [sigma])
    counts["audit_calls"] = len(cfg.agents)
    _probe_assembly(tr, model, cfg.agents, weight=2.0)
    _probe_synthesis(tr, model)
    _probe_report_filter(tr, model)
    _probe_rng(tr, 0, cfg.agents[0].n)
    run.counts.append(counts)


def design64_once(run):
    """Checks made once per run, outside every timed section."""
    model, syn = run.synthesis
    reference = scipy.linalg.solve_discrete_are(model.A, model.B, model.Q, model.R)
    gap = float(np.abs(syn.K - reference).max())
    run.check("K agrees with scipy.linalg.solve_discrete_are",
              np.allclose(syn.K, reference, rtol=1e-7, atol=1e-9), gap)
    known_defect_probe(run)


def known_defect_probe(run):
    """1 stable plus 15 unstable agents, each controllable and observable.

    The network is then controllable and observable as well, so it must
    assemble; the aggregate Krylov rank test rejects it today.
    """
    base = _shipped_config("sweep_4agent.json")["agents"][0]
    stable = AgentModel(A=[[0.5, 0.1], [0.0, 0.5]], B=base["B"], C=base["C"],
                        W=base["W"], privacy=PrivacySpec(epsilon=1.0, delta=0.25),
                        x0_mean=[0.0, 0.0])
    agents = [stable] + [replace(stable, A=[[2.0, 0.1], [0.0, 2.0]])] * 15
    run.check("known-defect network: every agent controllable and observable",
              all(is_controllable(a.A, a.B) and is_observable(a.A, a.C)
                  for a in agents))
    n, m = sum(a.n for a in agents), sum(a.m for a in agents)
    try:
        assemble_network(agents, np.eye(n), np.eye(m))
        ok, detail = True, ""
    except AssumptionError as exc:
        ok, detail = False, f"AssumptionError: {exc}"
    run.check("known defect: block network of controllable agents assembles",
              ok, detail, known_defect=True)


NO_TRACE = Tracer(enabled=False)

WORKLOADS = {
    "sweep4": (inputs_sweep4, sweep4_unit, sweep4_traced, None),
    "simulate_io2": (inputs_simulate_io2, simulate_io2_unit,
                     simulate_io2_traced, None),
    "design64": (inputs_design64, design64_unit, design64_traced, design64_once),
}


# ----------------------------------------------------------------------
# Metrics and report
# ----------------------------------------------------------------------

# Metric values, like spans, are per repetition and reported as the median
# over repetitions; *_s layer metrics are seconds per repetition.
SPAN_METRICS = (
    ("config.load_s", "config.load"),
    ("privacy.calibrate_s", "privacy.calibrate"),
    ("privacy.audit_s", "privacy.audit"),
    ("riccati.rank_check_s", "riccati.rank_check"),
    ("riccati.control_dare_s", "riccati.control_dare"),
    ("riccati.filter_dare_s", "riccati.filter_dare"),
    ("network.assemble_s", "network.assemble"),
    ("lqg.synthesize_s", "lqg.synthesize"),
    ("network.simulate_s", "network.simulate"),
    ("network.replay_s", "network.replay"),
    ("network.csv_s", "network.csv"),
    ("bounds.report_s", "bounds.report"),
)
COMPUTED = ("rng.draw_calls", "network.wire_messages", "network.csv_bytes")


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]


def end_to_end(run):
    attempted, failed = run.check.all_attempted, run.check.all_failed
    return {
        "wall_s": _median(run.wall),
        "synth_s": _median(run.synth),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "check_pass_rate": (attempted - failed) / attempted,
        "failure_rate": failed / attempted,
    }


def per_layer(run):
    tr = run.tracer
    reps = range(len(run.counts))

    def per_rep(name):
        return [tr.totals(name, r) for r in reps]

    m = {metric: _median(per_rep(span)) for metric, span in SPAN_METRICS}
    for metric, key in (("privacy.audit_calls", "audit_calls"),
                        ("rng.draw_calls", "draw_calls"),
                        ("network.wire_messages", "wire_messages"),
                        ("network.csv_bytes", "csv_bytes")):
        m[metric] = _median(c[key] for c in run.counts)
    m["rng.draw_us"] = _median(_duration(s) / RNG_PROBE_CALLS * 1e6
                               for s in tr.spans if s["name"] == "rng.draw")
    runs = [c["sim_runs"] for c in run.counts]
    sim = per_rep("network.simulate")
    m["network.step_us"] = _median(s / (r * run.steps) * 1e6
                                   for s, r in zip(sim, runs) if r)
    m["agent_steps_per_s"] = _median(r * run.agents * run.steps / s
                                     for s, r in zip(sim, runs) if r)
    run_s = [_duration(s) for s in tr.spans if s["name"] == "network.simulate"]
    m["network.run_s.p50"] = _percentile(run_s, 0.5)
    m["network.run_s.p90"] = _percentile(run_s, 0.9)
    m["network.replay_steps_per_s"] = _median(
        run.steps / s for s in per_rep("network.replay") if s > 0)
    m["network.csv_mb_per_s"] = _median(
        c["csv_bytes"] / 1e6 / s
        for c, s in zip(run.counts, per_rep("network.csv")) if s > 0)
    for verb in ("synthesize", "simulate", "sweep_epsilon", "bound"):
        m[f"cli.{verb}_s"] = _median(run.cli.get(verb, []))
    walls = per_rep(f"bench.{run.workload}")
    self_times = [layer_self_times(tr.spans, r) for r in reps]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = _median(st[layer] for st in self_times)
        m[f"share.{layer}"] = _median(st[layer] / w
                                      for st, w in zip(self_times, walls))
    m["trace.wall_s"] = _median(walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - _median(run.wall)
    m["check.known_defect_failures"] = sum(
        not ok for _, ok, _ in run.check.known_defects)
    return m


def provenance(run, scale):
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(Path("src/dplqg").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "workload": run.workload, "seed": run.seed, "scale": scale,
        "agents": run.agents, "steps": run.steps, "seeds": run.seeds,
        "commit": commit, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "riccati_iterations": "not readable from outside the solvers",
    }


def _reference_digest(run, scale):
    if scale != "full":
        return None
    table = json.loads((BENCH_DIR / "digests.json").read_text())
    return table.get(run.workload, {}).get(str(run.seed))


def _check_digests(run, scale):
    first = run.digests[0]
    for i, digest in enumerate(run.digests[1:], 1):
        run.check("repetition reproduces the first bit for bit",
                  digest == first, f"repetition {i}")
    reference = _reference_digest(run, scale)
    if reference is not None:
        run.check("digest matches the committed reference", first == reference,
                  first)
    return first, reference


def _line(name, value, unit, note=""):
    return f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    args = parser.parse_args(argv)

    if Path(dplqg.__file__).resolve().parents[1] != Path("src").resolve():
        print(f"error: dplqg imported from {dplqg.__file__}, not ./src",
              file=sys.stderr)
        return 2
    run = Run(workload=args.workload, seed=args.seed, size=SIZES[args.scale],
              work=Path(args.out) / "work", tracer=Tracer(args.trace == 1))
    run.work.mkdir(parents=True, exist_ok=True)
    make_inputs, unit, traced, once = WORKLOADS[args.workload]
    make_inputs(run)
    setup_s = time.perf_counter() - _T0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Repeat while another repetition of typical length still fits.
    start = time.perf_counter()
    lengths = []
    while not lengths or (time.perf_counter() - start + statistics.median(lengths)
                          <= args.seconds):
        rep_start = time.perf_counter()
        run.tracer.run_id = len(run.wall)
        run.wall.append(unit(run))
        run.synth.append(measure_synth(run))
        if run.tracer.enabled:
            traced(run, run.tracer)
        lengths.append(time.perf_counter() - rep_start)
    measured_s = time.perf_counter() - start
    if once is not None:
        once(run)
    digest, reference = _check_digests(run, args.scale)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(run)
    layers = per_layer(run) if run.tracer.enabled else {}
    prov = provenance(run, args.scale)
    reps = len(run.wall)
    print(f"bench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={reps} measured_s={measured_s:.1f}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name in ("wall_s", "synth_s", "peak_rss_mb", "check_pass_rate"):
        print(_line(name, e2e[name], units[name],
                    f"median of {reps} repetitions" if name.endswith("_s") else ""))
    check = run.check
    print(_line("failure_rate", e2e["failure_rate"], "ratio",
                f"{check.all_failed} failed of {check.all_attempted} checks, "
                "known-defect probe included"))
    for name, value in layers.items():
        print(_line(name, value, units[name],
                    "computed" if name in COMPUTED else ""))
    for name, ok, detail in check.known_defects:
        print(f"known_defect {'PASS' if ok else 'FAIL'} {name}"
              + (f": {detail}" if detail else ""))
    for failure in check.failures:
        print(f"check FAIL {failure}")
    status = "none committed" if reference is None else (
        "match" if digest == reference else "MISMATCH")
    print(f"digest sha256={digest} reference={status}")

    if run.tracer.enabled:
        with open(Path(args.out) / "spans.jsonl", "w") as fh:
            for span in run.tracer.spans:
                fh.write(json.dumps(dict(span, workload=args.workload)) + "\n")
    wanted = spec["per_layer"] if run.tracer.enabled else spec["end_to_end"]
    metrics = {m["name"]: {"value": (e2e | layers)[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] != "setup_s"}
    result = {"correct": not check.failures, "attempted": check.attempted,
              "failed": len(check.failures), "metrics": metrics}
    report = {"provenance": prov, "repetitions": reps, "measured_s": measured_s,
              "wall_s_per_repetition": run.wall, "synth_s_per_repetition": run.synth,
              "end_to_end": e2e, "per_layer": layers, "digest": digest,
              "digest_reference": reference, "failures": check.failures,
              "known_defects": [{"check": name, "ok": ok, "detail": detail}
                                for name, ok, detail in check.known_defects]}
    print(json.dumps({"setup_s": setup_s, "result": result, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
