"""Benchmark of the private cloud-LQG loop in dplqg.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep4 --seed 0 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* sweep4       the sweep-epsilon verb on configs/sweep_4agent.json: 6
               epsilons x 1 seed x 2500 steps x 4 agents per repetition;
* simulate_io2 the calls of the simulate verb on
               configs/case_study_2agent.json at 20 000 steps, writing
               trace.csv and messages.csv, then an eavesdropper's replay
               of the wire log;
* design64     the synthesize and bound verbs on 64 agents with per-agent
               (epsilon, delta) drawn from the seed, then one privacy audit
               per agent. No simulation.

The seed makes the inputs; the package only sees the generated config.
Each workload runs in fresh processes with OMP_NUM_THREADS=1: the
measuring process sets up (import, config parse, input generation) and
repeats the workload for --seconds; SETUP_SAMPLES - 1 more processes only
set up, half of them before the measuring process and half after, so that
the samples spread over the run. setup_s is the median over all of them;
it counts from the first statement of bench/measure.py, so the interpreter's
own start-up is not in it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (see bench/measure.py for
how spans and probes give them). The lines before it are the readable
report: every metric by name and unit, provenance, failed checks and the
reproducibility digest. Outputs go under bench/out/ unless --out is given;
the full report is written there as result.json, and spans as spans.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep4", "simulate_io2", "design64")
SETUP_SAMPLES = 7
DEADLINE_S = 175.0


def _child(cmd, env, deadline):
    """Run one measuring process to completion; returns its stdout lines."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError("measuring process printed nothing")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes for the benchmark's own test")
    parser.add_argument("--out", help="output directory (default bench/out/...)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "dplqg" / "__init__.py").is_file():
        print("error: src/dplqg not found; run from the root of a dplqg "
              "checkout", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else (
        root / "bench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(Path(__file__).with_name("measure.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--out", str(out)]
    def setup_samples(count):
        return [json.loads(_child(cmd + ["--phase", "setup"], env, deadline)[-1])
                ["setup_s"] for _ in range(count)]

    try:
        setup = setup_samples((SETUP_SAMPLES - 1) // 2)
        lines = _child(cmd + ["--phase", "measure", "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], env, deadline)
        final = json.loads(lines[-1])
        setup += setup_samples(SETUP_SAMPLES - 1 - len(setup))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup.append(final["setup_s"])
    setup_s = statistics.median(setup)
    result = final["result"]
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    report = dict(final["report"], setup_s_samples=setup, result=result)
    (out / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    for line in lines[:-1]:
        print(line)
    print(f"metric setup_s = {setup_s:.6g} s  (median of {len(setup)} fresh "
          "processes: import, config parse, input generation)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
