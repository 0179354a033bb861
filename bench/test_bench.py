"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root:

    python -m pytest -q bench/test_bench.py

Outputs go to pytest's temporary directories, never to results/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, out, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _results_listing():
    results = ROOT / "results"
    if not results.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in results.iterdir()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    before = _results_listing()
    proc = _bench(ROOT, tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    # readable report: "metric <name> = <value> <unit> ..."
    printed = {line.split()[1]: line.split()[4]
               for line in lines if line.startswith("metric ")}
    listed = SPEC["end_to_end"] + (SPEC["per_layer"] if trace else [])
    for m in listed:
        assert printed.get(m["name"]) == m["unit"], m["name"]
    assert printed.get("failure_rate") == "ratio"
    assert (tmp_path / "result.json").is_file()
    assert _results_listing() == before


def test_failure_rate_is_the_known_defect_share_on_design64(tmp_path):
    proc = _bench(ROOT, tmp_path, "design64", 0)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "result.json").read_text())
    probes = report["known_defects"]
    assert [p["check"] for p in probes] == [
        "known defect: block network of controllable agents assembles"]
    assert any(line.startswith("known_defect ") for line in proc.stdout.splitlines())
    attempted = json.loads(proc.stdout.splitlines()[-1])["attempted"]
    failed = sum(not p["ok"] for p in probes)
    assert report["end_to_end"]["failure_rate"] == failed / (attempted + len(probes))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, tmp_path / "out", WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
