"""Smoke tests of the benchmark itself, at tiny sizes. They are not part of
the library's test suite; run them with

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = replace(
    workloads.SIZES, seconds=0.3, campaign_instances=3,
    trace_campaign_instances=2, large_bounds=(6, 4, 8),
    trace_large_instances=2, sample_outcomes=3, sample_grid_points=3,
    sample_draws=200_000, cli_bounds=(4, 4, 6),
    cli_instances=4, trace_cli_requests=9)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path / "docs"


def test_spec_names_match_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == (
        spans.per_layer_metrics())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_for_every_workload(name, work_dir):
    workload = workloads.WORKLOADS[name]
    m, metrics = run.timed_run(workload, 3, TINY, TINY.seconds, work_dir)
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert m.attempted >= 1 and m.failed == 0
    assert all(value > 0 for value, _ in metrics.values())

    first, traced = run.trace_run(workload, 3, TINY, work_dir, "a")
    assert list(traced) == [name for name, _ in spans.per_layer_metrics()]
    assert first.attempted >= 2 and first.failed == 0
    _, again = run.trace_run(workload, 3, TINY, work_dir, "b")
    assert spans.count_mismatches(traced, again) == []


def test_planted_wrong_answer_counts_as_failure(work_dir, monkeypatch):
    workload = workloads.WORKLOADS["cli-requests"]
    oracle = workloads._oracle

    def wrong(inst, corrupt, kind):
        want = oracle(inst, corrupt, kind)
        return want + 1 if kind == "payoff" else want

    monkeypatch.setattr(workloads, "_oracle", wrong)
    inputs = workload.build(5, TINY, work_dir)
    m = workload.trace_pass(inputs, None)
    assert m.failed == 1 and m.failed / m.attempted > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fuzz-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
