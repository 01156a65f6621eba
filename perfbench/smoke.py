"""Smoke tests for the benchmark itself, at a tiny scale.

    python3 -m pytest perfbench/smoke.py -q

Run from the root of the repository.  Not collected by the main suite (the
file name does not match ``test_*.py``); each test runs the real harness in
fresh interpreters, so the module takes about 15 seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402  (the harness)
from checks import check_result, check_round_trip  # noqa: E402
from repro.scenarios.registry import build_scenario  # noqa: E402


def harness(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def printed_metrics(stdout):
    """name -> unit for every ``name value unit`` line the harness printed."""
    lines = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            float(parts[1])
            lines[parts[0]] = parts[2]
    return lines


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    completed = harness(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    expected = {name: unit for name, unit, _ in table}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = printed_metrics(completed.stdout)
    assert printed.pop("error_rate") == "ratio"
    assert printed.pop("good_share") == "ratio"
    assert printed == expected
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.unattributed_share"] < 0.05
        assert metrics["trace.overhead"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)


def tiny_result():
    spec = build_scenario(
        "thinner-mega",
        good_clients=60,
        flash_clients=5,
        bad_clients=5,
        capacity_rps=80.0,
        duration=0.3,
        seed=3,
    )
    return spec, spec.run()


def document(problems, fingerprint):
    return {
        "operations": 1,
        "failed": 1 if problems else 0,
        "failures": problems,
        "fingerprint": fingerprint,
    }


def test_a_correct_result_passes_every_check():
    spec, result = tiny_result()
    assert check_result(result, spec) == []
    assert check_round_trip(result) == []


def test_a_broken_result_raises_the_error_rate():
    spec, result = tiny_result()
    good = document([], {"served": result.total_served})
    result.good.served = result.good.issued + 1
    broken = document(check_result(result, spec), {"served": result.total_served})
    attempted, failed, problems = run.tally([good, broken], [])
    assert failed / attempted > 0
    assert any("finished" in problem for problem in problems)


def test_a_broken_round_trip_or_fingerprint_raises_the_error_rate():
    _, result = tiny_result()
    payload = json.loads(result.to_json())
    payload["unknown_key"] = 1
    assert check_round_trip(result, json.dumps(payload)) != []
    attempted, failed, _ = run.tally(
        [document([], {"served": 1}), document([], {"served": 2})], []
    )
    assert failed / attempted > 0


def timed(slices, setup_s=1.0):
    metrics = {name: 1.0 for name, _, _ in run.END_TO_END}
    metrics["setup_s"] = setup_s
    return dict(document([], {"served": 1}), slices=slices, metrics=metrics)


def test_times_sum_each_slices_fastest_repetition():
    documents = [
        timed([["setup", 0.5], ["run", 1.0], ["run", 4.0], ["post", 0.25]], setup_s=0.5),
        timed([["setup", 0.75], ["run", 3.0], ["run", 2.0], ["post", 0.125]], setup_s=0.75),
        timed([["setup", 1.0], ["run", 2.0], ["run", 2.5], ["post", 0.5]], setup_s=1.0),
    ]
    metrics = run.end_to_end_metrics(documents)
    assert metrics["run_s"] == 1.0 + 2.0
    assert metrics["wall_s"] == 0.5 + 1.0 + 2.0 + 0.125
    assert metrics["setup_s"] == 0.75  # a median, not a fastest slice


def test_a_repetition_cut_into_other_slices_fails():
    same = [["setup", 0.5], ["run", 1.0]]
    attempted, failed, problems = run.tally(
        [timed(same), timed(same), timed([["setup", 0.5], ["post", 1.0]])], []
    )
    assert (attempted, failed) == (3, 1)
    assert "other slices" in problems[0]


def test_a_directory_without_the_sources_is_refused():
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    checkout = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkout)
        shutil.copytree(
            HERE,
            os.path.join(checkout, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        completed = harness("auction-mega", 0, cwd=checkout)
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
    finally:
        shutil.rmtree(checkout)
