"""Smoke test of the benchmark itself: ``pytest perf/`` (not tier-1).

``--smoke`` shrinks every workload to scale 0.01 and one replay, so
all four run, untraced and traced, in well under a minute.  The test
checks the output contract -- every metric ``BENCHMARK.json`` declares
is present, finite and carries the declared unit; end-to-end metrics
are non-zero and no two of a workload are the same number; nothing
failed -- and that a wrong committed checksum is reported as failed
ops rather than passing silently.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra):
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload,
         "--seconds", "1", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_declared(result, declared):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        got = metrics[metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    check_declared(result, SPEC["end_to_end"])
    values = [m["value"] for m in result["metrics"].values()]
    assert all(value > 0 for value in values)
    assert len(set(values)) == len(values), "two metrics share a sample"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = run(workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    check_declared(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["trace.coverage"]["value"] > 0.5
    assert metrics["trace.overhead_ratio"]["value"] > 0.5
    assert metrics["core.join.expansions"]["value"] > 0
    # A layer a workload bypasses reads zero there.
    served = workload in ("service_sql_mix", "live_churn")
    assert (metrics["service.http.roundtrip_floor_ms"]["value"] > 0) == served
    assert (metrics["rtree.insert_ms"]["value"] > 0) == (
        workload == "live_churn"
    )
    assert (metrics["core.pqueue.disk_writes"]["value"] > 0) == (
        workload == "join_spill"
    )


def test_wrong_committed_checksum_fails_the_ops(tmp_path):
    expected = json.loads((ROOT / "perf" / "expected.json").read_text())
    assert expected["smoke"]["join_topk"], "no committed smoke checksum"
    expected["smoke"]["join_topk"] = "0" * 40
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    result = run("join_topk", "--expected", str(corrupted))
    assert not result["correct"]
    assert result["failed"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """With only BENCHMARK.json and perf/ present there is no program
    to measure: exit non-zero and print no result."""
    (tmp_path / "perf").mkdir()
    for source in (ROOT / "perf").glob("*.py"):
        (tmp_path / "perf" / source.name).write_text(source.read_text())
    (tmp_path / "perf" / "expected.json").write_text(
        (ROOT / "perf" / "expected.json").read_text()
    )
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "join_topk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
