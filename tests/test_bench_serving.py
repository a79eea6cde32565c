"""The committed serving trajectory, ``BENCH_serving.json``, stays valid.

Runs the schema check that CI runs as ``tools/bench_serving.py
check``, plus the checker's own failure cases: a checker that accepts
anything would pass forever.
"""

import copy
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_serving  # noqa: E402


def _trajectory():
    return json.loads((REPO_ROOT / "BENCH_serving.json").read_text())


def test_committed_trajectory_is_valid():
    assert bench_serving.problems(_trajectory()) == []


def test_every_gated_workload_and_metric_is_required():
    trajectory = _trajectory()
    broken = copy.deepcopy(trajectory)
    del broken["entries"][0]["workloads"]["bulk-wire"]
    assert any("bulk-wire missing" in p for p in bench_serving.problems(broken))
    broken = copy.deepcopy(trajectory)
    cell = broken["entries"][0]["workloads"]["bulk-inproc"]["change"]
    del cell["words_per_s"]
    assert any("words_per_s" in p for p in bench_serving.problems(broken))


def test_quartiles_must_bracket_the_median():
    broken = _trajectory()
    stats = broken["entries"][0]["workloads"]["cluster-bulk"]["parent"]["p50_ms"]
    stats["q1"], stats["q3"] = stats["median"] + 1, stats["median"] - 1
    assert bench_serving.problems(broken)


def test_entries_name_commits_and_traces():
    broken = _trajectory()
    entry = broken["entries"][0]
    entry["parent"] = "HEAD~1"
    entry["workloads"]["bulk-inproc"]["parent"]["trace"] = {}
    problems = bench_serving.problems(broken)
    assert any("parent is not a commit hash" in p for p in problems)
    assert any("traced layer seconds" in p for p in problems)
    assert bench_serving.problems({"entries": []}) == ["no entries"]
