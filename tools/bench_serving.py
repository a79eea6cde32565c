"""The committed serving-performance trajectory, ``BENCH_serving.json``.

Each perf-relevant change appends one entry: the parent and change
commits, the host slowdown perfbench measured, and for every gated
workload of ``BENCHMARK.json`` the median and interquartile range of
every end-to-end metric on both trees, plus the traced layer seconds
and frames.  Usage, from the repository root::

    # alternating perfbench pairs of two checkouts, one JSON line a run
    python tools/bench_serving.py run OLD_DIR NEW_DIR runs.jsonl \\
        --workload bulk-inproc --seconds 30 --trace 0 --seeds 1 2 3
    # fold the runs into a new entry at the end of BENCH_serving.json
    python tools/bench_serving.py append runs.jsonl --parent COMMIT \\
        --title "what the change did"
    # schema check (CI)
    python tools/bench_serving.py check

An entry names its change ``"self"``: a commit cannot hold its own
hash, so the change is the commit that appends the entry.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_serving.json"
_SLOWDOWN_RE = re.compile(r"host slowdown median ([0-9.]+)")
_COMMIT_RE = re.compile(r"^[0-9a-f]{7,40}$")


def _benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: argparse.Namespace) -> int:
    """Alternate the two trees, flipping which goes first every pair."""
    trees = {"parent": args.old, "change": args.new}
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            started = time.time()
            result = subprocess.run(
                [
                    sys.executable, "perfbench/run.py",
                    "--workload", args.workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ],
                cwd=trees[side], capture_output=True, text=True,
            )
            lines = result.stdout.strip().splitlines()
            record = {
                "side": side, "workload": args.workload, "seed": seed,
                "seconds": args.seconds, "trace": args.trace,
                "returncode": result.returncode,
                "wall_s": time.time() - started,
                "info": lines[-2] if len(lines) > 1 else "",
                "result": json.loads(lines[-1]) if lines else None,
            }
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")
    return 0


def _summary(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def append(args: argparse.Namespace) -> int:
    benchmark = _benchmark()
    runs = [json.loads(line) for line in open(args.runs) if line.strip()]
    slowdowns = [
        float(match.group(1))
        for record in runs
        if (match := _SLOWDOWN_RE.search(record["info"]))
    ]
    workloads: Dict[str, Any] = {}
    for workload in [w["name"] for w in benchmark["workloads"]]:
        timed = [r for r in runs if r["workload"] == workload and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        cell: Dict[str, Any] = {
            "pairs": len(timed) // 2,
            "seeds": sorted({r["seed"] for r in timed}),
            "correct": all(r["result"]["correct"] for r in timed + traced),
        }
        for side in ("parent", "change"):
            results = [r["result"] for r in timed if r["side"] == side]
            cell[side] = {
                metric["name"]: _summary(
                    [res["metrics"][metric["name"]]["value"] for res in results]
                )
                for metric in benchmark["end_to_end"]
            }
            layers = [r["result"]["metrics"] for r in traced if r["side"] == side]
            cell[side]["trace"] = {
                "runs": len(layers),
                "frames": statistics.median(
                    m["backend.frames"]["value"] for m in layers
                ),
                "layers_s": {
                    name: statistics.median(m[name]["value"] for m in layers)
                    for name, spec in layers[0].items()
                    if spec["unit"] == "s"
                },
            }
        workloads[workload] = cell
    entry = {
        "parent": args.parent,
        "change": "self",
        "title": args.title,
        "host_slowdown": _summary(slowdowns),
        "run_seconds": sorted({record["seconds"] for record in runs}),
        "workloads": workloads,
    }
    trajectory = (
        json.loads(TRAJECTORY.read_text())
        if TRAJECTORY.exists()
        else {"schema": 1, "entries": []}
    )
    trajectory["entries"].append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


def problems(trajectory: Any) -> List[str]:
    """Everything wrong with a trajectory document; empty when valid."""
    errors: List[str] = []
    benchmark = _benchmark()
    gated = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    entries = trajectory.get("entries") if isinstance(trajectory, dict) else None
    if not entries or not isinstance(entries, list):
        return ["no entries"]
    for index, entry in enumerate(entries):
        where = f"entry {index}"
        if not _COMMIT_RE.match(str(entry.get("parent"))):
            errors.append(f"{where}: parent is not a commit hash")
        if entry.get("change") != "self" and not _COMMIT_RE.match(
            str(entry.get("change"))
        ):
            errors.append(f"{where}: change is neither 'self' nor a hash")
        slowdown = entry.get("host_slowdown", {})
        if not isinstance(slowdown.get("median"), (int, float)) or not (
            slowdown["median"] > 0
        ):
            errors.append(f"{where}: host_slowdown.median missing")
        for workload in gated:
            cell = entry.get("workloads", {}).get(workload)
            if cell is None:
                errors.append(f"{where}: gated workload {workload} missing")
                continue
            if not isinstance(cell.get("pairs"), int) or cell["pairs"] < 1:
                errors.append(f"{where}/{workload}: no pairs")
            for side in ("parent", "change"):
                values = cell.get(side, {})
                for metric in metrics:
                    stats = values.get(metric, {})
                    try:
                        ordered = stats["q1"] <= stats["median"] <= stats["q3"]
                    except (KeyError, TypeError):
                        ordered = False
                    if not ordered:
                        errors.append(
                            f"{where}/{workload}/{side}: {metric} needs "
                            "q1 <= median <= q3"
                        )
                trace = values.get("trace", {})
                if not trace.get("layers_s") or not trace.get("frames"):
                    errors.append(
                        f"{where}/{workload}/{side}: traced layer seconds "
                        "and frames missing"
                    )
    return errors


def check(args: argparse.Namespace) -> int:
    errors = problems(json.loads(pathlib.Path(args.file).read_text()))
    for error in errors:
        print(f"  - {error}")
    if errors:
        print(f"{len(errors)} problem(s) in {args.file}")
        return 1
    print(f"{args.file}: valid")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="alternating perfbench pairs")
    runner.add_argument("old")
    runner.add_argument("new")
    runner.add_argument("out")
    runner.add_argument("--workload", required=True)
    runner.add_argument("--seconds", type=float, default=30)
    runner.add_argument("--trace", type=int, choices=(0, 1), default=0)
    runner.add_argument("--seeds", type=int, nargs="+", required=True)
    runner.set_defaults(func=run)
    appender = commands.add_parser("append", help="add an entry from runs")
    appender.add_argument("runs")
    appender.add_argument("--parent", required=True)
    appender.add_argument("--title", required=True)
    appender.set_defaults(func=append)
    checker = commands.add_parser("check", help="schema-check the file")
    checker.add_argument("file", nargs="?", default=str(TRAJECTORY))
    checker.set_defaults(func=check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
