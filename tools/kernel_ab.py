"""Alternating CPU-time A/B of the BNB kernel between two source trees.

Usage, from the repository root::

    python tools/kernel_ab.py OLD_SRC NEW_SRC [--rounds 11]

Each round runs one child process per tree, alternating which tree goes
first; a child times ``route_frame_sources`` on a lone frame (m = 3, 6,
8, 10) and ``route_frame_batch`` on a 64-frame window (m = 6, 8) in
process CPU time and prints microseconds per call.  The report gives
each case's median over the rounds, both trees' interquartile ranges,
and the old/new ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

CASES = [(3, 0), (6, 0), (8, 0), (10, 0), (6, 64), (8, 64)]

CHILD = r"""
import json, sys, time
import numpy as np
from repro.core.pipeline_fast import route_frame_batch, route_frame_sources
rng = np.random.default_rng(0)
out = {}
for m, batch in CASES:
    n = 1 << m
    if batch:
        frames = np.stack([rng.permutation(n) for _ in range(batch)])
        call = lambda: route_frame_batch(m, frames)
    else:
        frame = rng.permutation(n)
        call = lambda: route_frame_sources(m, frame)
    call()
    reps = max(20, 40000 // (n * max(batch, 1)))
    start = time.process_time()
    for _ in range(reps):
        call()
    out[f"{m}x{batch}"] = (time.process_time() - start) / reps * 1e6
print(json.dumps(out))
"""


def run(src: str) -> dict:
    code = f"CASES = {CASES!r}\n" + CHILD
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=11)
    args = parser.parse_args()
    samples = {"old": [], "new": []}
    for round_ in range(args.rounds):
        order = ("old", "new") if round_ % 2 == 0 else ("new", "old")
        for name in order:
            samples[name].append(run(getattr(args, name)))
    print(f"{'case':>8} {'old us':>9} {'(iqr)':>7} {'new us':>9} {'(iqr)':>7} "
          f"{'old/new':>7} {'wins':>5}")
    for m, batch in CASES:
        key = f"{m}x{batch}"
        old = [s[key] for s in samples["old"]]
        new = [s[key] for s in samples["new"]]
        wins = sum(o > w for o, w in zip(old, new))
        label = f"m={m} " + (f"w{batch}" if batch else "lone")
        print(f"{label:>8} {statistics.median(old):9.1f} {iqr(old):7.1f} "
              f"{statistics.median(new):9.1f} {iqr(new):7.1f} "
              f"{statistics.median(old) / statistics.median(new):7.2f} "
              f"{wins:>2}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
