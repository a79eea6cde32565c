"""Backend arena: the serving routing engines, measured head to head.

Each backend in ``BACKENDS`` (the compiled BNB vector engine and the
multiway comparator sorter) is differentially verified against the
crossbar oracle and then timed per ``(m, workload class)`` cell —
``single`` (one frame per ``route_frame`` call, the latency shape) and
``batch`` (``batch_window`` frames per ``route_frame_batch`` call, the
throughput shape).  The winner of each cell is whatever the clock says
on this machine; the acceptance bar is that the measurement *matters*:
on at least two cells the winner must beat the slowest candidate by
>= 1.2x (bnb against msorter spreads 1.0-8.2x per cell on a 2-vCPU
container).

``BENCH_ARENA_QUICK=1`` (the CI smoke) trims the sweep to m in {3, 5}
and shortens the timing loops; the spread bar still applies.

Findings (see ``benchmarks/out/backend_arena.json``):

* the multiway sorter's handful of whole-array comparator passes win
  the single-frame cells at every measured m — sorting-by-destination
  costs O(log^2 N) vectorized stages but each stage is one fancy-index
  pass;
* the packed BNB kernel's ``m(m+1)/2`` inner stages carry more
  per-call overhead, which the batch form amortizes: its batch cells
  come within 15% of msorter from m=5 up.

The arena is offline: a deployment runs it (or ``repro route N
--backend auto``) on its own host and pins the winner by name.
"""

from __future__ import annotations

import json
import os

from repro.backends import (
    ArenaDecision,
    backend_names,
    calibrate,
    verify_backend,
)

QUICK = bool(os.environ.get("BENCH_ARENA_QUICK"))
SWEEP_MS = (3, 5) if QUICK else (3, 5, 7)
FRAMES = 6 if QUICK else 16
BATCH_WINDOW = 16 if QUICK else 32
REPEATS = 2 if QUICK else 3
VERIFY_SAMPLES = 4 if QUICK else 12
SPREAD_BAR = 1.2
SPREAD_CELLS = 2


def test_backend_arena(write_artifact):
    """Calibrate every backend per (m, workload); the spread bar holds."""
    names = backend_names()
    assert set(names) == {"bnb", "msorter"}

    verified = {
        name: {
            str(m): verify_backend(name, m, samples=VERIFY_SAMPLES)
            for m in SWEEP_MS
        }
        for name in names
    }

    cells = []
    for m in SWEEP_MS:
        table = calibrate(
            m,
            frames=FRAMES,
            batch_window=BATCH_WINDOW,
            repeats=REPEATS,
            verify_samples=VERIFY_SAMPLES,
        )
        for workload, costs in table.items():
            decision = ArenaDecision(
                m=m,
                workload=workload,
                backend=min(costs, key=costs.__getitem__),
                table=costs,
            )
            cells.append(
                {
                    "m": m,
                    "n": 1 << m,
                    "workload": workload,
                    "winner": decision.backend,
                    "spread": decision.spread,
                    "seconds_per_frame": {
                        name: costs[name] for name in sorted(costs)
                    },
                    "frames_per_sec": {
                        name: 1.0 / costs[name] for name in sorted(costs)
                    },
                }
            )

    # Acceptance: the measured choice matters on >= 2 cells.
    decisive = [cell for cell in cells if cell["spread"] >= SPREAD_BAR]
    assert len(decisive) >= SPREAD_CELLS, [
        (cell["m"], cell["workload"], cell["spread"]) for cell in cells
    ]
    for cell in cells:
        for cost in cell["seconds_per_frame"].values():
            assert cost > 0.0, cell

    artifact = {
        "benchmark": "backend_arena",
        "quick": QUICK,
        "spread_bar": SPREAD_BAR,
        "spread_cells_required": SPREAD_CELLS,
        "backends": names,
        "verified_frames": verified,
        "cells": cells,
    }
    write_artifact("backend_arena.json", json.dumps(artifact, indent=2))
