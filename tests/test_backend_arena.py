"""The arena: calibration, winner selection, oracle gating.

The property that matters most: **a fast wrong answer must never
win** — a backend that disagrees with the crossbar oracle raises
``BackendDisagreementError`` before any timer starts, so the cost
table only ever contains verified engines.
"""

import numpy as np
import pytest

from repro.backends import (
    BACKENDS,
    BackendDisagreementError,
    WORKLOADS,
    backend_names,
    calibrate,
    compiled_backend,
    select_backend,
    verify_backend,
)
from repro.backends import arena as arena_module
from repro.exceptions import ReproError

#: Small, fast calibration settings for the tests.
QUICK = dict(frames=4, batch_window=4, repeats=1, verify_samples=2)


class TestCalibrate:
    def test_table_covers_every_backend_and_workload(self):
        table = calibrate(3, **QUICK)
        assert set(table) == set(WORKLOADS)
        for workload in WORKLOADS:
            assert sorted(table[workload]) == backend_names()
            for cost in table[workload].values():
                assert cost > 0.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            calibrate(3, workloads=("latency",), **QUICK)

    def test_backend_subset(self):
        table = calibrate(3, backends=["bnb", "msorter"], **QUICK)
        assert sorted(table["single"]) == ["bnb", "msorter"]


class TestSelectBackend:
    def test_winner_is_the_cheapest_cell(self):
        decision = select_backend(3, workload="batch", **QUICK)
        assert decision.m == 3
        assert decision.workload == "batch"
        assert decision.backend == min(
            decision.table, key=decision.table.__getitem__
        )
        assert decision.spread >= 1.0

    def test_describe_is_json_shaped(self):
        decision = select_backend(3, workload="single", **QUICK)
        info = decision.describe()
        assert set(info) == {
            "m", "workload", "backend", "seconds_per_frame", "spread",
        }
        assert info["backend"] in info["seconds_per_frame"]
        assert list(info["seconds_per_frame"]) == sorted(
            info["seconds_per_frame"]
        )


class _LyingBackend:
    """Routes everything to line 0 — fast and wrong."""

    name = "lying-test"

    def __init__(self, m):
        self.m = m
        self.n = 1 << m

    def route_frame(self, addresses):
        return np.zeros(self.n, dtype=np.int64)

    def route_frame_batch(self, addresses):
        return np.zeros(addresses.shape, dtype=np.int64)


@pytest.fixture
def lying_backend(monkeypatch):
    monkeypatch.setitem(BACKENDS, _LyingBackend.name, _LyingBackend)
    yield _LyingBackend.name
    compiled_backend.cache_clear()


class TestOracleGate:
    def test_verify_backend_counts_frames(self):
        checked = verify_backend("msorter", 3, samples=4)
        assert checked == 6  # identity + reversal + 4 random

    def test_disagreeing_backend_raises(self, lying_backend):
        with pytest.raises(BackendDisagreementError, match="disagrees"):
            verify_backend(lying_backend, 2, samples=2)

    def test_calibrate_refuses_to_time_a_liar(
        self, lying_backend, monkeypatch
    ):
        def _boom(*_args, **_kwargs):
            raise AssertionError("timed a backend that failed the oracle")

        monkeypatch.setattr(arena_module, "_time_single", _boom)
        monkeypatch.setattr(arena_module, "_time_batch", _boom)
        # Nothing is timed: the oracle gate raises first.
        with pytest.raises(BackendDisagreementError):
            calibrate(2, backends=["bnb", lying_backend], **QUICK)

    def test_disagreement_is_a_repro_error(self):
        assert issubclass(BackendDisagreementError, ReproError)
