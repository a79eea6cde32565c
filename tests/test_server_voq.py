"""Virtual output queues: admission, backpressure, fairness."""

import numpy as np
import pytest

from repro.exceptions import AdmissionRejectedError
from repro.server import FrameScheduler, VirtualOutputQueues
from repro.server.voq import INDEX, WORD_FIELDS


def stranded(dests, indices):
    """The ``(dests, words)`` arrays of words lifted off a dead plane."""
    words = np.zeros((len(dests), WORD_FIELDS), dtype=np.int64)
    words[:, INDEX] = indices
    return np.asarray(dests, dtype=np.int64), words


def pop_frame(voqs, scheduler):
    """One frame's real words: (destinations, batch indices, requeues)."""
    frame = scheduler.next_frame(voqs, 0)
    active = int(frame.active[0])
    return (
        frame.addresses[0, :active].tolist(),
        frame.indices[0, :active].tolist(),
        frame.requeues[0, :active].tolist(),
    )


class TestAdmission:
    def test_admit_within_capacity(self):
        voqs = VirtualOutputQueues(8, capacity=3)
        for k in range(3):
            voqs.admit(5, 0, index=k)
        assert voqs.depth(5) == 3
        assert voqs.accepted == 3
        assert voqs.rejected == 0

    def test_reject_when_full_with_retry_hint(self):
        voqs = VirtualOutputQueues(8, capacity=2)
        voqs.admit(1, 0)
        voqs.admit(1, 0)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            voqs.admit(1, 0)
        assert excinfo.value.destination == 1
        assert excinfo.value.retry_after_cycles == 2
        assert voqs.rejected == 1
        # The bound is per destination: other queues still admit.
        voqs.admit(2, 0)
        assert voqs.depth(2) == 1

    def test_reject_out_of_range(self):
        voqs = VirtualOutputQueues(4, capacity=2)
        with pytest.raises(AdmissionRejectedError):
            voqs.admit(4, 0)
        with pytest.raises(AdmissionRejectedError):
            voqs.admit(-1, 0)
        assert voqs.accepted == 0

    def test_depth_stays_bounded_under_flood(self):
        voqs = VirtualOutputQueues(4, capacity=5)
        admitted = rejected = 0
        for k in range(100):
            try:
                voqs.admit(k % 4, 0, index=k)
                admitted += 1
            except AdmissionRejectedError:
                rejected += 1
        assert admitted == 20  # 4 queues x capacity 5
        assert rejected == 80
        assert voqs.max_depth == 5


class TestDraining:
    def test_pop_heads_distinct_destinations_fifo(self):
        voqs = VirtualOutputQueues(4, capacity=4)
        for index, dest in enumerate([2, 2, 3, 3]):
            voqs.admit(dest, 0, index=index)
        # A frame takes the head of every non-empty queue.
        dests, indices, _ = pop_frame(voqs, FrameScheduler(4))
        assert sorted(dests) == [2, 3]
        # FIFO per destination: first words for 2 and 3 ride first.
        assert sorted(indices) == [0, 2]
        assert voqs.total == 2

    def test_pop_heads_round_robin_rotates_start(self):
        voqs = VirtualOutputQueues(4, capacity=8)
        for dest in range(4):
            for k in range(2):
                voqs.admit(dest, 0, index=2 * dest + k)
        # Successive frames start their scan (line 0) at a new queue.
        scheduler = FrameScheduler(4)
        first, _, _ = pop_frame(voqs, scheduler)
        second, _, _ = pop_frame(voqs, scheduler)
        assert first[0] != second[0]

    def test_requeue_front_preserves_order_and_may_exceed_capacity(self):
        voqs = VirtualOutputQueues(4, capacity=2)
        voqs.admit(0, 0, index=2)
        voqs.admit(0, 0, index=3)
        voqs.requeue_front(*stranded([0, 0], [0, 1]))
        assert voqs.depth(0) == 4  # transiently above capacity
        drained, requeues = [], []
        scheduler = FrameScheduler(4)
        while voqs.total:
            _, indices, counts = pop_frame(voqs, scheduler)
            drained.extend(indices)
            requeues.extend(counts)
        assert drained == [0, 1, 2, 3]
        assert requeues == [1, 1, 0, 0]
        # New admissions still bounce until the queue drains.
        voqs2 = VirtualOutputQueues(4, capacity=2)
        voqs2.admit(0, 0)
        voqs2.admit(0, 0)
        voqs2.requeue_front(*stranded([0], [0]))
        with pytest.raises(AdmissionRejectedError):
            voqs2.admit(0, 0)

    def test_drain_all_empties_every_queue(self):
        voqs = VirtualOutputQueues(4, capacity=4)
        for dest in range(4):
            voqs.admit(dest, 0)
        assert voqs.drain_all() == 4
        assert voqs.total == 0


class TestSnapshot:
    def test_snapshot_accounts_offered_accepted_rejected(self):
        voqs = VirtualOutputQueues(2, capacity=1)
        voqs.admit(0, 0)
        with pytest.raises(AdmissionRejectedError):
            voqs.admit(0, 0)
        snap = voqs.snapshot()
        assert snap["offered"] == 2
        assert snap["accepted"] == 1
        assert snap["rejected"] == 1
        assert snap["queued"] == 1
        assert snap["depths"] == [1, 0]

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            VirtualOutputQueues(0, capacity=1)
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=0)
