"""Virtual output queues: admission, backpressure, fairness."""

import pytest

from repro.exceptions import AdmissionRejectedError
from repro.server import QueueEntry, VirtualOutputQueues


def entry(dest, index=0):
    return QueueEntry(destination=dest, enqueued_cycle=0, batch_index=index)


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
        heads = voqs.pop_heads()
        assert sorted(e.destination for e in heads) == [2, 3]
        # FIFO per destination: first words for 2 and 3 ride first.
        assert sorted(e.batch_index for e in heads) == [0, 2]
        assert voqs.total == 2

    def test_pop_heads_round_robin_rotates_start(self):
        voqs = VirtualOutputQueues(4, capacity=8)
        for dest in range(4):
            for k in range(2):
                voqs.admit(dest, 0, index=2 * dest + k)
        first = voqs.pop_heads(limit=1)
        second = voqs.pop_heads(limit=1)
        assert first[0].destination != second[0].destination

    def test_requeue_front_preserves_order_and_may_exceed_capacity(self):
        voqs = VirtualOutputQueues(4, capacity=2)
        voqs.admit(0, 0, index=2)
        voqs.admit(0, 0, index=3)
        stranded = [entry(0, index=0), entry(0, index=1)]
        voqs.requeue_front(stranded)
        assert voqs.depth(0) == 4  # transiently above capacity
        assert all(e.requeues == 1 for e in stranded)
        drained = []
        while voqs.total:
            drained.extend(voqs.pop_heads())
        assert [e.batch_index for e in drained] == [0, 1, 2, 3]
        # New admissions still bounce until the queue drains.
        voqs2 = VirtualOutputQueues(4, capacity=2)
        voqs2.admit(0, 0)
        voqs2.admit(0, 0)
        voqs2.requeue_front([entry(0)])
        with pytest.raises(AdmissionRejectedError):
            voqs2.admit(0, 0)

    def test_drain_all_empties_every_queue(self):
        voqs = VirtualOutputQueues(4, capacity=4)
        for dest in range(4):
            voqs.admit(dest, 0)
        assert len(voqs.drain_all()) == 4
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
