"""Frame scheduler: coalescing VOQ heads into valid permutation frames."""

import pytest

from repro.core.bnb import BNBNetwork
from repro.core.traffic import coalesce_frame
from repro.exceptions import InputError
from repro.server import FrameScheduler, VirtualOutputQueues


def fill_voqs(n, requests, capacity=16):
    voqs = VirtualOutputQueues(n, capacity=capacity)
    for index, dest in enumerate(requests):
        voqs.admit(dest, 0, index=index)
    return voqs


class TestCoalesceFrame:
    def test_idle_fill_produces_permutation(self):
        plan = coalesce_frame([5, 2, 7], 8)
        assert sorted(plan.addresses) == list(range(8))
        assert set(plan.line_of) == {5, 2, 7}
        for dest, line in plan.line_of.items():
            assert plan.addresses[line] == dest
        assert plan.active == 3
        assert plan.fill == pytest.approx(3 / 8)

    def test_full_frame(self):
        plan = coalesce_frame(list(range(8)), 8)
        assert plan.fill == 1.0
        assert plan.addresses == list(range(8))

    def test_rejects_overflow_and_duplicates(self):
        with pytest.raises(InputError):
            coalesce_frame(list(range(9)), 8)
        with pytest.raises(InputError):
            coalesce_frame([1, 1], 8)
        with pytest.raises(InputError):
            coalesce_frame([8], 8)


class TestFrameScheduler:
    def test_frame_words_route_cleanly(self):
        n = 8
        voqs = fill_voqs(n, [3, 3, 6, 0, 6])
        scheduler = FrameScheduler(n)
        frame = scheduler.next_frame(voqs, cycle=1)
        # One head per distinct destination: {3, 6, 0}.
        real = frame.addresses[0, : int(frame.active[0])].tolist()
        assert set(real) == {3, 6, 0}
        assert frame.active == 3
        # The words really are routable by a BNB network, filler and all.
        outputs, _record = BNBNetwork(3).route(frame.line_words())
        for line, dest in enumerate(real):
            assert outputs[dest].payload == line

    def test_fifo_per_destination_across_frames(self):
        n = 8
        voqs = fill_voqs(n, [4, 4, 4])
        scheduler = FrameScheduler(n)
        seen = []
        for cycle in range(3):
            frame = scheduler.next_frame(voqs, cycle=cycle)
            line = frame.addresses[0].tolist().index(4)
            seen.append(int(frame.indices[0, line]))
        assert seen == [0, 1, 2]

    def test_idle_returns_none(self):
        voqs = VirtualOutputQueues(8, capacity=4)
        scheduler = FrameScheduler(8)
        assert scheduler.next_frame(voqs, cycle=0) is None
        assert scheduler.frames_scheduled == 0

    def test_fill_accounting(self):
        n = 4
        scheduler = FrameScheduler(n)
        voqs = fill_voqs(n, [0, 1, 2, 3])
        full = scheduler.next_frame(voqs, cycle=0)
        assert full.fill == 1.0
        voqs = fill_voqs(n, [2])
        quarter = scheduler.next_frame(voqs, cycle=1)
        assert quarter.fill == pytest.approx(1 / 4)
        assert scheduler.mean_fill == pytest.approx((1.0 + 0.25) / 2)
        assert scheduler.words_scheduled == 5
        snap = scheduler.snapshot()
        assert snap["frames"] == 2

    def test_filler_words_carry_no_payload(self):
        n = 8
        voqs = fill_voqs(n, [7])
        frame = FrameScheduler(n).next_frame(voqs, cycle=0)
        words = frame.line_words()
        real = [word for word in words if word.payload is not None]
        assert len(real) == 1
        assert real[0].address == 7
        assert sorted(word.address for word in words) == list(range(n))

    def test_tags_are_unique_and_increasing(self):
        n = 4
        scheduler = FrameScheduler(n)
        tags = []
        for cycle in range(5):
            voqs = fill_voqs(n, [cycle % n])
            tags.append(scheduler.next_frame(voqs, cycle=cycle).tag)
        assert tags == sorted(tags)
        assert len(set(tags)) == 5
