"""The compiled bnb kernel: same deliveries as the object engine."""

import numpy as np
import pytest

from repro.core import Word, route_frame_sources
from repro.core.pipeline import PipelinedBNBFabric
from repro.core.pipeline_fast import route_frame_arrivals, route_frame_batch
from repro.exceptions import NotAPermutationError
from repro.permutations import random_permutation
from repro.service import ResilientBNBFabric


def _words(pi, tag):
    return [Word(address=a, payload=(tag, j)) for j, a in enumerate(pi)]


class TestBasicOperation:
    def test_delivery_sorted_with_payload_identity(self):
        m = 3
        fabric = ResilientBNBFabric(m)
        pi = random_permutation(1 << m, rng=3).to_list()
        words = _words(pi, "t")
        outputs = fabric.submit_words(words, tag="t").outputs
        assert [w.address for w in outputs] == list(range(1 << m))
        # The very objects offered come back, reordered — the serving
        # layer's boundary verification relies on `is` identity.
        for line, word in enumerate(outputs):
            assert word is words[pi.index(line)]


class TestSurfaceParity:
    def test_non_permutation_rejected(self):
        fabric = ResilientBNBFabric(2)
        with pytest.raises(NotAPermutationError):
            fabric.submit([0, 0, 1, 2])
        with pytest.raises(NotAPermutationError):
            fabric.submit([0, 1, 2])  # short batch

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ResilientBNBFabric(0)


class TestEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_object_engine_cycle_for_cycle(self, m):
        """Every frame the object pipeline delivers, on whatever cycle,
        arrives in the kernel's output order, down to address and
        payload."""
        n = 1 << m
        obj = PipelinedBNBFabric(m)
        offered = {}
        delivered = []
        for k in range(3 * m + 4):
            if k % 3 != 2:  # leave bubbles in the schedule
                pi = random_permutation(n, rng=k).to_list()
                offered[k] = _words(pi, k)
                obj.offer_words(offered[k], tag=k)
            delivered.extend(obj.step())
        delivered.extend(obj.drain())
        assert sorted(tag for tag, _ in delivered) == sorted(offered)
        for tag, outputs in delivered:
            words = offered[tag]
            sources = route_frame_sources(
                m, np.array([w.address for w in words])
            )
            assert [(w.address, w.payload) for w in outputs] == [
                (words[s].address, words[s].payload) for s in sources.tolist()
            ]


class TestRouteFrameSources:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_sources_invert_the_permutation(self, m):
        """Output line d receives the input line that addressed d."""
        n = 1 << m
        for seed in range(5):
            pi = random_permutation(n, rng=seed).to_list()
            sources = route_frame_sources(m, np.array(pi))
            assert [pi[source] for source in sources.tolist()] == list(
                range(n)
            )


class TestRouteFrameArrivals:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_healthy_arrivals_are_the_identity(self, m):
        n = 1 << m
        frames = np.array(
            [random_permutation(n, rng=seed).to_list() for seed in range(4)]
        )
        sources, arrived = route_frame_arrivals(m, frames)
        assert np.array_equal(sources, route_frame_batch(m, frames))
        assert np.array_equal(arrived, np.tile(np.arange(n), (4, 1)))
        # A lone frame routes on the single-frame kernel, same answer.
        one_sources, one_arrived = route_frame_arrivals(m, frames[0])
        assert np.array_equal(one_sources, sources[0])
        assert np.array_equal(one_arrived, arrived[0])
