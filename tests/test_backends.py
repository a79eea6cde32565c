"""The backend table, protocol conformance, and engine correctness.

Every serving backend must (a) satisfy the ``RoutingBackend``
protocol, (b) deliver **every** permutation at m=3 — the exhaustive
Theorem-2-style sweep, all ``8! = 40320`` frames — and (c) agree with
the crossbar oracle under hypothesis-driven fuzz, in both its single
and batch forms.  The table itself is pinned: names, unknown-name
rejection, compile-once caching.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    BACKENDS,
    RoutingBackend,
    backend_names,
    compiled_backend,
    prewarm,
)
from repro.baselines.crossbar import Crossbar
from repro.core.words import Word

EXPECTED = ["bnb", "msorter"]


def _delivered(addresses: np.ndarray, sources: np.ndarray) -> bool:
    """sources[a] is the line whose word arrived at output a."""
    return bool(np.array_equal(addresses[sources], np.arange(len(addresses))))


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == EXPECTED

    def test_unknown_backend_raises(self):
        for retired in ("nope", "krbenes", "bnb-object"):
            with pytest.raises(ValueError, match="unknown backend"):
                compiled_backend(retired, 3)

    def test_compiled_backend_caches_per_name_and_m(self):
        a = compiled_backend("msorter", 3)
        b = compiled_backend("msorter", 3)
        c = compiled_backend("msorter", 4)
        assert a is b
        assert a is not c
        with pytest.raises(ValueError, match="m >= 1"):
            compiled_backend("msorter", 0)

    def test_prewarm_compiles_all_named(self):
        names = prewarm(2)
        assert names == backend_names()
        before = compiled_backend.cache_info().hits
        prewarm(2, ["msorter"])  # second pass: pure cache hits
        assert compiled_backend.cache_info().hits > before


class TestProtocolConformance:
    @pytest.mark.parametrize("name", EXPECTED)
    def test_satisfies_routing_backend(self, name):
        engine = compiled_backend(name, 3)
        assert isinstance(engine, RoutingBackend)
        assert engine.name == name
        assert engine.m == 3
        assert engine.n == 8

    @pytest.mark.parametrize("name", EXPECTED)
    def test_route_shapes_and_dtype(self, name):
        engine = compiled_backend(name, 2)
        frame = np.array([2, 0, 3, 1], dtype=np.int64)
        sources = engine.route_frame(frame)
        assert sources.shape == (4,)
        assert sources.dtype == np.int64
        stacked = engine.route_frame_batch(np.stack([frame, frame[::-1]]))
        assert stacked.shape == (2, 4)


class TestExhaustiveDelivery:
    """All 40320 permutations at m=3, per backend, batched."""

    @pytest.mark.slow
    @pytest.mark.parametrize("name", EXPECTED)
    def test_every_m3_permutation_delivers(self, name):
        engine = compiled_backend(name, 3)
        frames = np.array(
            list(itertools.permutations(range(8))), dtype=np.int64
        )
        assert frames.shape == (40320, 8)
        sources = engine.route_frame_batch(frames)
        arrived = np.take_along_axis(frames, sources, axis=1)
        assert np.array_equal(
            arrived, np.broadcast_to(np.arange(8), frames.shape)
        )

    @pytest.mark.parametrize("name", EXPECTED)
    @pytest.mark.parametrize("m", [1, 2])
    def test_tiny_sizes_exhaustive(self, name, m):
        engine = compiled_backend(name, m)
        n = 1 << m
        for perm in itertools.permutations(range(n)):
            frame = np.array(perm, dtype=np.int64)
            assert _delivered(frame, engine.route_frame(frame)), perm


@st.composite
def sized_frames(draw):
    m = draw(st.integers(1, 4))
    mapping = draw(st.permutations(list(range(1 << m))))
    return m, np.array(mapping, dtype=np.int64)


class TestDifferentialFuzz:
    @settings(max_examples=60, deadline=None)
    @given(sized_frames())
    def test_all_backends_match_the_crossbar_oracle(self, case):
        m, frame = case
        n = 1 << m
        outputs = Crossbar(n).route(
            [
                Word(address=int(address), payload=line)
                for line, address in enumerate(frame)
            ]
        )
        oracle = np.array([word.payload for word in outputs], dtype=np.int64)
        for name in backend_names():
            engine = compiled_backend(name, m)
            assert np.array_equal(engine.route_frame(frame), oracle), name

    @settings(max_examples=30, deadline=None)
    @given(sized_frames(), st.integers(2, 6))
    def test_batch_form_matches_single_form(self, case, batch):
        m, frame = case
        rng = np.random.default_rng(int(frame.sum()) + batch)
        stack = np.stack(
            [frame]
            + [
                rng.permutation(1 << m).astype(np.int64)
                for _ in range(batch - 1)
            ]
        )
        for name in backend_names():
            engine = compiled_backend(name, m)
            batched = engine.route_frame_batch(stack)
            for row, addresses in zip(batched, stack):
                assert np.array_equal(
                    row, engine.route_frame(addresses)
                ), name


class TestFaultMaskCapability:
    def test_bnb_routes_through_a_mask(self):
        from repro.core.pipeline_fast import route_frame_sources

        engine = compiled_backend("bnb", 3)
        frame = np.array([4, 1, 5, 2, 0, 3, 7, 6], dtype=np.int64)
        # No mask: same kernel, same answer.
        assert np.array_equal(
            engine.route_frame(frame, mask=None),
            route_frame_sources(3, frame),
        )

    def test_unflagged_backends_take_no_mask_kwarg(self):
        frame = np.array([1, 0], dtype=np.int64)
        engine = compiled_backend("msorter", 1)
        with pytest.raises(TypeError):
            engine.route_frame(frame, mask=object())


class TestRegistryIsTheChoicesSource:
    def test_cli_backend_choices_track_the_registry(self):
        from repro.cli import _backend_choices

        assert _backend_choices() == backend_names() + ["auto"]

    def test_registry_keys_match_spec_names(self):
        assert all(name == BACKENDS[name].name for name in BACKENDS)
