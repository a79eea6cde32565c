"""The compiled routing plan, the frozen arbiter tables and the packed
kernel's stage steps."""

import itertools

import numpy as np
import pytest

from repro.bits import unshuffle_index
from repro.core import BNBNetwork, compiled_plan
from repro.core.arbiter import Arbiter
from repro.core.pipeline_fast import _controls, pack_frames, route_packed
from repro.core.plan import (
    ROOT_CONTROLS,
    ROOT_FLAGS,
    TILE_CONTROLS,
    TILE_FLAGS,
    TILE_PARITY,
    vector_splitter_controls,
)
from repro.core.splitter import Splitter
from repro.permutations import random_permutation


class TestPlanCache:
    def test_same_object_per_m(self):
        """The plan is built once per size and shared thereafter."""
        assert compiled_plan(4) is compiled_plan(4)
        assert compiled_plan(4) is not compiled_plan(5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_shape_matches_paper_recursion(self, m):
        """Stage i has 2^i nested networks of size 2^(m-i), each
        contributing m-i inner passes (Section III structure)."""
        plan = compiled_plan(m)
        assert plan.m == m and plan.n == 1 << m
        assert len(plan.stages) == m
        for i, stage in enumerate(plan.stages):
            assert stage.stage == i
            assert stage.nested_count == 1 << i
            assert stage.block_exp == m - i
            assert len(stage.inner_widths) == m - i
            assert stage.inner_widths[0] == 1 << (m - i)
            # Widths halve pass by pass down the nested recursion.
            for a, b in zip(stage.inner_widths, stage.inner_widths[1:]):
                assert b == a // 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_gathers_are_permutations(self, m):
        """Every stage prefix moves the lines by a permutation, whatever
        the addresses: the kernel's strided exchange and unshuffle
        writes fill each output slot of its scratch buffers exactly
        once."""
        n = 1 << m
        rng = np.random.default_rng(m)
        addresses = rng.integers(0, n, size=(4, n))  # not permutations
        for stages in range(1, m + 1):
            words = route_packed(m, pack_frames(m, addresses), stages=stages)
            for row in words & 0xFFFFFFFF:
                assert np.array_equal(np.sort(row), np.arange(n)), stages

    def test_tables_are_immutable(self):
        plan = compiled_plan(3)
        with pytest.raises(ValueError):
            plan.identity[0] = 99

    def test_arbiter_tables_are_frozen(self):
        for table in (
            TILE_PARITY, ROOT_CONTROLS, ROOT_FLAGS, TILE_CONTROLS, TILE_FLAGS
        ):
            with pytest.raises(ValueError):
                table[0] = 1

    def test_plan_holds_no_tables(self):
        """The arbiter tables do not depend on m and are built once at
        import; the per-m plan stays a few tuples and one identity."""
        plan = compiled_plan(6)
        arrays = [
            value
            for stage in plan.stages
            for value in vars(stage).values()
            if isinstance(value, np.ndarray)
        ]
        assert arrays == []


def _bits(key, width):
    return [(key >> k) & 1 for k in range(width)]


def _lanes(entry, dtype):
    return np.array([entry], dtype=dtype).view(np.int8).tolist()


#: Under a 16-line root, a sibling tile of parity 1 - f hands an odd
#: tile's root the flag f.
_SIBLING = {0: [1] + [0] * 7, 1: [0] * 8}


class TestArbiterTables:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_input_up_to_8_lines(self, p):
        """Exhaustive: every 2^w input of a w <= 8 line splitter gets the
        object Splitter's controls from the kernel's table lookup."""
        width = 1 << p
        splitter = Splitter(p, check_balance=False)
        keys = range(1 << width)
        bits = np.array([_bits(key, width) for key in keys], dtype=np.int8)
        controls = np.asarray(_controls(bits.reshape(-1), width))
        controls = controls.reshape(-1, width // 2)
        for key, row in zip(keys, controls.tolist()):
            assert row == splitter.controls(_bits(key, width)), key

    @pytest.mark.parametrize("flag", [0, 1])
    def test_every_tile_key_and_flag(self, flag):
        """Exhaustive over (tile flag, 8-bit key): parity, controls and
        the flags a tile sends down are what the object Arbiter and
        Splitter decide for that tile under a root handing it *flag*."""
        splitter = Splitter(4, check_balance=False)
        arbiter = Arbiter(4)
        for key in range(256):
            bits = _bits(key, 8)
            trace = arbiter.trace(bits + _SIBLING[flag])
            tile_root = trace.nodes[2][0]
            assert TILE_PARITY[key] == tile_root.z_up == sum(bits) % 2
            if tile_root.z_up:
                assert tile_root.z_down == flag  # the sibling did its job
            index = key << 1 | flag
            assert _lanes(TILE_CONTROLS[index], np.int32) == (
                splitter.controls(bits + _SIBLING[flag])[:4]
            )
            assert _lanes(TILE_FLAGS[index], np.int64) == trace.flags[:8]

    def test_every_root_key(self):
        """A tile that is a whole 8-line arbiter: its root echoes."""
        splitter = Splitter(3, check_balance=False)
        arbiter = Arbiter(3)
        for key in range(256):
            bits = _bits(key, 8)
            assert _lanes(ROOT_CONTROLS[key], np.int32) == (
                splitter.controls(bits)
            )
            assert _lanes(ROOT_FLAGS[key], np.int64) == arbiter.flags(bits)

    @pytest.mark.parametrize("p", [4, 5, 6, 7, 8, 10])
    def test_wide_splitters_match_object_model(self, p):
        """Above 8 lines the tile parities climb the same tables (a
        second tile step above 64 lines); random rows at every width."""
        width = 1 << p
        rng = np.random.default_rng(p)
        rows = rng.integers(0, 2, size=(6, width)).astype(np.int8)
        rows[0] = 0
        rows[1] = 1
        splitter = Splitter(p, check_balance=False)
        controls = np.asarray(_controls(rows.reshape(-1), width))
        controls = controls.reshape(-1, width // 2)
        for row, decided in zip(rows, controls):
            assert decided.tolist() == splitter.controls(row.tolist())


class TestVectorKernels:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_splitter_controls_match_object_model(self, p):
        rng = np.random.default_rng(p)
        splitter = Splitter(p, check_balance=False)
        blocks = rng.integers(0, 2, size=(25, 1 << p))
        controls = vector_splitter_controls(blocks)
        for row in range(blocks.shape[0]):
            assert (
                controls[row].tolist()
                == splitter.controls(blocks[row].tolist())
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_stage_take_composition_equals_route(self, m):
        """The packed kernel stopped after every main stage reproduces
        the reference route's arrangement there (its nested networks,
        then the main-stage unshuffle), not just end to end."""
        n = 1 << m
        net = BNBNetwork(m)
        for seed in range(5):
            pi = random_permutation(n, rng=seed).to_list()
            _outputs, record = net.route(pi, record=True)
            words = pack_frames(m, np.array(pi))
            for i, arrangement in enumerate(record.stage_outputs):
                expected = list(arrangement)
                if i < m - 1:
                    for j, source in enumerate(arrangement):
                        expected[unshuffle_index(j, m - i, m)] = source
                routed = route_packed(m, words, stages=i + 1)
                assert (routed & 0xFFFFFFFF).tolist() == expected, (seed, i)
                assert (routed >> 32).tolist() == [pi[s] for s in expected]
            assert np.array_equal(net.route_fast(np.array(pi)), np.arange(n))


def test_every_small_frame_routes():
    """Exhaustive at m = 1..3: every permutation reaches its outputs."""
    for m in (1, 2, 3):
        n = 1 << m
        frames = np.array(list(itertools.permutations(range(n))))
        words = route_packed(m, pack_frames(m, frames))
        assert np.array_equal(words >> 32, np.tile(np.arange(n), (len(frames), 1)))
        sources = words & 0xFFFFFFFF
        assert np.array_equal(
            np.take_along_axis(frames, sources, axis=1),
            np.tile(np.arange(n), (len(frames), 1)),
        )
