"""The fault-tolerant vector dataplane: masks, kernel BIST, failover.

Covers the fault-as-data model end to end: :class:`FaultMask`
construction and validation, dead-link sentinel propagation through
the compiled ``bnb`` kernel, the one-window BIST pass and its
vectorized syndrome decoding, and :class:`ResilientBNBFabric` — the
kernel twin of :class:`ResilientFabric` — including its compiled
Benes failover plan.
"""

import numpy as np
import pytest

from repro.core import Word
from repro.core.pipeline import PipelinedBNBFabric, stuck_control_override
from repro.core.pipeline_fast import route_frame_arrivals
from repro.core.plan import DEAD_ADDRESS, FaultMask, build_fault_mask
from repro.exceptions import FaultError, FaultServiceError
from repro.faults import (
    SwitchCoordinate,
    fault_mask_for,
    random_fault_set,
    shared_bist_schedule,
    stuck_override_set,
)
from repro.faults.localization import (
    ProbeObservation,
    decode_syndromes,
    observations_from_arrays,
)
from repro.service import (
    CompiledBenesFailover,
    HealthState,
    ResilientBNBFabric,
    ResilientFabric,
)


def identity_words(n):
    return [Word(address=line, payload=line) for line in range(n)]


def reversal_words(n):
    return [Word(address=n - 1 - line, payload=line) for line in range(n)]


class TestFaultMask:
    def test_build_and_describe(self):
        mask = build_fault_mask(3, stuck=[((2, 0, 0, 0, 0), 1)])
        assert isinstance(mask, FaultMask)
        assert mask.m == 3
        described = mask.describe()
        assert described["stuck"] == [
            {"coordinate": [2, 0, 0, 0, 0], "value": 1}
        ]
        assert described["dead_links"] == []
        # Exactly one override plane, addressed by (main stage, inner).
        assert set(mask.overrides) == {(2, 0)}
        forced, values = mask.overrides[(2, 0)]
        assert int(forced.sum()) == 1
        assert values[forced] == [1]

    def test_override_arrays_are_frozen(self):
        mask = build_fault_mask(2, stuck=[((1, 0, 0, 0, 0), 0)])
        forced, values = mask.overrides[(1, 0)]
        with pytest.raises(ValueError):
            forced[0, 0] = True
        with pytest.raises(ValueError):
            values[0, 0] = 1

    @pytest.mark.parametrize(
        "coordinate",
        [
            (-1, 0, 0, 0, 0),  # main stage below range
            (3, 0, 0, 0, 0),  # main stage above range for m=3
            (2, 4, 0, 0, 0),  # nested out of range at stage 2
            (2, 0, 1, 0, 0),  # nested stage out of range at stage 2
            (1, 0, 0, 2, 0),  # box out of range at inner stage 0
            (0, 0, 0, 0, 4),  # switch out of range in a width-8 box
        ],
    )
    def test_rejects_bad_coordinates(self, coordinate):
        with pytest.raises(FaultError):
            build_fault_mask(3, stuck=[(coordinate, 1)])

    def test_rejects_bad_stuck_value(self):
        with pytest.raises(FaultError):
            build_fault_mask(3, stuck=[((2, 0, 0, 0, 0), 2)])

    def test_rejects_bad_dead_link(self):
        with pytest.raises(FaultError):
            build_fault_mask(3, dead_links=[(9, 0)])
        with pytest.raises(FaultError):
            build_fault_mask(3, dead_links=[(1, 64)])

    def test_mask_m_must_match_fabric(self):
        with pytest.raises(ValueError):
            ResilientBNBFabric(3, fault_mask=build_fault_mask(2))


class TestMaskedKernels:
    def test_stuck_mask_matches_object_override(self):
        coordinate = SwitchCoordinate(2, 0, 0, 0, 0)
        for value in (0, 1):
            obj = PipelinedBNBFabric(
                3,
                control_override=stuck_control_override(2, 0, 0, 0, 0, value),
            )
            words = reversal_words(8)
            sources, _arrived = route_frame_arrivals(
                3,
                np.array([[w.address for w in words]]),
                mask=fault_mask_for(3, [(coordinate, value)]),
            )
            assert [
                (words[s].address, words[s].payload)
                for s in sources[0].tolist()
            ] == [
                (w.address, w.payload) for w in obj.route_batch(words)
            ]

    def test_dead_link_misdelivers_deterministically(self):
        # The clobbered word routes by the all-ones DEAD_ADDRESS
        # sentinel from the dead stage onward, so it lands away from
        # its true line (line 0's remaining bits are all zeros — the
        # maximally distinguishable case) and the displacement is
        # visible to the output-side address check.
        mask = build_fault_mask(3, dead_links=[(1, 0)])
        identity = np.arange(8).reshape(1, 8)
        sources, arrived = route_frame_arrivals(3, identity, mask=mask)
        # No word is lost: every input line comes out somewhere.
        assert sorted(sources[0].tolist()) == list(range(8))
        # The clobbered word arrives carrying the sentinel, and the
        # rest of the syndrome is the displacement it caused.
        assert DEAD_ADDRESS in arrived[0]
        syndrome = np.flatnonzero(arrived[0] != np.arange(8)).tolist()
        assert syndrome  # the fault is visible
        # And deterministically so: the sentinel is data, not chance.
        again_sources, again = route_frame_arrivals(3, identity, mask=mask)
        assert np.array_equal(again, arrived)
        assert np.array_equal(again_sources, sources)


class TestPipelinedBIST:
    """The kernel fabric routes the whole schedule in one window."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_sequential_run_on_faulty_fabric(self, m):
        schedule = shared_bist_schedule(m)
        faults = random_fault_set(m, 1, seed=7)

        sequential = schedule.run(
            lambda words: PipelinedBNBFabric(
                m, control_override=stuck_override_set(faults)
            ).route_batch(words)
        )
        fabric = ResilientBNBFabric(m, fault_mask=fault_mask_for(m, faults))
        windowed = []
        fabric.probe_hook = lambda probe, obs: windowed.append(obs)
        fabric.check(tag="bist")
        assert [obs.syndrome for obs in windowed] == [
            obs.syndrome for obs in sequential
        ]
        assert [obs.arrived for obs in windowed] == [
            obs.arrived for obs in sequential
        ]

    def test_on_probe_fires_once_per_probe(self):
        fabric = ResilientBNBFabric(2)
        seen = []
        fabric.probe_hook = lambda probe, obs: seen.append(
            (probe.index, obs.clean)
        )
        fabric.check(tag="bist")
        assert seen == [
            (probe.index, True) for probe in fabric.schedule.probes
        ]


class TestVectorizedDecoding:
    def test_decode_syndromes_pins_probe_observation(self):
        rng = np.random.default_rng(5)
        arrived = rng.integers(0, 8, size=(6, 8), dtype=np.int64)
        sent = np.tile(np.arange(8, dtype=np.int64), (6, 1))
        expected = [
            obs.syndrome for obs in observations_from_arrays(sent, arrived)
        ]
        assert decode_syndromes(arrived) == expected

    def test_decode_flags_dead_sentinels(self):
        arrived = np.arange(8, dtype=np.int64).reshape(1, 8)
        arrived = arrived.copy()
        arrived[0, 5] = DEAD_ADDRESS
        assert decode_syndromes(arrived) == [(5,)]

    def test_shape_validation(self):
        with pytest.raises(FaultError):
            decode_syndromes(np.arange(8))
        with pytest.raises(FaultError):
            observations_from_arrays(
                np.zeros((2, 4), dtype=np.int64),
                np.zeros((3, 4), dtype=np.int64),
            )


class TestCompiledBenesFailover:
    def test_route_before_compile_refuses(self):
        spare = CompiledBenesFailover(3)
        assert not spare.compiled
        with pytest.raises(FaultServiceError):
            spare.route(identity_words(8))

    def test_compiled_route_matches_real_benes(self):
        spare = CompiledBenesFailover(3, verify_every=1)
        spare.compile_for([(SwitchCoordinate(2, 0, 0, 0, 0), 1)])
        outputs, trace = spare.route(reversal_words(8))
        assert trace is None
        assert [w.address for w in outputs] == list(range(8))
        assert [w.payload for w in outputs] == list(reversed(range(8)))
        # verify_every=1 cross-checks every batch against BenesNetwork.
        assert spare.cross_checks >= spare.batches

    def test_recompiles_only_for_new_fault_sets(self):
        spare = CompiledBenesFailover(3)
        fault_set = [(SwitchCoordinate(2, 0, 0, 0, 0), 1)]
        spare.compile_for(fault_set)
        first = spare.plans_compiled
        spare.compile_for(list(fault_set))
        assert spare.plans_compiled == first  # same set: cached plan
        spare.compile_for([(SwitchCoordinate(1, 0, 0, 0, 0), 0)])
        assert spare.plans_compiled == first + 1


class TestResilientVectorFabric:
    """The resilient lifecycle on the compiled (vector) bnb kernel."""

    def test_clean_traffic_stays_healthy(self):
        fabric = ResilientBNBFabric(3)
        for index in range(3):
            result = fabric.submit(
                [(line + index) % 8 for line in range(8)], tag=index
            )
            assert result.mode == "clean"
        assert fabric.state is HealthState.HEALTHY
        assert fabric.counters.words_clean == 24

    def test_stuck_fault_walks_full_lifecycle(self):
        mask = fault_mask_for(3, [(SwitchCoordinate(2, 0, 0, 0, 0), 1)])
        fabric = ResilientBNBFabric(3, fault_mask=mask)
        permutation = list(reversed(range(8)))
        modes = [
            fabric.submit(permutation, tag=index).mode for index in range(4)
        ]
        if not fabric.registry.is_quarantined:
            fabric.check(tag="scheduled")
            modes.append(fabric.submit(permutation, tag="post").mode)
        assert fabric.state is HealthState.QUARANTINED
        assert modes[-1] == "failover"
        kinds = fabric.registry.event_kinds()
        assert kinds["failover-plan"] == 1
        assert kinds["quarantine"] == 1
        assert fabric.spare.compiled
        # Every submitted word was delivered to its own line.
        assert fabric.counters.words_delivered == 8 * len(modes)

    def test_parity_with_object_service(self):
        coordinate = SwitchCoordinate(2, 0, 0, 0, 0)
        vec = ResilientBNBFabric(
            3, fault_mask=fault_mask_for(3, [(coordinate, 1)])
        )
        obj = ResilientFabric(
            3,
            pipeline=PipelinedBNBFabric(
                3, control_override=stuck_control_override(2, 0, 0, 0, 0, 1)
            ),
        )
        permutation = list(reversed(range(8)))
        for index in range(4):
            result_vec = vec.submit(permutation, tag=index)
            result_obj = obj.submit(permutation, tag=index)
            assert result_vec.mode == result_obj.mode
            assert [w.payload for w in result_vec.outputs] == [
                w.payload for w in result_obj.outputs
            ]
        assert vec.state is obj.state
        assert sorted(vec.registry.confirmed_faults) == sorted(
            obj.registry.confirmed_faults
        )

    def test_live_injection_quarantines(self):
        fabric = ResilientBNBFabric(3)
        permutation = list(reversed(range(8)))
        assert fabric.submit(permutation, tag="before").mode == "clean"
        fabric.inject_stuck_control(SwitchCoordinate(2, 0, 0, 0, 0), 1)
        for index in range(3):
            fabric.submit(permutation, tag=index)
        if not fabric.registry.is_quarantined:
            fabric.check(tag="post-injection")
        assert fabric.state is HealthState.QUARANTINED
        kinds = fabric.registry.event_kinds()
        assert kinds["injection"] == 1
        assert fabric.submit(permutation, tag="after").mode == "failover"

    def test_dead_link_quarantines_without_hypotheses(self):
        mask = build_fault_mask(3, dead_links=[(1, 3)])
        fabric = ResilientBNBFabric(3, fault_mask=mask)
        permutation = list(reversed(range(8)))
        for index in range(4):
            result = fabric.submit(permutation, tag=index)
            assert result.delivered == 8
        assert fabric.state is HealthState.QUARANTINED
        # A dead link matches no stuck-control hypothesis; the service
        # must still quarantine and ride the spare rather than wedge.
        assert fabric.submit(permutation, tag="after").mode == "failover"

    def test_dead_link_is_caught_even_when_the_word_lands_home(self):
        # At (2, 1) the identity frame's word 1 crosses the dead link
        # and still lands on output 1; only its arrived DEAD_ADDRESS
        # gives it away, so the address check must read the arrivals.
        mask = build_fault_mask(3, dead_links=[(2, 1)])
        sources, arrived = route_frame_arrivals(3, np.arange(8), mask=mask)
        assert sources.tolist() == list(range(8))
        assert arrived[1] == DEAD_ADDRESS
        fabric = ResilientBNBFabric(3, fault_mask=mask)
        result = fabric.submit(list(range(8)), tag="home")
        assert result.mode != "clean"
        assert [w.address for w in result.outputs] == list(range(8))
        assert fabric.counters.detections == 1

    def test_strict_localization_refuses_unexplained_faults(self):
        mask = build_fault_mask(3, dead_links=[(1, 3)])
        fabric = ResilientBNBFabric(
            3, fault_mask=mask, strict_localization=True
        )
        with pytest.raises(FaultServiceError):
            for index in range(4):
                fabric.submit(list(reversed(range(8))), tag=index)

    def test_check_runs_pipelined_bist(self):
        """A proactive check routes every probe through the kernel."""
        fabric = ResilientBNBFabric(3)
        probes = []
        fabric.probe_hook = lambda probe, obs: probes.append(obs.clean)
        fabric.check(tag="proactive")
        assert probes == [True] * fabric.schedule.probe_count
        assert fabric.state is HealthState.HEALTHY


class TestRandomFaultSet:
    def test_seed_determinism(self):
        assert random_fault_set(3, 2, seed=11) == random_fault_set(
            3, 2, seed=11
        )
        assert random_fault_set(3, 2, seed=11) != random_fault_set(
            3, 2, seed=12
        )

    def test_explicit_rng_wins_over_seed(self):
        import random as stdlib_random

        from_rng = random_fault_set(
            3, 2, seed=999, rng=stdlib_random.Random(11)
        )
        assert from_rng == random_fault_set(3, 2, seed=11)

    def test_count_validation(self):
        with pytest.raises(FaultError):
            random_fault_set(3, -1)
        with pytest.raises(FaultError):
            random_fault_set(2, 10_000)

    def test_faults_are_valid_coordinates(self):
        faults = random_fault_set(3, 3, seed=5)
        assert len(faults) == 3
        mask = fault_mask_for(3, faults)  # build_fault_mask validates
        assert len(mask.stuck) == 3
