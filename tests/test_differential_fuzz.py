"""Differential fuzzing: every implementation, one oracle.

Hypothesis drives sizes and permutations; for each case all available
implementations must agree with the crossbar oracle: object-model BNB,
vectorized BNB, gate-level BNB (small sizes), Batcher, bitonic, Benes,
Koppelman, Clos.  This is the test that turns N independent
implementations into one confidence argument.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    BatcherNetwork,
    BenesNetwork,
    BitonicNetwork,
    ClosNetwork,
    Crossbar,
    KoppelmanSRPN,
)
from repro.core import BNBNetwork, Word
from repro.hardware import build_bnb_netlist
from repro.permutations import Permutation

_NETLISTS = {m: build_bnb_netlist(m) for m in (1, 2, 3)}


@st.composite
def sized_permutations(draw):
    m = draw(st.integers(1, 4))
    mapping = draw(st.permutations(list(range(1 << m))))
    return m, Permutation(mapping)


@settings(max_examples=80, deadline=None)
@given(sized_permutations())
def test_all_implementations_agree(case):
    m, pi = case
    n = 1 << m
    words = [Word(address=pi(j), payload=j) for j in range(n)]
    oracle = [(w.address, w.payload) for w in Crossbar(n).route(list(words))]

    def check(outputs):
        assert [(w.address, w.payload) for w in outputs] == oracle

    check(BNBNetwork(m).route(list(words))[0])
    check(BatcherNetwork(m).route(list(words))[0])
    check(BitonicNetwork(m).route(list(words))[0])
    check(BenesNetwork(m).route(list(words))[0])
    check(KoppelmanSRPN(m).route(list(words)))
    check(ClosNetwork(2, 2, max(n // 2, 1)).route(list(words)))

    fast = BNBNetwork(m).route_fast(np.array(pi.to_list()))
    assert fast.tolist() == list(range(n))

    if m in _NETLISTS:
        netlist, ports = _NETLISTS[m]
        decoded = ports.decode_outputs(
            netlist.evaluate(ports.input_assignment(pi.to_list()))
        )
        assert decoded == list(range(n))


@st.composite
def frame_schedules(draw):
    """A pipelined-fabric driving schedule: per cycle either an idle
    bubble or a (possibly partial) frame of destination requests."""
    m = draw(st.integers(1, 4))
    n = 1 << m
    cycles = draw(st.integers(1, 12))
    schedule = []
    for _ in range(cycles):
        if draw(st.booleans()):
            schedule.append(None)  # idle cycle: no frame enters
            continue
        # A partial frame: each input independently idle or requesting.
        subset = draw(
            st.sets(st.integers(0, n - 1), max_size=n)
        )
        order = draw(st.permutations(sorted(subset)))
        requests = [None] * n
        lines = draw(
            st.permutations(list(range(n)))
        )
        for line, dest in zip(lines, order):
            requests[line] = dest
        schedule.append(requests)
    return m, schedule


def _frame_words(tag, requests):
    """A (partial, idle-filled) frame's words; filler carries no payload."""
    from repro.core.traffic import complete_partial_permutation

    full, is_real = complete_partial_permutation(requests)
    return [
        Word(address=address, payload=(tag, line) if is_real[line] else None)
        for line, address in enumerate(full)
    ]


def _assert_kernel_matches_pipeline(m, obj, schedule, mask=None):
    """Drive the object pipeline cycle by cycle; every frame it delivers
    must equal the masked kernel's routing of that frame alone: the
    same payload on every output line, carrying the address the kernel
    reports arriving there.  Routing all frames as one batch must give
    the same rows."""
    from repro.core.pipeline_fast import route_frame_arrivals

    offered = {}
    delivered = []
    for tag, requests in enumerate(schedule):
        if requests is not None:
            offered[tag] = _frame_words(tag, requests)
            obj.offer_words(list(offered[tag]), tag=tag)
        delivered.extend(obj.step())
    delivered.extend(obj.drain())
    assert [tag for tag, _ in delivered] == sorted(offered)
    if not delivered:
        return
    frames = np.array(
        [[w.address for w in offered[tag]] for tag, _ in delivered]
    )
    batch_sources, batch_arrived = route_frame_arrivals(m, frames, mask=mask)
    for row, (tag, outputs) in enumerate(delivered):
        words = offered[tag]
        sources, arrived = route_frame_arrivals(m, frames[row], mask=mask)
        assert [(w.address, w.payload) for w in outputs] == [
            (address, words[source].payload)
            for source, address in zip(sources.tolist(), arrived.tolist())
        ]
        assert np.array_equal(batch_sources[row], sources)
        assert np.array_equal(batch_arrived[row], arrived)


@settings(max_examples=60, deadline=None)
@given(frame_schedules())
def test_vector_pipeline_matches_object_pipeline(case):
    """The compiled bnb kernel and the object pipeline, driven with the
    identical sequence of (partial, idle-filled) frames and bubbles,
    must deliver every frame identically — address and payload order."""
    from repro.core.pipeline import PipelinedBNBFabric

    m, schedule = case
    _assert_kernel_matches_pipeline(m, PipelinedBNBFabric(m), schedule)


@st.composite
def faulted_frame_schedules(draw):
    """A fault set plus a driving schedule over the same fabric size.

    Faults are 0-3 distinct stuck control bits plus 0-2 dead links
    (``(main stage, line)``); the schedule reuses the partial/idle
    frame shape of :func:`frame_schedules` so faulty fabrics are
    exercised under bubbles and half-empty frames too.
    """
    from repro.faults import enumerate_switch_coordinates

    m = draw(st.integers(2, 3))
    n = 1 << m
    coordinates = list(enumerate_switch_coordinates(m))
    count = draw(st.integers(0, 3))
    picks = draw(
        st.lists(
            st.sampled_from(coordinates),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    faults = [(pick, draw(st.integers(0, 1))) for pick in picks]
    dead_links = draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
            max_size=2,
            unique=True,
        )
    )
    cycles = draw(st.integers(1, 8))
    schedule = []
    for _ in range(cycles):
        if draw(st.booleans()):
            schedule.append(None)
            continue
        subset = draw(st.sets(st.integers(0, n - 1), max_size=n))
        order = draw(st.permutations(sorted(subset)))
        requests = [None] * n
        lines = draw(st.permutations(list(range(n))))
        for line, dest in zip(lines, order):
            requests[line] = dest
        schedule.append(requests)
    return m, faults, schedule, dead_links


@settings(max_examples=40, deadline=None)
@given(faulted_frame_schedules())
def test_faulty_vector_pipeline_matches_faulty_object_pipeline(case):
    """A fault set rendered as a kernel FaultMask and as composed
    object-model control overrides (plus dead links on both) must
    corrupt identically, frame by frame, under partial frames and idle
    bubbles."""
    from repro.core.pipeline import PipelinedBNBFabric
    from repro.core.plan import DEAD_ADDRESS
    from repro.faults import fault_mask_for, stuck_override_set

    m, faults, schedule, dead_links = case
    dead = set(dead_links)

    class DeadLinkPipeline(PipelinedBNBFabric):
        """The object pipeline with dead links: a word entering main
        stage s on a dead line travels on with the all-ones
        DEAD_ADDRESS, payload kept.  The override path routes with
        balance checks off, so the clobbered frame still routes."""

        def _route_stage(self, stage, words):
            return super()._route_stage(
                stage,
                [
                    Word(address=int(DEAD_ADDRESS), payload=word.payload)
                    if (stage, line) in dead
                    else word
                    for line, word in enumerate(words)
                ],
            )

    obj = DeadLinkPipeline(m, control_override=stuck_override_set(faults))
    _assert_kernel_matches_pipeline(
        m, obj, schedule, mask=fault_mask_for(m, faults, dead_links=dead_links)
    )


@settings(max_examples=15, deadline=None)
@given(faulted_frame_schedules())
def test_faulty_resilient_services_agree(case):
    """The whole robustness control loop, differentially: the object
    ResilientFabric and the kernel ResilientBNBFabric seeded with the
    same fault set must agree on BIST syndromes, per-batch
    delivery modes, the quarantine decision and the confirmed
    hypothesis class."""
    from repro.core.pipeline import PipelinedBNBFabric
    from repro.faults import fault_mask_for, stuck_override_set
    from repro.service import ResilientBNBFabric, ResilientFabric

    m, faults, _, _ = case
    n = 1 << m
    obj = ResilientFabric(
        m,
        pipeline=PipelinedBNBFabric(
            m, control_override=stuck_override_set(faults)
        ),
    )
    vec = ResilientBNBFabric(m, fault_mask=fault_mask_for(m, faults))
    syndromes = {"obj": [], "vec": []}
    obj.probe_hook = lambda probe, obs: syndromes["obj"].append(obs.syndrome)
    vec.probe_hook = lambda probe, obs: syndromes["vec"].append(obs.syndrome)
    permutation = Permutation(list(range(1, n)) + [0])
    modes = {"obj": [], "vec": []}
    for index in range(3):
        for name, fabric in (("obj", obj), ("vec", vec)):
            result = fabric.submit(permutation.to_list(), tag=index)
            modes[name].append(result.mode)
            assert [w.address for w in result.outputs] == list(range(n))
    # Proactive BIST on whichever fabric has not yet self-diagnosed.
    for name, fabric in (("obj", obj), ("vec", vec)):
        if not fabric.registry.is_quarantined:
            fabric.check(tag="fuzz-bist")
    assert modes["obj"] == modes["vec"]
    assert syndromes["obj"] == syndromes["vec"]
    assert obj.state is vec.state
    assert sorted(obj.registry.confirmed_faults) == sorted(
        vec.registry.confirmed_faults
    )


@settings(max_examples=40, deadline=None)
@given(sized_permutations())
def test_record_and_replay_agree(case):
    """Recording a pass and replaying its controls reproduces it —
    for arbitrary sizes and permutations, not just the unit tests'."""
    from repro.faults import extract_controls, replay_controls

    m, pi = case
    n = 1 << m
    network = BNBNetwork(m)
    words = [Word(address=pi(j), payload=j) for j in range(n)]
    outputs, record = network.route(words, record=True)
    assert record is not None
    replayed = replay_controls(m, words, extract_controls(record))
    assert [(w.address, w.payload) for w in replayed] == [
        (w.address, w.payload) for w in outputs
    ]
