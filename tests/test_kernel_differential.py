"""The packed kernel against every oracle, at every size it serves.

Hypothesis draws m = 1..10, a stack of frames and (for the faulty
half) a random :class:`~repro.core.plan.FaultMask` of stuck switches
and dead links.  A stack's rows must equal each frame routed as a
batch of one, and both must equal the object models: the crossbar and
:meth:`BNBNetwork.route` when healthy; the adaptive object pipeline
(and, for a lone stuck switch, ``route_with_stuck_switch``) when
faulty, with :data:`DEAD_ADDRESS` reaching the arrivals.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import Crossbar
from repro.core import BNBNetwork, DEAD_ADDRESS, Word
from repro.core.pipeline import PipelinedBNBFabric
from repro.core.pipeline_fast import (
    route_frame_arrivals,
    route_frame_batch,
    route_frame_sources,
)
from repro.faults import SwitchCoordinate, fault_mask_for, stuck_override_set
from repro.faults.adaptive import route_with_stuck_switch


@st.composite
def stacks(draw, max_batch):
    m = draw(st.integers(1, 10))
    n = 1 << m
    batch = draw(st.integers(1, max_batch))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = np.stack([rng.permutation(n) for _ in range(batch)])
    return m, frames


@st.composite
def coordinates(draw, m):
    i = draw(st.integers(0, m - 1))
    j = draw(st.integers(0, m - i - 1))
    return SwitchCoordinate(
        main_stage=i,
        nested=draw(st.integers(0, (1 << i) - 1)),
        nested_stage=j,
        box=draw(st.integers(0, (1 << j) - 1)),
        switch=draw(st.integers(0, (1 << (m - i - j - 1)) - 1)),
    )


def _words(row):
    return [Word(address=int(a), payload=j) for j, a in enumerate(row)]


class DeadLinkPipeline(PipelinedBNBFabric):
    """The object pipeline with dead links: a word entering main stage
    s on a dead line travels on as DEAD_ADDRESS, payload kept."""

    def __init__(self, m, dead, **kwargs):
        super().__init__(m, **kwargs)
        self.dead = set(dead)

    def _route_stage(self, stage, words):
        return super()._route_stage(
            stage,
            [
                Word(address=int(DEAD_ADDRESS), payload=word.payload)
                if (stage, line) in self.dead
                else word
                for line, word in enumerate(words)
            ],
        )


@settings(max_examples=30, deadline=None)
@given(stacks(max_batch=3))
def test_healthy_kernel_matches_object_models(case):
    m, frames = case
    n = 1 << m
    batched = route_frame_batch(m, frames)
    sources, arrived = route_frame_arrivals(m, frames)
    assert np.array_equal(batched, sources)
    assert np.array_equal(arrived, np.tile(np.arange(n), (len(frames), 1)))
    network = BNBNetwork(m)
    for row, frame in enumerate(frames):
        alone = route_frame_sources(m, frame)
        assert np.array_equal(batched[row], alone)
        expected = [(int(frame[s]), int(s)) for s in alone]
        for oracle in (Crossbar(n).route(_words(frame)),
                       network.route(_words(frame))[0]):
            assert [(w.address, w.payload) for w in oracle] == expected


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_faulty_kernel_matches_adaptive_object_model(data):
    m, frames = data.draw(stacks(max_batch=2), label="stack")
    n = 1 << m
    stuck = data.draw(
        st.lists(coordinates(m), max_size=3, unique=True), label="stuck"
    )
    faults = [(c, data.draw(st.integers(0, 1), label="value")) for c in stuck]
    dead = data.draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
            max_size=2,
            unique=True,
        ),
        label="dead",
    )
    mask = fault_mask_for(m, faults, dead_links=dead)
    sources, arrived = route_frame_arrivals(m, frames, mask=mask)
    assert np.array_equal(sources, route_frame_batch(m, frames, mask=mask))
    pipeline = DeadLinkPipeline(
        m, dead, control_override=stuck_override_set(faults)
    )
    for row, frame in enumerate(frames):
        alone_sources, alone_arrived = route_frame_arrivals(
            m, frame, mask=mask
        )
        assert np.array_equal(sources[row], alone_sources)
        assert np.array_equal(arrived[row], alone_arrived)
        expected = [
            (int(a), int(s)) for s, a in zip(alone_sources, alone_arrived)
        ]
        outputs = pipeline.route_batch(_words(frame), tag=row)
        assert [(w.address, w.payload) for w in outputs] == expected
        if len(faults) == 1 and not dead:
            (coordinate, value), = faults
            adaptive = route_with_stuck_switch(m, _words(frame), coordinate, value)
            assert [(w.address, w.payload) for w in adaptive] == expected
        # A dead link always clobbers the word crossing it, and the
        # sentinel survives to the outputs.
        assert (alone_arrived == DEAD_ADDRESS).any() == bool(dead)
