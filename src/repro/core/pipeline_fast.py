"""A compiled, vectorized cycle-accurate pipelined BNB fabric.

:class:`VectorPipelinedFabric` is the numpy counterpart of
:class:`~repro.core.pipeline.PipelinedBNBFabric`: the same ``m``-deep
register schedule (one batch per main stage, one :meth:`step` per
clock, fill latency ``m + 1``), but each stage's splitter decisions run
as log-depth XOR-up/flag-down array passes over **all** boxes of the
stage at once, and every interstage wire is a precompiled gather from
the per-``m`` :class:`~repro.core.plan.CompiledPlan` cache.  Nothing in
the hot loop touches a Python-level ``Word``, ``Splitter`` or
``Arbiter``; words only materialize again at the delivery boundary.

The engine keeps the exact feeding/delivery surface of the object
model (``offer`` / ``offer_words`` / ``try_offer_words`` /
``add_delivery_hook`` / ``step`` / ``drain`` / ``idle`` /
``route_batch`` / ``stats`` with ``retain_delivered``), so the serving
layer can swap engines per plane.  Physical faults ride along as data
rather than as the object engine's ``control_override`` callback: pass
a :class:`~repro.core.plan.FaultMask` (or install one mid-flight with
:meth:`~VectorPipelinedFabric.set_fault_mask`) and every stuck switch
becomes a masked ``where`` over the stage's control column, while dead
links clobber their line's address to
:data:`~repro.core.plan.DEAD_ADDRESS` at stage input so the sentinel
propagates to the output-side check.  Because each stage re-decides
its splitters from live addresses, the masked vector pass agrees with
the adaptive object model (``route_with_stuck_switch`` /
``PipelinedBNBFabric(control_override=...)``) bit for bit; the
differential fuzz suite drives both engines with identical frame and
fault sequences and asserts identical per-cycle deliveries.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import NotAPermutationError
from .pipeline import PipelineStats
from .plan import (
    DEAD_ADDRESS,
    CompiledPlan,
    FaultMask,
    batch_stage_take_indices,
    compiled_plan,
    stage_take_indices,
)
from .words import Word

__all__ = [
    "VectorPipelinedFabric",
    "VectorBatch",
    "route_frame_batch",
    "route_frame_sources",
]


@dataclasses.dataclass
class VectorBatch:
    """One permutation's words travelling through the vector pipeline.

    ``words`` stays in original input-line order (the payload store);
    ``addresses[line]`` / ``sources[line]`` track what currently sits on
    each line of the batch's stage: the destination address and the
    original input line it entered on.
    """

    tag: Any
    words: List[Word]
    entered_cycle: int
    addresses: np.ndarray
    sources: np.ndarray


def route_frame_sources(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> np.ndarray:
    """Combinationally route one frame; return source line per output.

    The single-shot form of the vector engine (all ``m`` main stages in
    one call): ``result[line]`` is the input line whose word arrives on
    output ``line``.  For a valid permutation on a healthy fabric,
    output ``line`` carries the word addressed to it; with a
    :class:`~repro.core.plan.FaultMask` the result is the (possibly
    misrouting) faulty fabric's arrival order.  Used by the ``bnb``
    routing backend for a lone frame and by the fault tests as the
    one-shot faulty-routing oracle.
    """
    plan = compiled_plan(m)
    current = np.asarray(addresses, dtype=np.int64)
    sources = plan.identity
    for stage in plan.stages:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                current = np.where(dead, DEAD_ADDRESS, current)
        take = stage_take_indices(plan, stage, current, mask=mask)
        current = current[take]
        sources = sources[take]
    return sources


def route_frame_batch(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> np.ndarray:
    """Combinationally route a whole **batch** of frames in one pass.

    The frame-axis form of :func:`route_frame_sources`: *addresses* has
    shape ``(batch, n)`` — each row an independent full permutation —
    and the result has the same shape, ``result[b, line]`` being the
    input line of frame ``b`` whose word arrives on output ``line``.
    Every stage steps **all** frames with one set of numpy gathers
    (:func:`~repro.core.plan.batch_stage_take_indices`), so the
    per-frame Python overhead of the single-shot path amortizes across
    the batch — this is the kernel behind the gateway's batched wire
    protocol (``send_batch`` riding an ``engine="bnb"``
    :class:`~repro.server.planes.BackendPlane`).  Row-for-row
    identical to :func:`route_frame_sources` on each frame alone, with
    or without a :class:`~repro.core.plan.FaultMask` (the mask
    broadcasts: the same physical fault afflicts every frame).
    """
    plan = compiled_plan(m)
    current = np.array(addresses, dtype=np.int64, copy=True)
    if current.ndim != 2 or current.shape[1] != plan.n:
        raise ValueError(
            f"a frame batch for m={m} needs shape (batch, {plan.n}), "
            f"got {current.shape}"
        )
    batch = current.shape[0]
    sources = np.broadcast_to(plan.identity, (batch, plan.n)).copy()
    # Flat row-offset gathers instead of take_along_axis: one shared
    # index array per stage, no per-call index-grid rebuild.
    offsets = (np.arange(batch, dtype=np.int64) * plan.n)[:, None]
    for stage in plan.stages:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                current = np.where(dead[None, :], DEAD_ADDRESS, current)
        take = batch_stage_take_indices(plan, stage, current, mask=mask)
        flat = take + offsets
        current = current.ravel().take(flat)
        sources = sources.ravel().take(flat)
    return sources


class VectorPipelinedFabric:
    """An ``m``-deep vectorized pipeline of the BNB main stages.

    Drop-in engine-swap for
    :class:`~repro.core.pipeline.PipelinedBNBFabric`: :meth:`offer` a
    permutation (or nothing, for a bubble) and :meth:`step` once per
    clock; completed batches come back as ``(tag, outputs)`` pairs with
    payload identity preserved.  Physical faults are carried as a
    :class:`~repro.core.plan.FaultMask` (constructor argument or
    :meth:`set_fault_mask`) instead of the object engine's
    ``control_override`` callback.
    """

    def __init__(
        self,
        m: int,
        retain_delivered: bool = True,
        fault_mask: Optional[FaultMask] = None,
    ) -> None:
        if m < 1:
            raise ValueError(f"the fabric needs m >= 1, got {m}")
        if fault_mask is not None and fault_mask.m != m:
            raise ValueError(
                f"fault mask is for m={fault_mask.m}, fabric is m={m}"
            )
        self.m = m
        self.n = 1 << m
        self.fault_mask = fault_mask
        self.plan: CompiledPlan = compiled_plan(m)
        self._stages: List[Optional[VectorBatch]] = [None] * m
        self._pending: Optional[VectorBatch] = None
        self.cycle = 0
        self.accepted = 0
        self.retain_delivered = retain_delivered
        self.delivered_batches: List[Tuple[Any, List[Word]]] = []
        self.delivered_count = 0
        self._latencies: List[int] = []
        self._latency_window = 4096
        self._delivery_hooks: List[Callable[[Any, List[Word]], None]] = []

    # ------------------------------------------------------------------
    # Feeding (same contract as the object engine)
    # ------------------------------------------------------------------
    def offer(self, addresses: Sequence[int], tag: Any = None) -> None:
        """Queue one permutation to enter at the next :meth:`step`."""
        words = [
            Word(address=address, payload=(tag, j))
            for j, address in enumerate(addresses)
        ]
        self.offer_words(words, tag=tag)

    def offer_words(self, words: Sequence[Word], tag: Any = None) -> None:
        """Queue pre-built words (payload identity preserved)."""
        if self._pending is not None:
            raise ValueError("a batch is already waiting to enter this cycle")
        address_array = np.fromiter(
            (word.address for word in words),
            dtype=np.int64,
            count=len(words),
        )
        if len(words) != self.n or not np.array_equal(
            np.sort(address_array), self.plan.identity
        ):
            raise NotAPermutationError([word.address for word in words])
        self._pending = VectorBatch(
            tag=tag,
            words=list(words),
            entered_cycle=self.cycle,
            addresses=address_array,
            sources=self.plan.identity.copy(),
        )

    @property
    def can_accept(self) -> bool:
        """Whether :meth:`offer` would succeed this cycle (no batch waiting)."""
        return self._pending is None

    def try_offer_words(self, words: Sequence[Word], tag: Any = None) -> bool:
        """Non-blocking :meth:`offer_words`: ``False`` when a batch already
        waits, instead of raising.  Address validation still raises — a
        malformed batch is a caller bug, not backpressure."""
        if self._pending is not None:
            return False
        self.offer_words(words, tag=tag)
        return True

    def add_delivery_hook(
        self, hook: Callable[[Any, List[Word]], None]
    ) -> None:
        """Register ``hook(tag, outputs)`` to fire as each batch drains."""
        self._delivery_hooks.append(hook)

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    def set_fault_mask(self, mask: Optional[FaultMask]) -> None:
        """Install (or clear) the fault mask, effective immediately.

        Batches already in flight feel the new mask from their next
        stage onward — exactly how a physical fault appearing mid-frame
        would behave.
        """
        if mask is not None and mask.m != self.m:
            raise ValueError(
                f"fault mask is for m={mask.m}, fabric is m={self.m}"
            )
        self.fault_mask = mask

    def _advance(self, batch: VectorBatch, stage_index: int) -> None:
        """Route *batch* through main stage *stage_index*, in place."""
        stage = self.plan.stages[stage_index]
        mask = self.fault_mask
        if mask is not None:
            dead = mask.dead_links.get(stage_index)
            if dead is not None:
                # Clobber persists in the batch: the sentinel rides to
                # the output-side address check (DEAD_ADDRESS propagation).
                batch.addresses = np.where(dead, DEAD_ADDRESS, batch.addresses)
        take = stage_take_indices(self.plan, stage, batch.addresses, mask=mask)
        batch.addresses = batch.addresses[take]
        batch.sources = batch.sources[take]

    def _materialize(self, batch: VectorBatch) -> List[Word]:
        """Rebuild the output word list (original objects, new order)."""
        words = batch.words
        return [words[source] for source in batch.sources.tolist()]

    def step(self) -> List[Tuple[Any, List[Word]]]:
        """Advance one clock; return batches that completed this cycle."""
        completed: List[Tuple[Any, List[Word]]] = []
        leaving = self._stages[self.m - 1]
        if leaving is not None:
            self._advance(leaving, self.m - 1)
            outputs = self._materialize(leaving)
            completed.append((leaving.tag, outputs))
            self.delivered_count += 1
            if self.retain_delivered:
                self.delivered_batches.append((leaving.tag, outputs))
            self._latencies.append(self.cycle + 1 - leaving.entered_cycle)
            if (
                not self.retain_delivered
                and len(self._latencies) > self._latency_window
            ):
                del self._latencies[: -self._latency_window]
            for hook in self._delivery_hooks:
                hook(leaving.tag, outputs)
        for stage in range(self.m - 2, -1, -1):
            batch = self._stages[stage]
            if batch is not None:
                self._advance(batch, stage)
            self._stages[stage + 1] = batch
        self._stages[0] = self._pending
        if self._pending is not None:
            self.accepted += 1
        self._pending = None
        self.cycle += 1
        return completed

    def drain(self) -> List[Tuple[Any, List[Word]]]:
        """Step until empty; return everything that completed."""
        completed: List[Tuple[Any, List[Word]]] = []
        while any(stage is not None for stage in self._stages) or self._pending:
            completed.extend(self.step())
        return completed

    def idle(self, cycles: int) -> None:
        """Clock *cycles* bubbles through the fabric."""
        for _ in range(cycles):
            self.step()

    def stage_timeline(self, entered_cycle: int) -> List[int]:
        """The cycle at which a batch offered at *entered_cycle* crosses
        each main stage — same deterministic, stall-free timeline as
        :meth:`repro.core.pipeline.PipelinedBNBFabric.stage_timeline`
        (the engines share the clocking contract, so the tracing layer
        needs no per-engine cases).
        """
        return [entered_cycle + 1 + stage for stage in range(self.m)]

    def route_batch(
        self, words: Sequence[Word], tag: Any = None
    ) -> List[Word]:
        """Synchronously route one batch through an idle fabric."""
        if self.in_flight or self._pending is not None:
            raise ValueError(
                "route_batch needs an idle fabric; drain in-flight "
                "batches first"
            )
        self.offer_words(words, tag=tag)
        for completed_tag, outputs in self.drain():
            if completed_tag is tag or completed_tag == tag:
                return outputs
        raise AssertionError("offered batch never completed")  # pragma: no cover

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return sum(stage is not None for stage in self._stages)

    def stats(self) -> PipelineStats:
        return PipelineStats(
            cycles=self.cycle,
            accepted=self.accepted,
            delivered=self.delivered_count,
            latencies=list(self._latencies),
        )

    def __repr__(self) -> str:
        return (
            f"VectorPipelinedFabric(m={self.m}, cycle={self.cycle}, "
            f"in_flight={self.in_flight})"
        )
