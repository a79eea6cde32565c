"""The compiled BNB routing kernels: whole frames as numpy gathers.

:func:`route_frame_sources` routes one frame through all ``m`` main
stages combinationally; :func:`route_frame_batch` routes a ``(batch,
n)`` stack of frames in one pass, every stage a single flat gather over
the whole batch.  Each stage's splitter decisions run as log-depth
XOR-up/flag-down array passes over **all** boxes of the stage at once,
and every interstage wire is a precompiled gather from the per-``m``
:class:`~repro.core.plan.CompiledPlan` cache.  Nothing touches a
Python-level ``Word``, ``Splitter`` or ``Arbiter``.

Physical faults ride along as data: pass a
:class:`~repro.core.plan.FaultMask` and every stuck switch becomes a
masked ``where`` over the stage's control column, while dead links
clobber their line's address to :data:`~repro.core.plan.DEAD_ADDRESS`
at stage input so the sentinel propagates to the outputs.
:func:`route_frame_arrivals` hands those arrived addresses back next to
the sources, which is what the resilient service's address check and
BIST decoding read.  Because each stage re-decides its splitters from
live addresses, the masked kernel agrees with the adaptive object model
(``route_with_stuck_switch`` /
``PipelinedBNBFabric(control_override=...)``) bit for bit; the
differential fuzz suite drives both with identical frames and faults.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .plan import (
    DEAD_ADDRESS,
    FaultMask,
    batch_stage_take_indices,
    compiled_plan,
    stage_take_indices,
)

__all__ = [
    "route_frame_arrivals",
    "route_frame_batch",
    "route_frame_sources",
]


def route_frame_sources(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> np.ndarray:
    """Combinationally route one frame; return source line per output.

    All ``m`` main stages in one call: ``result[line]`` is the input
    line whose word arrives on output ``line``.  For a valid
    permutation on a healthy fabric, output ``line`` carries the word
    addressed to it; with a :class:`~repro.core.plan.FaultMask` the
    result is the (possibly misrouting) faulty fabric's arrival order.
    Used by the ``bnb`` routing backend for a lone frame and by the
    fault tests as the one-shot faulty-routing oracle.
    """
    return _route_frame(m, np.asarray(addresses, dtype=np.int64), mask)[0]


def route_frame_arrivals(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Route one frame ``(n,)`` or a stack ``(batch, n)``; return
    sources and arrivals, both shaped like *addresses*.

    ``sources[..., line]`` is the input line whose word arrives on
    output ``line`` (:func:`route_frame_sources` /
    :func:`route_frame_batch`), and ``arrived[..., line]`` the address
    that word carries there: its own address, or
    :data:`~repro.core.plan.DEAD_ADDRESS` if it crossed a dead link of
    the mask.  On a healthy fabric every row of ``arrived`` is the
    identity.
    """
    current = np.asarray(addresses, dtype=np.int64)
    if current.ndim == 1:
        return _route_frame(m, current, mask)
    return _route_batch(m, current, mask)


def _route_frame(
    m: int, current: np.ndarray, mask: Optional[FaultMask]
) -> Tuple[np.ndarray, np.ndarray]:
    plan = compiled_plan(m)
    sources = plan.identity
    for stage in plan.stages:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                current = np.where(dead, DEAD_ADDRESS, current)
        take = stage_take_indices(plan, stage, current, mask=mask)
        current = current[take]
        sources = sources[take]
    return sources, current


def _route_batch(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask]
) -> Tuple[np.ndarray, np.ndarray]:
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
    return sources, current


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
    return _route_batch(m, addresses, mask)[0]
