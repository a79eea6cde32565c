"""The frame scheduler: queued words -> conflict-free permutation frames.

Each frame takes at most one head-of-line word per destination from
the VOQs (pairwise-distinct destinations — a conflict-free matching of
inputs to outputs, in the routing-via-matchings sense) and completes
the partial request into a full permutation, so every frame satisfies
the balanced-bit precondition the BNB splitters need.

The scheduler builds a whole **window** of frames per call, as arrays.
With per-destination depths ``d``, frame ``j`` of the window carries the
head of every destination with ``d > j``; the scan over destinations
is rotated by one per frame (round-robin fairness), the real
destinations take lines ``0..k-1`` in scan order and the unused
addresses fill the rest in ascending order — exactly what
:func:`~repro.core.traffic.coalesce_frame` does for one frame.  The
whole window's line layout is one ``argsort`` over a ``(frames, n)``
key, and :meth:`~repro.server.voq.VirtualOutputQueues.pop_frames` pops
its words in one gather: no Python work per word or per frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.words import Word
from .voq import ENQUEUED, INDEX, REQUEUES, WORD_FIELDS, VirtualOutputQueues

__all__ = ["FrameScheduler", "ScheduledFrame", "Stranded"]


class Stranded:
    """Words lifted off frames a plane will never deliver.

    ``dests[k]`` is the destination of the word whose ring row is
    ``words[k]``, oldest frame first and line order within a frame —
    the order :meth:`~repro.server.voq.VirtualOutputQueues.requeue_front`
    puts them back in.  ``len()`` counts words.
    """

    __slots__ = ("dests", "words")

    def __init__(self, dests: np.ndarray, words: np.ndarray) -> None:
        self.dests = dests
        self.words = words

    @classmethod
    def join(cls, parts: Sequence["Stranded"]) -> "Stranded":
        parts = [part for part in parts if len(part)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return NOTHING_STRANDED
        return cls(
            np.concatenate([part.dests for part in parts]),
            np.concatenate([part.words for part in parts]),
        )

    def __len__(self) -> int:
        return self.dests.shape[0]


NOTHING_STRANDED = Stranded(
    np.empty(0, dtype=np.int64), np.empty((0, WORD_FIELDS), dtype=np.int64)
)


class ScheduledFrame:
    """A window of consecutive coalesced frames, as arrays only.

    Row ``j`` is the frame tagged ``tag + j``: ``addresses[j]`` its full
    destination permutation (one entry per input line), ``active[j]``
    how many of its lines carry real words — always lines
    ``0..active[j]-1`` — and ``words[j, line]`` the ring row
    (:data:`~repro.server.voq.WORD_FIELDS` columns: tracker slot, batch
    index, enqueued cycle, requeue count, class) of the word on that
    line.  Rows past ``active[j]`` are idle filler and hold stale
    values.  ``len(frame)`` counts frames.
    """

    __slots__ = ("tag", "scheduled_cycle", "addresses", "active", "words")

    def __init__(
        self,
        tag: int,
        scheduled_cycle: int,
        addresses: np.ndarray,
        active: np.ndarray,
        words: np.ndarray,
    ) -> None:
        self.tag = tag
        self.scheduled_cycle = scheduled_cycle
        self.addresses = addresses
        self.active = active
        self.words = words

    def __len__(self) -> int:
        return self.addresses.shape[0]

    @property
    def n(self) -> int:
        return self.addresses.shape[1]

    @property
    def fill(self) -> np.ndarray:
        """Per-frame fill ratio: real lines over all lines."""
        return self.active / self.n

    @property
    def real(self) -> np.ndarray:
        """``(frames, n)`` mask of the lines carrying real words."""
        return np.arange(self.n) < self.active[:, None]

    @property
    def indices(self) -> np.ndarray:
        return self.words[..., INDEX]

    @property
    def enqueued(self) -> np.ndarray:
        return self.words[..., ENQUEUED]

    @property
    def requeues(self) -> np.ndarray:
        return self.words[..., REQUEUES]

    def rows(self, start: int, stop: Optional[int] = None) -> "ScheduledFrame":
        """Frames ``start..stop-1`` of the window (views, same tags)."""
        return ScheduledFrame(
            self.tag + start,
            self.scheduled_cycle,
            self.addresses[start:stop],
            self.active[start:stop],
            self.words[start:stop],
        )

    def stranded(self) -> Stranded:
        """Every real word of the window, for requeueing."""
        real = self.real
        return Stranded(self.addresses[real], self.words[real])

    def line_words(self) -> List[Word]:
        """The first frame as the per-line Word list the object planes
        clock: a real line's payload is its line number (delivery is
        verified by equality), idle filler carries ``None``."""
        active = int(self.active[0])
        return [
            Word(address=address, payload=line if line < active else None)
            for line, address in enumerate(self.addresses[0].tolist())
        ]

    def __repr__(self) -> str:
        return (
            f"ScheduledFrame(tag={self.tag}, frames={len(self)}, "
            f"active={int(self.active.sum())}, n={self.n}, "
            f"cycle={self.scheduled_cycle})"
        )


class FrameScheduler:
    """Coalesce VOQ heads into windows of frames; account fill ratio."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.frames_scheduled = 0
        self.words_scheduled = 0
        self._next_tag = 0
        self._rr_start = 0

    def next_frame(
        self, voqs: VirtualOutputQueues, cycle: int, window: int = 1
    ) -> Optional[ScheduledFrame]:
        """Pop up to *window* frames from *voqs*, or ``None`` when idle.

        The window holds as many frames as the deepest queue has words,
        capped at *window* (the asking plane's free frame slots); the
        result equals *window* consecutive one-frame calls.
        """
        n = self.n
        depths = voqs.dest_depths()
        frames = min(window, int(depths.max()))
        if frames <= 0:
            return None
        start = self._rr_start
        rows = np.arange(frames, dtype=np.int64)[:, None]
        real = depths > rows
        active = real.sum(axis=1)
        lines = np.arange(n, dtype=np.int64)
        scan = (lines - start - rows) % n
        addresses = np.argsort(np.where(real, scan, n + lines), axis=1)
        words = voqs.pop_frames(addresses)
        self._rr_start = (start + frames) % n
        tag = self._next_tag
        self._next_tag += frames
        self.frames_scheduled += frames
        self.words_scheduled += int(active.sum())
        return ScheduledFrame(tag, cycle, addresses, active, words)

    @property
    def mean_fill(self) -> float:
        """Average frame fill ratio over everything scheduled so far."""
        if not self.frames_scheduled:
            return 0.0
        return self.words_scheduled / (self.frames_scheduled * self.n)

    def snapshot(self) -> Dict[str, float]:
        return {
            "frames": self.frames_scheduled,
            "words": self.words_scheduled,
            "mean_fill": self.mean_fill,
        }
