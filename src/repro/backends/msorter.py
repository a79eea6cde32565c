"""Multiway-sorter backend: wide leaf sorters + odd-even merge tree.

The sorting-network rival, in the spirit of the multiway n-sorter
construction (arxiv 1407.0961): instead of building the whole network
from 2-sorters like :class:`~repro.baselines.batcher.BatcherNetwork`,
the input is first cut into blocks of ``2**LEAF_EXP`` lines, each block
sorted by one *n-sorter* (here: a single vectorized ``argsort`` over
all blocks at once — the software analogue of a wide sorter element),
and the sorted runs are then combined by Batcher's odd-even **merge**
tree only.  Replacing the bottom ``LEAF_EXP * (LEAF_EXP + 1) / 2``
comparator stages with one leaf pass is exactly where the multiway
construction saves depth over a pure 2-sorter network.

The merge tree reuses the repository's comparator generator
(:func:`repro.baselines.batcher._odd_even_merge`) and ASAP levelizer
(:meth:`~repro.baselines.batcher.BatcherNetwork._levelize`), compiled
once per ``m`` into frozen per-stage index-pair arrays; a comparator
stage is then two fancy-indexed ``where`` passes — and the same arrays
route a whole ``(batch, n)`` stack by indexing the line axis, the
frame-axis vectorization the batch dataplane introduced.

Sorting on the destination address delivers address ``a`` to output
``a`` (the paper's own sorter-as-router argument), so ``sources`` is
simply the argsorted line index carried through every exchange.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..baselines.batcher import BatcherNetwork, _odd_even_merge

__all__ = ["LEAF_EXP", "MultiwaySorterBackend"]

#: Leaf sorter width exponent: blocks of ``2**LEAF_EXP`` lines are
#: sorted by one vectorized argsort before the merge tree runs.
LEAF_EXP = 3


def _merge_tree_pairs(m: int, leaf_exp: int) -> List[Tuple[int, int]]:
    """All merge-tree comparators above the leaf sorters, in dependency
    order: runs of ``2**leaf_exp`` merge pairwise up to ``2**m``."""
    n = 1 << m
    pairs: List[Tuple[int, int]] = []
    for run_exp in range(leaf_exp, m):
        run = 1 << run_exp
        for lo in range(0, n, 2 * run):
            pairs.extend(_odd_even_merge(lo, lo + 2 * run - 1, 1))
    return pairs


class MultiwaySorterBackend:
    """Argsort leaf sorters feeding a compiled odd-even merge tree."""

    name = "msorter"

    def __init__(self, m: int) -> None:
        self.m = m
        self.n = 1 << m
        self.leaf_exp = min(m, LEAF_EXP)
        self.leaf_width = 1 << self.leaf_exp
        self.leaf_count = self.n >> self.leaf_exp
        # Compile-once: per-stage comparator endpoint arrays.  Stages
        # come from the same ASAP levelization the Batcher baseline
        # uses, so the merge tree's depth accounting matches it.
        stages = BatcherNetwork._levelize(
            _merge_tree_pairs(m, self.leaf_exp)
        )
        compiled = []
        for stage in stages:
            low = np.asarray([i for i, _j in stage], dtype=np.int64)
            high = np.asarray([j for _i, j in stage], dtype=np.int64)
            low.flags.writeable = False
            high.flags.writeable = False
            compiled.append((low, high))
        self.stages = tuple(compiled)
        # Within-frame line base of every leaf block, for source tracking.
        leaf_bases = (
            np.arange(self.leaf_count, dtype=np.int64) * self.leaf_width
        )[:, None]
        leaf_bases.flags.writeable = False
        self.leaf_bases = leaf_bases

    @property
    def stage_count(self) -> int:
        """Merge-tree comparator stages after the single leaf pass."""
        return len(self.stages)

    def _leaf_sort(
        self, keys: np.ndarray, blocks: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sort every leaf block of *keys*; return (keys, sources).

        *keys* arrives shaped ``(blocks, leaf_width)`` with the frame
        axis (if any) folded into *blocks*; sources are within-frame
        line indices.
        """
        order = np.argsort(keys, axis=1, kind="stable")
        sorted_keys = np.take_along_axis(keys, order, axis=1)
        bases = self.leaf_bases
        if blocks != self.leaf_count:
            bases = np.tile(bases, (blocks // self.leaf_count, 1))
        return sorted_keys, order + bases

    def route_frame(self, addresses: np.ndarray) -> np.ndarray:
        keys, sources = self._leaf_sort(
            np.asarray(addresses, dtype=np.int64).reshape(
                self.leaf_count, self.leaf_width
            ),
            self.leaf_count,
        )
        keys = keys.reshape(self.n)
        sources = sources.reshape(self.n)
        for low, high in self.stages:
            a, b = keys[low], keys[high]
            swap = a > b
            keys[low] = np.where(swap, b, a)
            keys[high] = np.where(swap, a, b)
            sa, sb = sources[low], sources[high]
            sources[low] = np.where(swap, sb, sa)
            sources[high] = np.where(swap, sa, sb)
        return sources

    def route_frame_batch(self, addresses: np.ndarray) -> np.ndarray:
        batch = addresses.shape[0]
        keys, sources = self._leaf_sort(
            np.asarray(addresses, dtype=np.int64).reshape(
                batch * self.leaf_count, self.leaf_width
            ),
            batch * self.leaf_count,
        )
        keys = keys.reshape(batch, self.n)
        sources = sources.reshape(batch, self.n)
        for low, high in self.stages:
            a, b = keys[:, low], keys[:, high]
            swap = a > b
            keys[:, low] = np.where(swap, b, a)
            keys[:, high] = np.where(swap, a, b)
            sa, sb = sources[:, low], sources[:, high]
            sources[:, low] = np.where(swap, sb, sa)
            sources[:, high] = np.where(swap, sa, sb)
        return sources

    def __repr__(self) -> str:
        return (
            f"MultiwaySorterBackend(m={self.m}, n={self.n}, "
            f"leaf_width={self.leaf_width}, stages={self.stage_count})"
        )
