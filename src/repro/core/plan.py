"""Compiled routing plans, fault masks and the frozen arbiter tables.

The BNB network's wiring is entirely static — only the splitter
*controls* depend on the words in flight.  This module holds everything
the packed kernel in :mod:`repro.core.pipeline_fast` needs besides the
words themselves:

* :class:`CompiledPlan` (cached per ``m`` by :func:`compiled_plan`):
  per main stage, the address bit it decides on and the widths of its
  nested-GBN inner stages.  No index arrays: the kernel's interstage
  unshuffles are strided writes and reshapes, so the plan is a few
  small tuples plus the identity line order.
* The **arbiter tables**.  A function node of the arbiter (Fig. 5) is a
  pure function of its input bits, so an 8-line tile of the arbiter
  tree is a pure function of its 8 bits and the flag its root receives.
  The tables map an 8-bit tile key (bit ``k`` is line ``k``'s slice
  bit) to that tile's parity, its 4 switch controls and the 8 flags it
  sends down — packed as int8 lanes of one int32 or int64 entry, so a
  single ``take`` decides every switch of a stage.  They do not depend
  on ``m``; they are derived once at import from the reference
  :func:`vector_arbiter_flags` / :func:`vector_splitter_controls` (which
  tests pin to the object :class:`~repro.core.splitter.Splitter` and
  :class:`~repro.core.arbiter.Arbiter`) and frozen.
* :class:`FaultMask`: physical faults as data.  Stuck switches become a
  masked ``where`` over a stage's control column; dead links clobber
  the address half of a packed word to :data:`DEAD_ADDRESS`, whose
  every address bit reads 1, so a word crossing a dead link keeps
  routing (as garbage) and keeps the sentinel until the output-side
  address check flags it.  Because the kernel re-decides every splitter
  from the addresses actually present on its inputs — exactly like the
  adaptive object model in :mod:`repro.faults.adaptive` — a masked
  pass reproduces :func:`~repro.faults.adaptive.route_with_stuck_switch`
  bit for bit (pinned in the tests).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Iterable, Tuple

import numpy as np

from ..exceptions import FaultError

__all__ = [
    "CompiledPlan",
    "DEAD_ADDRESS",
    "FaultMask",
    "ROOT_CONTROLS",
    "ROOT_FLAGS",
    "StagePlan",
    "TILE_CONTROLS",
    "TILE_FLAGS",
    "TILE_PARITY",
    "build_fault_mask",
    "compiled_plan",
    "vector_arbiter_flags",
    "vector_splitter_controls",
]

#: The dead-link sentinel.  As an int64, ``(-1 >> shift) & 1 == 1`` for
#: every shift, so a clobbered word still routes deterministically (as
#: an all-ones address) and the sentinel survives every later stage.
DEAD_ADDRESS = np.int64(-1)


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """The static structure of one main stage of the BNB network.

    Main stage ``i`` runs ``2**i`` nested networks of ``2**block_exp``
    lines side by side; its inner (nested-GBN) stage ``j`` is a column
    of splitters ``inner_widths[j]`` lines wide, all deciding on address
    bit ``shift``.
    """

    stage: int
    block_exp: int  # nested networks have size 2**block_exp
    shift: int  # address bit b^stage sits at this LSB-first position
    inner_widths: Tuple[int, ...]

    @property
    def nested_count(self) -> int:
        return 1 << self.stage


@dataclasses.dataclass(frozen=True)
class CompiledPlan:
    """All static routing structure of an ``N = 2**m`` BNB network."""

    m: int
    n: int
    stages: Tuple[StagePlan, ...]
    #: ``identity[j] == j``: the source half of a freshly packed frame.
    identity: np.ndarray


@dataclasses.dataclass(frozen=True)
class FaultMask:
    """Physical faults of one fabric instance, as dataplane arrays.

    ``overrides[(i, j)]`` is a ``(forced, values)`` pair of arrays
    shaped ``(2**(i + j), width // 2)`` — one row per splitter box of
    inner stage ``j`` of main stage ``i`` (row ``l * 2**j + box``, the
    order ``current.reshape(-1, width)`` produces), one column per
    switch.  Where ``forced`` is True the switch control is stuck at
    ``values`` regardless of what the arbiter decided; everywhere else
    the healthy control passes through.  ``dead_links[i]`` flags input
    lines of main stage ``i`` whose words are clobbered to
    :data:`DEAD_ADDRESS` on entry.

    The declarative ``stuck`` / ``dead`` tuples that built the mask are
    retained so fault sets can be merged (live injection rebuilds the
    mask from the union) and reported.
    """

    m: int
    stuck: Tuple[Tuple[Tuple[int, int, int, int, int], int], ...]
    dead: Tuple[Tuple[int, int], ...]
    overrides: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]
    dead_links: Dict[int, np.ndarray]

    def describe(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "stuck": [
                {"coordinate": list(coordinate), "value": value}
                for coordinate, value in self.stuck
            ],
            "dead_links": [
                {"main_stage": stage, "line": line}
                for stage, line in self.dead
            ],
        }


def build_fault_mask(
    m: int,
    stuck: Iterable[Tuple[Tuple[int, int, int, int, int], int]] = (),
    dead_links: Iterable[Tuple[int, int]] = (),
) -> FaultMask:
    """Compile a declarative fault set into per-stage override arrays.

    *stuck* items are ``((main_stage, nested, nested_stage, box,
    switch), value)`` — the same five-axis coordinates the object fault
    model uses (:class:`repro.faults.injector.SwitchCoordinate` fields,
    kept as plain tuples so the core layer stays import-free of the
    faults layer).  *dead_links* items are ``(main_stage, line)``.
    """
    if m < 1:
        raise ValueError(f"a fault mask needs m >= 1, got {m}")
    n = 1 << m
    stuck = tuple(
        (tuple(int(c) for c in coordinate), int(value))
        for coordinate, value in stuck
    )
    dead = tuple((int(stage), int(line)) for stage, line in dead_links)
    overrides: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
    for coordinate, value in stuck:
        if len(coordinate) != 5:
            raise FaultError(
                f"stuck coordinate needs 5 axes (main_stage, nested, "
                f"nested_stage, box, switch), got {coordinate}"
            )
        i, nested, j, box, switch = coordinate
        if not 0 <= i < m:
            raise FaultError(f"main stage {i} out of range for m={m}")
        block_exp = m - i
        if not 0 <= nested < (1 << i):
            raise FaultError(f"nested index {nested} out of range at stage {i}")
        if not 0 <= j < block_exp:
            raise FaultError(f"nested stage {j} out of range at stage {i}")
        width = 1 << (block_exp - j)
        if not 0 <= box < (1 << j):
            raise FaultError(f"box {box} out of range at stage ({i}, {j})")
        if not 0 <= switch < width // 2:
            raise FaultError(
                f"switch {switch} out of range for width-{width} boxes"
            )
        if value not in (0, 1):
            raise FaultError(f"stuck value must be 0 or 1, got {value}")
        key = (i, j)
        if key not in overrides:
            rows = 1 << (i + j)
            overrides[key] = (
                np.zeros((rows, width // 2), dtype=bool),
                np.zeros((rows, width // 2), dtype=np.int64),
            )
        forced, values = overrides[key]
        row = (nested << j) + box
        forced[row, switch] = True
        values[row, switch] = value
    dead_map: Dict[int, np.ndarray] = {}
    for stage, line in dead:
        if not 0 <= stage < m:
            raise FaultError(f"main stage {stage} out of range for m={m}")
        if not 0 <= line < n:
            raise FaultError(f"line {line} out of range for n={n}")
        if stage not in dead_map:
            dead_map[stage] = np.zeros(n, dtype=bool)
        dead_map[stage][line] = True
    for forced, values in overrides.values():
        forced.flags.writeable = False
        values.flags.writeable = False
    for flags in dead_map.values():
        flags.flags.writeable = False
    return FaultMask(
        m=m, stuck=stuck, dead=dead, overrides=overrides, dead_links=dead_map
    )


@functools.lru_cache(maxsize=None)
def compiled_plan(m: int) -> CompiledPlan:
    """Build (once per process per ``m``) the compiled routing plan."""
    if m < 1:
        raise ValueError(f"a routing plan needs m >= 1, got {m}")
    n = 1 << m
    stages = tuple(
        StagePlan(
            stage=i,
            block_exp=m - i,
            shift=m - 1 - i,
            inner_widths=tuple(1 << (m - i - j) for j in range(m - i)),
        )
        for i in range(m)
    )
    identity = np.arange(n, dtype=np.int64)
    # The plan is cached and shared by every fabric, plane and worker of
    # this size; freeze it so no caller can corrupt the cache.
    identity.flags.writeable = False
    return CompiledPlan(m=m, n=n, stages=stages, identity=identity)


def vector_arbiter_flags(bits: np.ndarray) -> np.ndarray:
    """Vectorized arbiter tree over blocks of bit rows.

    *bits* has shape ``(blocks, width)`` with ``width >= 2``; returns the
    flag every input line receives, same shape.  The log-depth form of
    :class:`~repro.core.arbiter.Arbiter`: an XOR-up pass, then a
    flag-down pass in which the root echoes its own up-value.  (A
    two-input tree is one function node; the splitter ``sp(1)`` does not
    use it — its control is the upper input bit.)
    """
    ups = []
    current = bits
    while current.shape[1] > 1:
        current = current[:, 0::2] ^ current[:, 1::2]
        ups.append(current)
    # All values are 0/1 ints, so the per-node selection "u == 0 picks
    # (0, 1), u == 1 echoes the parent flag" is pure bit arithmetic:
    # y1 = z & u, y2 = z | ~u — cheaper than the equivalent ``where``.
    z_down = ups[-1]  # shape (blocks, 1)
    for level in range(len(ups) - 1, -1, -1):
        u = ups[level]
        interleaved = np.empty((u.shape[0], u.shape[1] * 2), dtype=bits.dtype)
        interleaved[:, 0::2] = z_down & u
        interleaved[:, 1::2] = z_down | (u ^ 1)
        z_down = interleaved
    return z_down


def vector_splitter_controls(bits: np.ndarray) -> np.ndarray:
    """Vectorized arbiter + switch-setting over blocks of bit rows.

    *bits* has shape ``(blocks, width)``; returns controls of shape
    ``(blocks, width // 2)``.  Mirrors :class:`~repro.core.splitter.Splitter`
    exactly (tests enforce agreement element by element).  The reference
    the arbiter tables are derived from; the kernel itself reads the
    tables.
    """
    if bits.shape[1] == 2:
        # sp(1): the upper input bit is the control.
        return bits[:, 0:1].copy()
    return bits[:, 0::2] ^ vector_arbiter_flags(bits)[:, 0::2]


def _lanes(rows: np.ndarray, dtype: type) -> np.ndarray:
    """Pack each row of int8 lanes into one *dtype* table entry, frozen."""
    table = np.ascontiguousarray(rows, dtype=np.int8).view(dtype).reshape(-1)
    table.flags.writeable = False
    return table


def _build_tables() -> Tuple[np.ndarray, ...]:
    # Row k holds the 8 bits of tile key k, line j's bit being key bit j.
    keys = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.int8)
    parity = np.bitwise_xor.reduce(keys, axis=1)
    # To hand a tile's root the flag f, pair the tile with a sibling of
    # parity 1 - f under a 16-line root.  Under an odd tile that root
    # XORs to f: 1 echoes 1 down to the tile, 0 generates 0 for its
    # upper child.  An even tile generates its own flags and ignores f.
    sibling = np.zeros((2, 8), dtype=np.int8)
    sibling[0, 0] = 1
    pairs = np.concatenate(
        [np.repeat(keys, 2, axis=0), np.tile(sibling, (256, 1))], axis=1
    )  # row key << 1 | f
    return (
        _lanes(parity, np.int8),
        _lanes(vector_splitter_controls(keys), np.int32),
        _lanes(vector_arbiter_flags(keys), np.int64),
        _lanes(vector_splitter_controls(pairs)[:, :4], np.int32),
        _lanes(vector_arbiter_flags(pairs)[:, :8], np.int64),
    )


#: The arbiter tables, indexed by an 8-bit tile key (bit ``k`` is line
#: ``k``'s slice bit).  ``TILE_PARITY[key]`` is the tile's XOR.
#: ``ROOT_*[key]`` describe a tile that is a whole 8-line arbiter (its
#: root echoes its parity); ``TILE_*[key << 1 | f]`` a tile whose root
#: receives flag ``f`` from above.  ``*_CONTROLS`` entries are the 4
#: switch controls of the tile as int8 lanes of an int32; ``*_FLAGS``
#: entries the 8 flags it sends down, as int8 lanes of an int64.  A key
#: whose upper bits are 0 describes a narrower arbiter padded with
#: zero lines, which leaves its flags unchanged: the padding's subtree
#: XORs to 0, so the root's echo and forwarding are the same.
TILE_PARITY, ROOT_CONTROLS, ROOT_FLAGS, TILE_CONTROLS, TILE_FLAGS = (
    _build_tables()
)
