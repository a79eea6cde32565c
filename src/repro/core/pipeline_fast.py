"""The packed BNB routing kernel: every line one int64, every stage a
table lookup and a strided swap.

A BNB stage decides on address bit ``b^i`` alone, and "all other
slices' sw(1)s copy its switch settings" (PAPER.md, Definition 5).  So
the kernel carries each line as one int64 word, ``address << 32 |
source``: the address is the slice the splitters read, the source line
is the follower slice that rides along, and one move per stage carries
both.  :func:`route_packed` routes a lone frame ``(n,)`` or a stack
``(batch, n)`` — a lone frame is a batch of one — and each inner
stage does three things:

1. read the slice bit, ``(word >> (32 + shift)) & 1``, as int8;
2. decide every splitter of the stage from the frozen arbiter tables
   of :mod:`repro.core.plan`: the 8 bits of a tile become one key via
   a ``uint64`` multiply, and one ``take`` yields the tile's 4
   controls.  Splitters wider than 8 lines first look up the flag each
   tile's root receives from the tile parities, with the same tile
   step applied again above 64 lines;
3. exchange and unshuffle in one strided xor-swap: ``delta = (even ^
   odd) * control``, and the even / odd lines of each block, each
   xored with ``delta``, fill the block's two halves of a preallocated
   buffer.  The last inner stage's block is the whole nested network,
   which makes the main-stage unshuffle ``U_{m-i}^m`` the same write.

Nothing touches a Python-level ``Word``, ``Splitter`` or ``Arbiter``,
and there are no index arrays.  :func:`route_frame_sources`,
:func:`route_frame_batch`, :func:`route_frame_arrivals` and
:meth:`~repro.core.bnb.BNBNetwork.route_fast` all pack, call
:func:`route_packed` and unpack.

Physical faults ride along as data.  With a
:class:`~repro.core.plan.FaultMask`, a stuck switch is a masked
``where`` over the stage's control column, and a dead link overwrites
the address half of its line's word with
:data:`~repro.core.plan.DEAD_ADDRESS` at stage input.  An arithmetic
shift reads every address bit of that sentinel as 1, so it survives
routing: ``word >> 32`` hands it back as the arrived address, next to
``word & 0xFFFFFFFF``, the source.  Because each stage re-decides its
splitters from live addresses, the masked kernel agrees with the
adaptive object model (``route_with_stuck_switch`` /
``PipelinedBNBFabric(control_override=...)``) bit for bit; the
differential suites drive both with identical frames and faults.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .plan import (
    DEAD_ADDRESS,
    ROOT_CONTROLS,
    ROOT_FLAGS,
    TILE_CONTROLS,
    TILE_FLAGS,
    TILE_PARITY,
    FaultMask,
    compiled_plan,
)

__all__ = [
    "pack_frames",
    "route_frame_arrivals",
    "route_frame_batch",
    "route_frame_sources",
    "route_packed",
]

#: A dead link's word: the source half kept, the address half all ones.
_DEAD_HIGH = np.int64(DEAD_ADDRESS) << np.int64(32)
_SOURCE_BITS = np.int64(0xFFFFFFFF)

#: Reading a key from ``lanes`` int8 bits: view them as one
#: little-endian unsigned integer and multiply.  Lane ``k`` times the
#: multiplier's byte ``lanes - 1 - k`` (which is ``2**k``) lands on bit
#: ``k`` of the top byte, with no carries, so the top byte is the key.
_KEY_READERS = {
    2: ("<u2", np.uint16(0x0102), np.uint16(8), np.int16),
    4: ("<u4", np.uint32(0x01020408), np.uint32(24), np.int32),
    8: ("<u8", np.uint64(0x0102040810204080), np.uint64(56), np.int64),
}


def _keys(bits: np.ndarray, lanes: int) -> np.ndarray:
    """The key of every run of *lanes* contiguous int8 bits, flattened."""
    little, multiplier, shift, signed = _KEY_READERS[lanes]
    return ((bits.view(little) * multiplier) >> shift).view(signed).reshape(-1)


def _narrow(table: np.ndarray, lines: int, lanes: int, dtype: type) -> np.ndarray:
    """*table* for a *lines*-line arbiter (an 8-line one padded with zero
    lines): its ``2**lines`` keys, each entry cut to its first *lanes*
    lanes and repacked as *dtype*, so a ``take`` yields contiguous lanes."""
    rows = table[: 1 << lines].view(np.int8).reshape(1 << lines, -1)
    narrow = np.ascontiguousarray(rows[:, :lanes]).view(dtype).reshape(-1)
    narrow.flags.writeable = False
    return narrow


#: The flags a tree over 2, 4 or 8 tile roots sends them, by key.
_ROOT_FLAGS = {
    2: _narrow(ROOT_FLAGS, 2, 2, np.int16),
    4: _narrow(ROOT_FLAGS, 4, 4, np.int32),
    8: ROOT_FLAGS,
}
#: The 2 controls of a 4-line splitter, by key.
_PAIR_CONTROLS = _narrow(ROOT_CONTROLS, 4, 2, np.int16)


def _tile_flags(parity: np.ndarray) -> np.ndarray:
    """The flag each tile root receives, from tile parities ``(blocks,
    tiles)``: the arbiter tree above the tiles, one tile step per 8
    tiles.  Returned flat."""
    tiles = parity.shape[1]
    if tiles <= 8:
        return _ROOT_FLAGS[tiles].take(_keys(parity, tiles)).view(np.int8)
    keys = _keys(parity, 8)
    above = _tile_flags(TILE_PARITY.take(keys).reshape(-1, tiles // 8))
    return TILE_FLAGS.take((keys << 1) | above).view(np.int8)


def _controls(bits: np.ndarray, width: int) -> np.ndarray:
    """Every switch control of a column of *width*-line splitters."""
    if width == 2:
        return bits[0::2]  # sp(1): the upper input bit is the control
    if width == 4:
        return _PAIR_CONTROLS.take(_keys(bits, 4)).view(np.int8)
    keys = _keys(bits, 8)
    if width == 8:
        return ROOT_CONTROLS.take(keys).view(np.int8)
    flags = _tile_flags(TILE_PARITY.take(keys).reshape(-1, width // 8))
    return TILE_CONTROLS.take((keys << 1) | flags).view(np.int8)


def route_packed(
    m: int,
    words: np.ndarray,
    mask: Optional[FaultMask] = None,
    stages: Optional[int] = None,
) -> np.ndarray:
    """Route packed words ``address << 32 | source`` through the network.

    *words* is one frame ``(n,)`` or a stack ``(batch, n)``; the result
    has the same shape and holds, on each output line, the word that
    arrives there.  *stages* stops after that many main stages (default:
    all ``m``), which exposes every stage prefix to the tests.  The
    input array is not modified.
    """
    plan = compiled_plan(m)
    n = plan.n
    shape = words.shape
    words = words.reshape(-1)
    # Two owned buffers, written alternately; the input is only read.
    buffers = np.empty((2, words.shape[0]), dtype=np.int64)
    scratch = np.empty(words.shape[0], dtype=np.int64)
    bits = np.empty(words.shape[0], dtype=np.int8)
    steps = 0
    for stage in plan.stages[:stages]:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                frames = words.reshape(-1, n)
                words = np.where(dead, frames | _DEAD_HIGH, frames).reshape(-1)
        shift = 32 + stage.shift
        widths = stage.inner_widths
        for j, width in enumerate(widths):
            np.right_shift(words, shift, out=scratch)
            np.bitwise_and(scratch, 1, out=bits, casting="unsafe")
            controls = _controls(bits, width)
            if mask is not None:
                override = mask.overrides.get((stage.stage, j))
                if override is not None:
                    forced, values = override
                    controls = np.where(
                        forced.reshape(-1),
                        values.reshape(-1),
                        controls.reshape(-1, n // 2),
                    )
            # Exchange pair (2t, 2t+1) where its control is 1, then
            # unshuffle: the even lines of each block fill its first
            # half, the odd lines its second.  An inner stage's block is
            # its splitter; the last inner stage's block is the nested
            # network, i.e. the main-stage unshuffle (a single pair, so
            # no move, after the last main stage).
            half = (width if j < len(widths) - 1 else widths[0]) // 2
            pairs = words.reshape(-1, half, 2)
            delta = scratch[: words.shape[0] // 2].reshape(-1, half)
            np.bitwise_xor(pairs[..., 0], pairs[..., 1], out=delta)
            np.multiply(delta, controls.reshape(-1, half), out=delta)
            target = buffers[steps & 1]
            steps += 1
            # numpy runs only the innermost axis of its iteration as a
            # fast loop; narrow blocks make the block axis innermost.
            np.bitwise_xor(
                pairs.transpose(2, 1, 0),
                delta.T[None, :, :],
                out=target.reshape(-1, 2, half).transpose(1, 2, 0),
                order="C" if half <= 4 else "K",
            )
            words = target
    return words.reshape(shape)


def pack_frames(m: int, addresses: np.ndarray) -> np.ndarray:
    """Pack one frame ``(n,)`` or a stack ``(batch, n)`` of addresses
    into kernel words, each line's source being its own index."""
    plan = compiled_plan(m)
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.ndim not in (1, 2) or addresses.shape[-1] != plan.n:
        raise ValueError(
            f"a frame for m={m} needs shape ({plan.n},) or "
            f"(batch, {plan.n}), got {addresses.shape}"
        )
    return (addresses << 32) | plan.identity


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
    words = route_packed(m, pack_frames(m, addresses), mask)
    return words & _SOURCE_BITS, words >> 32


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
    return route_packed(m, pack_frames(m, addresses), mask) & _SOURCE_BITS


def route_frame_batch(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> np.ndarray:
    """Combinationally route a whole **batch** of frames in one pass.

    *addresses* has shape ``(batch, n)`` — each row an independent
    full permutation — and ``result[b, line]`` is the input line of
    frame ``b`` whose word arrives on output ``line``.  Every stage
    steps all frames with one set of numpy calls, so the per-call
    overhead amortizes across the batch; this is the kernel behind the
    gateway's ``send_batch`` on an ``engine="bnb"``
    :class:`~repro.server.planes.BackendPlane`.  Row for row identical
    to :func:`route_frame_sources` on each frame alone, with or without
    a :class:`~repro.core.plan.FaultMask` (the mask broadcasts: the
    same physical fault afflicts every frame).
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 2:
        raise ValueError(
            f"a frame batch for m={m} needs shape (batch, {1 << m}), "
            f"got {addresses.shape}"
        )
    return route_frame_sources(m, addresses, mask)
