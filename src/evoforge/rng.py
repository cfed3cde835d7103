"""Deterministic counter-based randomness.

Every stochastic quantity in the package is a pure function of a 64-bit
seed.  Streams are split by hashing (seed, index) rather than by drawing,
so any evaluation can be reproduced in isolation: sample i of stream
(seed, j) never depends on how many other draws happened elsewhere.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from functools import cache
from typing import TYPE_CHECKING

from .errors import check_range

if TYPE_CHECKING:
    import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
SEED_OFFSET = 0x6A09E667F3BCC909
MIX_C1 = 0xBF58476D1CE4E5B9
MIX_C2 = 0x94D049BB133111EB
BLOCK = 1 << 15  # samples per block of sample_blocks


def mix64(z: int) -> int:
    """Finalizing 64-bit avalanche (splitmix64 style)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_C1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_C2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Split a child seed off `seed`, one avalanche round per part.

    Used for per-generation, per-neighbor, per-trial and per-matrix-entry
    streams; children of distinct part tuples are statistically independent.
    """
    h = (seed ^ SEED_OFFSET) & MASK64
    for p in parts:
        h = mix64((h + GAMMA + (p & MASK64)) & MASK64)
    return h


def uniform_unit(seed: int) -> float:
    """One float in [0, 1) determined entirely by `seed`."""
    u = mix64(seed ^ 0x2545F4914F6CDD1D) / 2.0 ** 64
    # the top 2^10 outputs round up to 1.0
    return u if u < 1.0 else math.nextafter(1.0, 0.0)


def sample_assignments(seed: int, count: int, n: int) -> np.ndarray:
    """`count` i.i.d. uniform points of {0,1}^n, packed into uint64.

    Sample i is mix64(seed + (i+1)*GAMMA) masked to the low n bits: a pure
    counter scheme, so the whole batch vectorizes and any prefix is stable
    under a larger `count`.  This is the whole-array reference form; the
    estimators draw the same points through sample_blocks.
    """
    import numpy as np

    check_range("n", n)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + idx * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX_C2)
    z ^= z >> np.uint64(31)
    return z & np.uint64((1 << n) - 1)


@cache
def _stream_constants() -> tuple:
    """(the read-only table of (j+1)*GAMMA for j < BLOCK, and the mixer's
    multipliers and shifts as uint64), built by the first stream."""
    import numpy as np

    steps = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(GAMMA)
    steps.flags.writeable = False
    return (steps, np.uint64(MIX_C1), np.uint64(MIX_C2), np.uint64(30),
            np.uint64(27), np.uint64(31))


class _BlockBuffers(threading.local):
    """One thread's sample_blocks buffers, kept for the thread's lifetime.

    An estimate at the stock sample sizes is one to a few dozen blocks.
    Buffers allocated per call are handed back to the OS and faulted in
    again on every estimate, which costs about a third of the run time as
    system time.  They are allocated by the thread's first stream, not
    here: the module-level instance runs __init__ at import.
    """

    def __init__(self):
        self.z = self.tmp = None
        self.busy = False


_BUFFERS = _BlockBuffers()


def sample_blocks(seed: int, count: int, n: int) -> Iterator[np.ndarray]:
    """The points of sample_assignments(seed, count, n), BLOCK at a time.

    Yields consecutive slices of that array, bit for bit, but holds only
    two BLOCK-sized buffers however large `count` is.  Each yielded array
    is a view of a reused buffer that the next block overwrites, so
    consume it before advancing.  A stream opened while another one of
    the same thread is still open gets buffers of its own.
    """
    import numpy as np

    check_range("n", n)
    steps, c1, c2, s30, s27, s31 = _stream_constants()
    nested = _BUFFERS.busy
    if nested:
        z = np.empty(min(count, BLOCK), dtype=np.uint64)
        tmp = np.empty_like(z)
    else:
        if _BUFFERS.z is None:
            _BUFFERS.z = np.empty(BLOCK, dtype=np.uint64)
            _BUFFERS.tmp = np.empty(BLOCK, dtype=np.uint64)
        z, tmp = _BUFFERS.z, _BUFFERS.tmp
        _BUFFERS.busy = True
    dim_mask = np.uint64((1 << n) - 1)
    try:
        for off in range(0, count, BLOCK):
            m = min(BLOCK, count - off)
            zb, tb = z[:m], tmp[:m]
            # sample off+j is mix64(seed + (off+j+1)*GAMMA)
            np.add(steps[:m], np.uint64((seed + off * GAMMA) & MASK64),
                   out=zb)
            np.right_shift(zb, s30, out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            np.multiply(zb, c1, out=zb)
            np.right_shift(zb, s27, out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            np.multiply(zb, c2, out=zb)
            np.right_shift(zb, s31, out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            np.bitwise_and(zb, dim_mask, out=zb)
            yield zb
    finally:
        if not nested:
            _BUFFERS.busy = False


def weighted_choice(indices: list[int], weights: list[float], seed: int) -> int:
    """Pick one of `indices` with probability proportional to `weights`."""
    total = sum(weights)
    u = uniform_unit(seed) * total
    acc = 0.0
    for i, w in zip(indices, weights):
        acc += w
        if u < acc:
            return i
    return indices[-1]  # guard against accumulated rounding
