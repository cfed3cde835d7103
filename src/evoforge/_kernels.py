"""Fused draw-and-count kernel for the hot estimation paths.

The kernel walks the counter stream of rng.sample_assignments and returns
integer counts for a pair of predicates on each point: a conjunction and
either a second conjunction or a parity.  Estimates are therefore exact
functions of (seed, s) with no float accumulation.  It is one numpy
kernel that walks rng.sample_blocks with a few BLOCK-sized buffers per
thread, kept across calls, so the memory used is bounded by the block
size, not by s.  Tests check its counts against a pure-Python reference
built on rng.mix64.
"""
from __future__ import annotations

import threading

import numpy as np

from .rng import BLOCK, check_dim, sample_blocks

# No numba backend; kept False because perfbench/worker.py reads the name.
HAVE_NUMBA = False


class _PredicateBuffers(threading.local):
    """One thread's _count_blocks buffers; see rng._BlockBuffers for why."""

    def __init__(self):
        self.tmp = np.empty(BLOCK, dtype=np.uint64)
        self.a = np.empty(BLOCK, dtype=bool)
        self.b = np.empty(BLOCK, dtype=bool)


_BUFFERS = _PredicateBuffers()


def _count_blocks(seed: int, s: int, mask_a: int, mask_b: int, n: int,
                  parity: bool) -> tuple[int, int, int]:
    """(both true, a true, b true) over s points, one block at a time."""
    ma = np.uint64(mask_a)
    mb = np.uint64(mask_b)
    buf = _BUFFERS
    c_both = c_a = c_b = 0
    for xs in sample_blocks(seed, s, n):
        m = len(xs)
        tm, am, bm = buf.tmp[:m], buf.a[:m], buf.b[:m]
        np.bitwise_and(xs, ma, out=tm)
        np.equal(tm, ma, out=am)
        np.bitwise_and(xs, mb, out=tm)
        if parity:
            np.bitwise_count(tm, out=tm)
            np.bitwise_and(tm, np.uint64(1), out=tm)
            np.logical_not(tm, out=bm)
        else:
            np.equal(tm, mb, out=bm)
        c_a += int(np.count_nonzero(am))
        c_b += int(np.count_nonzero(bm))
        np.logical_and(am, bm, out=am)
        c_both += int(np.count_nonzero(am))
    return c_both, c_a, c_b


def counts_conj_conj(seed: int, s: int, mask_r: int, mask_f: int,
                     n: int) -> tuple[int, int, int]:
    """(both true, r true, f true) over s drawn points for two conjunctions."""
    check_dim(n)
    return _count_blocks(seed, s, mask_r, mask_f, n, parity=False)


def counts_conj_parity(seed: int, s: int, mask_c: int, mask_p: int,
                       n: int) -> tuple[int, int, int]:
    """(conj true and parity even, conj true, parity even) over s points."""
    check_dim(n)
    return _count_blocks(seed, s, mask_c, mask_p, n, parity=True)
