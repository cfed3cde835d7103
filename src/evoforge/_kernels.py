"""Fused draw-and-count kernel for every sampled estimate.

The kernel walks the counter stream of rng.sample_assignments and returns
integer counts for a pair of predicates on each point.  Each predicate is
a side: a tuple of clause masks, true where a point holds every bit of
one of them (a conjunction is one clause, a DNF one per clause), or a
parity, one mask with its flag set, true where a point holds an even
number of its bits.  Estimates are therefore exact functions of (seed, s)
with no float accumulation.

Two backends give the same counts.  The compiled one is _count.c, built
on first import by the system C compiler ($CC, else cc) with plain -O3
and cached under $XDG_CACHE_HOME/evoforge (default ~/.cache/evoforge),
or, where that cannot be written, in a temporary directory of its own
process.  With glibc on x86-64 it holds clones for AVX-512, AVX2 and the
baseline, and the dynamic loader picks one for the CPU it runs on.  On
x86-64 it also holds count_avx512, a loop written by hand in AVX-512
intrinsics for the pairs the experiments run (two conjunctions, a
conjunction and a parity, two lists of up to 4 clauses).  It counts where
each side fails, a clause list by a chain of masked tests, and for
n <= 21, where a point reads only the low 52 bits of the mixer's second
product, does that multiply with IFMA.  For n <= 16 with every mask below
2^16 it tests and counts 32 points a step in 16-bit lanes, adding its
counters into 64-bit totals every 32,767 steps; any other pair of those
runs 8 points a step in 64-bit lanes.  The last step counts the points
left under a lane mask.  The import binds it when the library's avx512()
says this CPU runs AVX-512 F, DQ, VPOPCNTDQ, IFMA, BW and BITALG, and
count otherwise.  Both give the same counts, and LOOP names the one bound.  It
draws each point inline, holds no buffers and needs no numpy.  When it
cannot be built or loaded, _count_blocks runs: numpy over
rng.sample_blocks with a few BLOCK-sized buffers per thread, kept across
calls, so the memory used is bounded by the block size, not by s.  Only
this fallback imports numpy, on its first count, which also allocates the
thread's buffers.  BACKEND names the one that runs.  Tests check both
against a pure-Python reference built on rng.mix64.
"""
from __future__ import annotations

import atexit
import contextlib
import ctypes
import hashlib
import os
import shutil
import struct
import tempfile
import threading
from importlib import resources

from .errors import ParameterError, check_range
from .rng import BLOCK, MASK64, sample_blocks

_FLAGS = ("-O3", "-shared", "-fPIC")


def _library_path(source: bytes, compiler: str) -> str:
    """Where the build of `source` by `compiler` is cached.

    The name hashes everything the binary depends on: the source, the
    flags, the compiler and the machine type (os.uname().machine, the
    string platform.machine() returns on POSIX).  Not the CPU: the build
    picks its code path when it loads, so it runs on any CPU of the type.
    """
    h = hashlib.sha256()
    for part in (source, " ".join(_FLAGS).encode(), compiler.encode(),
                 str(os.stat(compiler).st_mtime_ns).encode(),
                 os.uname().machine.encode()):
        h.update(hashlib.sha256(part).digest())
    cache = (os.environ.get("XDG_CACHE_HOME")
             or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(cache, "evoforge", f"count-{h.hexdigest()[:20]}.so")


def _build(source: bytes, compiler: str, path: str) -> str:
    """Compile `source` to `path`, through a temporary file in the same
    directory, so that no process ever loads a half-written library, and
    return the path built.  Where that directory cannot be made or written,
    build into a new temporary directory instead, removed at exit."""
    import subprocess  # here, so that a cache hit does not import it

    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path))
    except OSError:
        scratch = tempfile.mkdtemp(prefix="evoforge-")
        atexit.register(shutil.rmtree, scratch, ignore_errors=True)
        path = os.path.join(scratch, os.path.basename(path))
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=scratch)
    os.close(fd)
    try:
        done = subprocess.run([compiler, *_FLAGS, "-o", tmp, "-x", "c", "-"],
                              input=source, capture_output=True)
        if done.returncode:
            first = done.stderr.decode(errors="replace").partition("\n")[0]
            raise OSError(f"{compiler} exited {done.returncode}"
                          + (f": {first}" if first else ""))
        os.replace(tmp, path)
        return path
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _compiler() -> str | None:
    """The resolved path of $CC, else cc, or None when there is none."""
    found = shutil.which(os.environ.get("CC") or "cc")
    return found and os.path.realpath(found)


def _bind(path: str, name: str = "count"):
    """The function `name` of the library at `path`, typed for ctypes as
    count is."""
    fn = getattr(ctypes.CDLL(path), name)
    fn.argtypes = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64))
    fn.restype = None
    return fn


def _pick(path: str):
    """(the count loop of the library at `path`, its LOOP name): the hand
    loop where the library has one and says the CPU runs it, else count.
    A library without the hand loop's symbols is a portable one."""
    lib = ctypes.CDLL(path)
    probe = getattr(lib, "avx512", None)
    if probe is not None and hasattr(lib, "count_avx512") and probe() == 1:
        return _bind(path, "count_avx512"), "avx512"
    return _bind(path), "portable"


def _load_compiled():
    """(the compiled count loop of _count.c, its LOOP name, its library's
    path, None), or (None, "none", None, why not) when there is no
    compiler, the compile fails or the library does not load.  A cache hit
    starts no process."""
    try:
        source = resources.files(__package__).joinpath("_count.c").read_bytes()
        compiler = _compiler()
        if compiler is None:
            why = f"{os.environ.get('CC') or 'cc'} not found"
            return None, "none", None, why
        path = _library_path(source, compiler)
        if not os.path.exists(path):
            path = _build(source, compiler, path)
        return (*_pick(path), path, None)
    except (OSError, AttributeError) as exc:
        return None, "none", None, str(exc)


# LOOP names the compiled loop that runs: avx512 (the hand loop), portable
# (count) or none (the numpy fallback).  FALLBACK says why the numpy
# fallback runs; None on the compiled backend.
_count_c, LOOP, LIBRARY, FALLBACK = _load_compiled()
BACKEND = "numpy" if _count_c is None else "c"
# perfbench/run.py reads HAVE_NUMBA as "a compiled loop draws its points
# inline", which the C loop does; kept until the benchmark reads BACKEND.
HAVE_NUMBA = BACKEND == "c"


class _PredicateBuffers(threading.local):
    """One thread's _count_blocks buffers; see rng._BlockBuffers for why,
    and for why the thread's first count allocates them."""

    def __init__(self):
        self.tmp = self.a = self.b = self.hit = None


_BUFFERS = _PredicateBuffers()


def _holds(xs, masks, parity, tm, hit, out) -> None:
    """out = the truth values of the side (masks, parity) at xs; tm and hit
    are scratch buffers of the same length."""
    import numpy as np

    np.bitwise_and(xs, masks[0], out=tm)
    if parity:
        np.bitwise_count(tm, out=tm)
        np.bitwise_and(tm, np.uint64(1), out=tm)
        np.logical_not(tm, out=out)
        return
    np.equal(tm, masks[0], out=out)
    for m in masks[1:]:
        np.bitwise_and(xs, m, out=tm)
        np.equal(tm, m, out=hit)
        np.logical_or(out, hit, out=out)


def _count_blocks(seed: int, s: int, a: tuple, parity_a: bool, b: tuple,
                  parity_b: bool, n: int) -> tuple[int, int, int]:
    """(both true, a true, b true) over s points, one block at a time."""
    import numpy as np

    ma = [np.uint64(m) for m in a]
    mb = [np.uint64(m) for m in b]
    buf = _BUFFERS
    if buf.tmp is None:
        buf.tmp = np.empty(BLOCK, dtype=np.uint64)
        buf.a = np.empty(BLOCK, dtype=bool)
        buf.b = np.empty(BLOCK, dtype=bool)
        buf.hit = np.empty(BLOCK, dtype=bool)
    c_both = c_a = c_b = 0
    for xs in sample_blocks(seed, s, n):
        m = len(xs)
        tm, hit, am, bm = buf.tmp[:m], buf.hit[:m], buf.a[:m], buf.b[:m]
        _holds(xs, ma, parity_a, tm, hit, am)
        _holds(xs, mb, parity_b, tm, hit, bm)
        c_a += int(np.count_nonzero(am))
        c_b += int(np.count_nonzero(bm))
        np.logical_and(am, bm, out=am)
        c_both += int(np.count_nonzero(am))
    return c_both, c_a, c_b


class _Out(threading.local):
    """One thread's out array for the compiled loop."""

    def __init__(self):
        self.out = (ctypes.c_int64 * 3)()


_OUT = _Out()
_PACKERS: dict = {}


def _count_compiled(seed: int, s: int, a: tuple, parity_a: bool, b: tuple,
                    parity_b: bool, n: int) -> tuple[int, int, int]:
    """_count_blocks by the compiled loop, which must have loaded."""
    ka, kb = len(a), len(b)
    pack = _PACKERS.get(ka + kb)
    if pack is None:  # the frame of _count.c: 7 words, then the masks
        pack = _PACKERS[ka + kb] = struct.Struct(f"={7 + ka + kb}Q").pack
    out = _OUT.out
    _count_c(pack(seed, s, n, ka, parity_a, kb, parity_b, *a, *b), out)
    return out[0], out[1], out[2]


def _count(seed: int, s: int, a: tuple, parity_a: bool, b: tuple,
           parity_b: bool, n: int) -> tuple[int, int, int]:
    """_count_blocks, on the backend BACKEND names, for arguments both
    backends take: the compiled one reads each as a 64-bit word, s signed."""
    check_range("n", n)
    check_range("seed", seed)
    if not a or not b:
        raise ParameterError("a side of the count needs at least one mask")
    if not 0 <= s < 1 << 63:
        raise ParameterError(f"sample count must be in 0..2^63-1, got {s}")
    if min(*a, *b) < 0 or max(*a, *b) > MASK64:
        raise ParameterError("every mask must fit in 64 bits")
    kernel = _count_compiled if BACKEND == "c" else _count_blocks
    return kernel(seed, s, a, parity_a, b, parity_b, n)


def counts_conj_conj(seed: int, s: int, a: tuple, b: tuple,
                     n: int) -> tuple[int, int, int]:
    """(both true, a true, b true) over s drawn points for two clause
    lists, each a conjunction (one mask) or a DNF (one mask per clause)."""
    return _count(seed, s, a, False, b, False, n)


def counts_conj_parity(seed: int, s: int, a: tuple, p: tuple, n: int,
                       parity_a: bool = False) -> tuple[int, int, int]:
    """(a true and parity even, a true, parity even) over s drawn points:
    a is a clause list, or with parity_a a parity too; p is (mask,)."""
    return _count(seed, s, a, parity_a, p, True, n)


def counts(seed: int, s: int, a: tuple, parity_a: bool, b: tuple,
           parity_b: bool, n: int) -> tuple[int, int, int]:
    """(both true, a true, b true) over s drawn points for any two sides.

    A pair with a parity runs counts_conj_parity, with the parity on side
    b, where the compiled loop vectorizes it against a conjunction; any
    other pair runs counts_conj_conj.
    """
    if parity_b:
        return counts_conj_parity(seed, s, a, b, n, parity_a)
    if parity_a:
        both, cb, ca = counts_conj_parity(seed, s, b, a, n)
        return both, ca, cb
    return counts_conj_conj(seed, s, a, b, n)
