"""Fused draw-and-count kernel for the hot estimation paths.

The kernel walks the counter stream of rng.sample_assignments and returns
integer counts for a pair of predicates on each point: a conjunction and
either a second conjunction or a parity.  Estimates are therefore exact
functions of (seed, s) with no float accumulation.

Two backends give the same counts.  The compiled one is _count.c, built
on first import by the system C compiler ($CC, else cc) and cached per
machine under $XDG_CACHE_HOME/evoforge (default ~/.cache/evoforge); it
draws each point inline and holds no buffers.  When it cannot be built or
loaded, _count_blocks runs: numpy over rng.sample_blocks with a few
BLOCK-sized buffers per thread, kept across calls, so the memory used is
bounded by the block size, not by s.  BACKEND names the one that runs.
Tests check both against a pure-Python reference built on rng.mix64.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import tempfile
import threading
from importlib import resources

import numpy as np

from .rng import BLOCK, check_dim, sample_blocks

_FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")


def _cpu_id() -> bytes:
    """The `model name` and `flags` lines of the first CPU in /proc/cpuinfo,
    or b"" where that file does not exist."""
    try:
        with open("/proc/cpuinfo", "rb") as f:
            lines = []
            for line in f:
                if not line.strip():
                    break
                if line.startswith((b"model name", b"flags")):
                    lines.append(line)
    except OSError:
        return b""
    return b"".join(lines)


def _library_path(source: bytes, compiler: str) -> str:
    """Where the build of `source` by `compiler` is cached on this machine.

    The name hashes everything the binary depends on: a -march=native
    build must not be loaded on another CPU, nor after the compiler or the
    source changes.
    """
    h = hashlib.sha256()
    for part in (source, " ".join(_FLAGS).encode(), compiler.encode(),
                 str(os.stat(compiler).st_mtime_ns).encode(),
                 platform.machine().encode(), _cpu_id()):
        h.update(hashlib.sha256(part).digest())
    cache = (os.environ.get("XDG_CACHE_HOME")
             or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(cache, "evoforge", f"count-{h.hexdigest()[:20]}.so")


def _build(source: bytes, compiler: str, path: str) -> None:
    """Compile `source` to `path`, through a temporary file in the same
    directory, so that no process ever loads a half-written library."""
    import subprocess  # here, so that a cache hit does not import it

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path))
    os.close(fd)
    try:
        done = subprocess.run([compiler, *_FLAGS, "-o", tmp, "-x", "c", "-"],
                              input=source, capture_output=True)
        if done.returncode:
            raise OSError(f"{compiler} exited {done.returncode}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load_compiled():
    """The compiled `count` function of _count.c, or None when there is no
    compiler, the compile fails, the cache cannot be written or the library
    does not load.  A cache hit starts no process."""
    try:
        source = resources.files(__package__).joinpath("_count.c").read_bytes()
        compiler = shutil.which(os.environ.get("CC") or "cc")
        if compiler is None:
            return None
        compiler = os.path.realpath(compiler)
        path = _library_path(source, compiler)
        if not os.path.exists(path):
            _build(source, compiler, path)
        fn = ctypes.CDLL(path).count
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_uint64, ctypes.c_int64, ctypes.c_uint64,
                   ctypes.c_uint64, ctypes.c_int, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_int64))
    fn.restype = None
    return fn


_count_c = _load_compiled()
BACKEND = "numpy" if _count_c is None else "c"
# perfbench/run.py reads HAVE_NUMBA as "a compiled loop draws its points
# inline", which the C loop does; kept until the benchmark reads BACKEND.
HAVE_NUMBA = BACKEND == "c"


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


def _count_compiled(seed: int, s: int, mask_a: int, mask_b: int, n: int,
                    parity: bool) -> tuple[int, int, int]:
    """_count_blocks by the compiled loop, which must have loaded."""
    out = (ctypes.c_int64 * 3)()  # per call: threads share no buffer
    _count_c(seed, s, mask_a, mask_b, n, parity, out)
    return out[0], out[1], out[2]


def _count(seed: int, s: int, mask_a: int, mask_b: int, n: int,
           parity: bool) -> tuple[int, int, int]:
    """_count_blocks, on the backend BACKEND names."""
    kernel = _count_compiled if BACKEND == "c" else _count_blocks
    return kernel(seed, s, mask_a, mask_b, n, parity)


def counts_conj_conj(seed: int, s: int, mask_r: int, mask_f: int,
                     n: int) -> tuple[int, int, int]:
    """(both true, r true, f true) over s drawn points for two conjunctions."""
    check_dim(n)
    return _count(seed, s, mask_r, mask_f, n, parity=False)


def counts_conj_parity(seed: int, s: int, mask_c: int, mask_p: int,
                       n: int) -> tuple[int, int, int]:
    """(conj true and parity even, conj true, parity even) over s points."""
    check_dim(n)
    return _count(seed, s, mask_c, mask_p, n, parity=True)
