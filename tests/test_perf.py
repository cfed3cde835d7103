import ctypes
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from importlib import resources
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import brute_perf, sampled_counts
from evoforge import _kernels
from evoforge._kernels import (_count_blocks, counts, counts_conj_conj,
                               counts_conj_parity)
from evoforge.boolfn import (MonotoneConjunction, MonotoneDnf,
                             OutputConvention, ParityFunction, exact_perf)
from evoforge.errors import (DimensionMismatchError, KMismatchError,
                             ParameterError)
from evoforge.perf import (Aggregator, PerfMatrix, SampleSpec, empirical_perf,
                           gen_perf, matched_min, term_perf_matrix)
from evoforge.rng import (BLOCK, GAMMA, MASK64, derive_seed, mix64,
                          sample_assignments)

SIGNED = OutputConvention.SIGNED
BINARY = OutputConvention.BINARY


def conj(*vars_):
    return MonotoneConjunction(frozenset(vars_))


def dnf(*clauses):
    return MonotoneDnf(tuple(conj(*c) for c in clauses))


CE_R = dnf((1,), (2,), (3,))
CE_F = dnf((1, 4, 5), (2, 4, 6), (3, 7, 8))

# The count loops to check: numpy always, the compiled one wherever it
# loaded (TestBackend fails where a C compiler is found and it did not).
KERNELS = {"numpy": _count_blocks}
if _kernels.BACKEND == "c":
    KERNELS["c"] = _kernels._count_compiled


def each_backend(monkeypatch):
    """Select each backend of KERNELS in turn, as _kernels.BACKEND."""
    for name in KERNELS:
        monkeypatch.setattr(_kernels, "BACKEND", name)
        yield name


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SampleSpec(0, 0)
        with pytest.raises(ParameterError):
            SampleSpec(10, -1)
        with pytest.raises(ParameterError):
            SampleSpec(10, MASK64 + 1)
        # the compiled kernel takes s as an int64, which ctypes would wrap
        with pytest.raises(ParameterError, match="must be in 1..2\\^63-1"):
            SampleSpec(1 << 63, 0)
        SampleSpec(1, MASK64)
        SampleSpec((1 << 63) - 1, 0)


class TestEmpiricalPerf:
    def test_self_is_exactly_one(self):
        for fn in (conj(1, 2), CE_F, ParityFunction(frozenset({1, 3}))):
            assert empirical_perf(fn, fn, 8, SampleSpec(999, 5), SIGNED) == 1.0

    def test_single_sample_is_plus_minus_one(self):
        vals = {empirical_perf(conj(1), conj(2), 4, SampleSpec(1, seed), SIGNED)
                for seed in range(64)}
        assert vals <= {-1.0, 1.0}
        assert len(vals) == 2

    def test_deterministic(self):
        spec = SampleSpec(10000, 77)
        a = empirical_perf(CE_R, CE_F, 8, spec, SIGNED)
        b = empirical_perf(CE_R, CE_F, 8, spec, SIGNED)
        assert a == b

    def test_near_exact_value(self):
        spec = SampleSpec(100000, 3)
        est = empirical_perf(CE_R, CE_F, 8, spec, SIGNED)
        assert abs(est - (-0.1171875)) < 0.02
        est_b = empirical_perf(CE_R, CE_F, 8, spec, BINARY)
        assert abs(est_b - 81 / 256) < 0.02

    def test_estimates_are_count_ratios(self):
        # every estimate is an integer count over s, never a float accumulation
        s = 997
        est = empirical_perf(conj(1), conj(1, 2), 6, SampleSpec(s, 11), BINARY)
        assert est == round(est * s) / s

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            empirical_perf(conj(9), conj(1), 8, SampleSpec(10, 0), SIGNED)

    @pytest.mark.parametrize("n", [0, 64])
    def test_n_out_of_range_refused_as_n(self, n):
        # the range of n, before any function is checked against it
        with pytest.raises(ParameterError,
                           match=rf"^n must be in 1\.\.63, got {n}$"):
            empirical_perf(conj(1), conj(1), n, SampleSpec(10, 0), SIGNED)

    def test_mini_concentration(self):
        exact = float(exact_perf(CE_R, CE_F, 8, SIGNED))
        s = 10000
        radius = math.sqrt(2 * math.log(200) / s)
        inside = sum(
            abs(empirical_perf(CE_R, CE_F, 8, SampleSpec(s, derive_seed(1, i)),
                               SIGNED) - exact) <= radius
            for i in range(100))
        assert inside >= 97


def holds(fn, x):
    """fn at the packed point x, by definition from its literals."""
    def bit(v):
        return x >> (v - 1) & 1
    if isinstance(fn, ParityFunction):
        return sum(bit(v) for v in fn.literals) % 2 == 0
    if isinstance(fn, MonotoneDnf):
        return any(holds(c, x) for c in fn.clauses)
    return all(bit(v) for v in fn.literals)


def reference_counts(seed, s, a, b, n):
    """(both, a, b) truth counts by definition, one rng.mix64 call per point."""
    both = c_a = c_b = 0
    for i in range(1, s + 1):
        x = mix64(seed + i * GAMMA) & ((1 << n) - 1)
        ta, tb = holds(a, x), holds(b, x)
        both += ta and tb
        c_a += ta
        c_b += tb
    return both, c_a, c_b


def array_counts(seed, s, a, b, n):
    """(both, a, b) truth counts over the whole sample_assignments array."""
    xs = sample_assignments(seed, s, n)
    ta, tb = a.truth_batch(xs), b.truth_batch(xs)
    return (int(np.count_nonzero(ta & tb)), int(np.count_nonzero(ta)),
            int(np.count_nonzero(tb)))


def parity(*vars_):
    return ParityFunction(frozenset(vars_))


# DNFs of 1 to 5 clauses: against a conjunction, 1 has a loop of its own,
# 2 to 4 are padded to 4, and 5 takes the loop over a runtime clause count;
# against a parity, 2 or more take the runtime loop.
WIDE = [dnf(*[(v, v + 1) for v in range(1, 2 * k, 2)]) for k in range(1, 6)]


class TestKernels:
    CASES = [
        (conj(1, 2), conj(2, 5), 8),
        (conj(), conj(3), 6),
        (conj(1, 2, 3, 4), conj(1, 2, 3, 4), 10),
        (conj(), conj(1), 1),
        (conj(1, 63), conj(31, 32, 63), 63),
        *[(d, conj(2, 3), 10) for d in WIDE],
        *[(conj(1), d, 10) for d in WIDE],
        (CE_R, CE_F, 8),
        (WIDE[3], WIDE[2], 10),
        (WIDE[4], WIDE[1], 10),
        (dnf((1,), ()), dnf((1,)), 1),
        (dnf((1, 63), (2,), (32,)), dnf((63,), (1, 2), (3,), (4,), (5,)), 63),
        # on each side of the hand loop's IFMA threshold (every mask below
        # 2^21): a literal on x21 (bit 20) or on x22 (bit 21, which the
        # 52-bit product does not give), and masks below 2^21 at n = 63;
        # and a pair of 3-clause DNFs at n = 20, as the oracle asks them
        (conj(1, 21), conj(2, 21), 21),
        (conj(1, 22), conj(2, 22), 22),
        (conj(1, 21), conj(2, 21), 63),
        (dnf((1, 5, 9), (2, 14), (3, 17, 20)),
         dnf((4, 8), (6, 11, 19), (7, 12, 13, 16)), 20),
        # on each side of its 16-bit lanes (every mask below 2^16),
        # likewise, and in them at n = 40 and 63; and pairs of 3-clause
        # DNFs in them, at n = 16 and 30
        (conj(1, 16), conj(2, 16), 16),
        (conj(1, 17), conj(2, 17), 17),
        (conj(1, 16), conj(2, 16), 40),
        (conj(1, 16), conj(2, 16), 63),
        (dnf((1, 5, 9), (2, 14), (3, 15, 16)),
         dnf((4, 8), (6, 11, 16), (7, 12, 13)), 16),
        (dnf((1, 5, 9), (2, 14), (3, 15, 16)),
         dnf((4, 8), (6, 11, 16), (7, 12, 13)), 30),
    ]
    PARITY_CASES = [
        (conj(1, 2), parity(2, 4), 8),
        (conj(), parity(2, 4), 8),
        (conj(1), parity(1), 1),
        # literals spread up to x63, the widest point the sampler draws
        (conj(5), parity(1, 2, 4, 8, 16, 32, 63), 63),
        *[(d, parity(1, 4), 10) for d in WIDE],
        (parity(2, 4), conj(1, 2), 8),
        (parity(1, 3), WIDE[2], 10),
        (parity(1, 3), WIDE[4], 10),
        (parity(1, 2, 3), parity(2, 3), 8),
        (parity(1), parity(1), 1),
        (parity(1, 63), parity(2, 63), 63),
        (conj(3, 21), parity(1, 21), 21),
        (conj(3, 22), parity(1, 22), 22),
        (conj(3, 21), parity(1, 21), 63),
        (conj(3, 16), parity(1, 16), 16),
        (conj(3, 17), parity(1, 17), 17),
        (conj(3, 16), parity(1, 16), 40),
        (conj(3, 16), parity(1, 16), 63),
    ]
    # Sides with a mask bit at or above n, which only a direct call
    # gives, at n = 10: on x17 (bit 16), which keeps each fixed pair off
    # the hand loop's 16-bit lanes, and on x13 (bit 12), which keeps it in
    # them.
    RAW_CASES = [(*sides, 10)
                 for high in (1 << 16, 1 << 12)
                 for sides in (((high | 0b11,), False, (0b110,), False),
                               ((0b11,), False, (high | 0b101,), True),
                               ((0b11, high | 0b100), False, (0b110,),
                                False))]

    @staticmethod
    def check_kernel(monkeypatch, a, b, n, seed):
        # Each count loop, the public wrappers on each backend, and the
        # estimate, against the pure-Python reference; then at and across
        # block boundaries against counts over the whole sample array.
        # s = 1..33 ends in every remainder of the 32-, 8- and 4-lane loops.
        for s in (*range(1, 34), 4096, BLOCK - 1, BLOCK, BLOCK + 1):
            want = (reference_counts(seed, s, a, b, n) if s <= 4096
                    else array_counts(seed, s, a, b, n))
            sides = (a.masks, a.is_parity, b.masks, b.is_parity)
            for kernel in KERNELS.values():
                assert kernel(seed, s, *sides, n) == want
            for _ in each_backend(monkeypatch):
                assert counts(seed, s, *sides, n) == want
                if b.is_parity:
                    assert counts_conj_parity(seed, s, a.masks, b.masks, n,
                                              a.is_parity) == want
                elif not a.is_parity:
                    assert counts_conj_conj(seed, s, a.masks, b.masks,
                                            n) == want
                got = empirical_perf(a, b, n, SampleSpec(s, seed), BINARY)
                assert got == want[0] / s

    def test_conj_conj_kernel_matches_reference(self, monkeypatch):
        for a, b, n in self.CASES:
            # MASK64 - 5: the counter wraps around 2^64 within the stream
            for seed in (0, 1, MASK64 - 5, MASK64):
                self.check_kernel(monkeypatch, a, b, n, seed)

    def test_conj_parity_kernel_matches_reference(self, monkeypatch):
        for a, b, n in self.PARITY_CASES:
            for seed in (0, 9, MASK64 - 5):
                self.check_kernel(monkeypatch, a, b, n, seed)

    def test_word_lanes_long_stream(self):
        # 32,767 steps of 32 points and one more in the hand loop's 16-bit
        # lanes, where a conjunction of all 16 variables fails in nearly
        # every lane at every step: more failures in a lane than a 16-bit
        # counter holds
        a, b, n, s = conj(*range(1, 17)), conj(1), 16, 32 * 32767 + 33
        want = array_counts(5, s, a, b, n)
        for kernel in KERNELS.values():
            assert kernel(5, s, a.masks, False, b.masks, False, n) == want

    def test_mask_bits_above_n(self, monkeypatch):
        for case in self.RAW_CASES:
            for seed, s in ((0, 33), (9, 4097)):
                args = (seed, s, *case)
                for _ in each_backend(monkeypatch):
                    assert counts(*args) == _count_blocks(*args)

    def test_kernels_match_the_sampled_reference(self, monkeypatch):
        # against the functions' own truth_batch over rng.sample_blocks
        for a, b, n in self.CASES + self.PARITY_CASES:
            want = sampled_counts(a, b, n, 3 * BLOCK + 7, 11)
            for _ in each_backend(monkeypatch):
                assert counts(11, 3 * BLOCK + 7, a.masks, a.is_parity,
                              b.masks, b.is_parity, n) == want

    @pytest.mark.parametrize("counts", [counts_conj_conj, counts_conj_parity])
    @pytest.mark.parametrize("n", [0, 64])
    @pytest.mark.parametrize("s", [0, 10])
    def test_dimension_check(self, counts, n, s):
        with pytest.raises(ParameterError, match="1..63"):
            counts(1, s, (0b1,), (0b10,), n)

    @pytest.mark.parametrize("backend", list(KERNELS))
    @pytest.mark.parametrize("seed, s, a, b, match", [
        (1, -1, (0b1,), (0b10,), "s must be"),
        (1, 0, (0b1,), (0b10,), "s must be"),
        (1, 1 << 63, (0b1,), (0b10,), "s must be"),
        (-1, 10, (0b1,), (0b10,), "seed"),
        (MASK64 + 1, 10, (0b1,), (0b10,), "seed"),
        (1, 10, (0b1, -1), (0b10,), "mask"),
        (1, 10, (0b1,), (MASK64 + 1,), "mask"),
    ], ids=["s_negative", "s_zero", "s_2^63", "seed_negative", "seed_2^64",
            "mask_negative", "mask_2^64"])
    def test_arguments_out_of_range_refused(self, monkeypatch, backend,
                                            seed, s, a, b, match):
        # the same error from both backends, raised before any point is
        # drawn: s = 2^63 would otherwise run for centuries on numpy
        monkeypatch.setattr(_kernels, "BACKEND", backend)
        for parity_b in (False, True):
            with pytest.raises(ParameterError, match=match):
                counts(seed, s, a, False, b, parity_b, 8)

    def test_empty_side_refused(self, monkeypatch):
        for _ in each_backend(monkeypatch):
            with pytest.raises(ParameterError, match="at least one mask"):
                counts_conj_conj(1, 10, (), (0b1,), 4)
            with pytest.raises(ParameterError, match="at least one mask"):
                counts_conj_parity(1, 10, (0b1,), (), 4)

    def test_memory_does_not_grow_with_s(self, monkeypatch):
        # 40 blocks of uint64 samples would be 10 MiB; the kernels keep a
        # few block-sized buffers whatever s is.
        s = 40 * BLOCK
        pairs = ((conj(1, 2), conj(2, 5)),
                 (conj(1, 2), ParityFunction(frozenset({2, 4}))),
                 (CE_R, CE_F), (WIDE[4], WIDE[4]))
        for _ in each_backend(monkeypatch):
            for r, f in pairs:
                # a first, small call does any one-time set-up untraced
                empirical_perf(r, f, 10, SampleSpec(1, 3), SIGNED)
                tracemalloc.start()
                try:
                    empirical_perf(r, f, 10, SampleSpec(s, 3), SIGNED)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 64 * BLOCK

    def test_threads_get_their_own_buffers(self, monkeypatch):
        # more threads than cores and a short switch interval, so that
        # shared block buffers (numpy) or a shared out array (the compiled
        # loop) would be overwritten mid-estimate
        jobs = [(seed, 4 * BLOCK + seed) for seed in range(64)]
        c, p = conj(1, 2), ParityFunction(frozenset({2, 4}))

        def run(job):
            return counts_conj_parity(job[0], job[1], c.masks, p.masks, 10)

        want = [_count_blocks(*job, c.masks, False, p.masks, True, 10)
                for job in jobs]
        for _ in each_backend(monkeypatch):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(4) as pool:
                    got = list(pool.map(run, jobs, timeout=60))
            finally:
                sys.setswitchinterval(interval)
            assert got == want

    def test_counts_are_consistent(self):
        both, cr, cf = counts_conj_conj(5, 1000, conj(1).masks,
                                        conj(1, 2).masks, 4)
        assert 0 <= both <= min(cr, cf) <= max(cr, cf) <= 1000


def routing_sweep():
    """(seed, s, a, b, n) over the count loops' routing, drawn from a fixed
    seed: for every pair of sides, each a list of 1 to 5 clauses or a
    parity, with the highest mask bit on each side of the hand loop's
    16-bit and IFMA thresholds (bits 15/16 and 20/21) and at bit 62, one
    frame with n above that bit and one direct call with n at or below
    it, each at two s in 1..70; and a few pairs at s of several blocks."""
    gen = random.Random(31)
    kinds = ("parity", 1, 2, 3, 4, 5)
    cases = []
    for top in (15, 16, 20, 21, 62):
        for ka, kb in product(kinds, kinds):
            lits = [[set(gen.sample(range(1, top + 1), gen.randint(1, 4)))]
                    if kind == "parity" else
                    [set(gen.sample(range(1, top + 1), gen.randint(1, 3)))
                     for _ in range(kind)] for kind in (ka, kb)]
            gen.choice(lits[0] + lits[1]).add(top + 1)  # bit top
            a, b = (parity(*ls[0]) if kind == "parity" else dnf(*ls)
                    for kind, ls in zip((ka, kb), lits))
            for n in (gen.randint(top + 1, 63), gen.randint(1, top)):
                sizes = [gen.randint(1, 70), gen.randint(1, 70)]
                if n > top and (ka, kb) in ((1, 1), (1, "parity"), (4, 4)):
                    sizes.append(3 * BLOCK + gen.randint(1, 63))
                for s in sizes:
                    seed = gen.choice((gen.getrandbits(64),
                                       MASK64 - gen.randint(0, 70)))
                    cases.append((seed, s, a, b, n))
    return cases


SWEEP = [(seed, s, a.masks, a.is_parity, b.masks, b.is_parity, n)
         for seed, s, a, b, n in routing_sweep()]


def test_routing_sweep_matches_the_blocks(monkeypatch):
    want = [_count_blocks(*case) for case in SWEEP]
    # the stream of one or two blocks, by definition, one point at a time
    for (seed, s, a, b, n), got in zip(routing_sweep(), want):
        if s <= 70:
            assert reference_counts(seed, s, a, b, n) == got
    if _kernels.BACKEND != "c":
        pytest.skip("the compiled backend did not load here")
    loops = ["count"] + ["count_avx512"] * (_kernels.LOOP == "avx512")
    for name in loops:
        monkeypatch.setattr(_kernels, "_count_c",
                            _kernels._bind(_kernels.LIBRARY, name))
        assert [_kernels._count_compiled(*case) for case in SWEEP] == want


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_CASES = [(0, 5000, (0b11,), False, (0b110,), False, 8),
               (MASK64 - 5, 5000, (0b1,), False, (0b101,), True, 8),
               (7, 5000, (0b11, 0b1000, 0b10100), False, (0b1, 0b110), False,
                8)]
PROBE = f"""
import json
from evoforge import _kernels
cases = {PROBE_CASES!r}
print(json.dumps([_kernels.BACKEND] + [_kernels.counts(*c) for c in cases]))
"""
# The files a fresh `import evoforge` opens, seen by an audit hook.
OPENS = """
import json, sys
opened = []
sys.addaudithook(lambda event, args: event == "open"
                 and opened.append(str(args[0])))
from evoforge import _kernels
print(json.dumps([_kernels.BACKEND, opened]))
"""


def run_python(code, env):
    """The JSON that `code` prints, run in a fresh interpreter under env."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), **env}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


def probe_backend(env):
    """BACKEND of a fresh `import evoforge` under env, whose counts must
    equal _count_blocks'."""
    backend, *counts = run_python(PROBE, env)
    assert counts == [list(_count_blocks(*c)) for c in PROBE_CASES]
    return backend


def compiler():
    """The compiler the loader would use, resolved, or None."""
    found = shutil.which(os.environ.get("CC") or "cc")
    return found and os.path.realpath(found)


class TestBackend:
    @pytest.mark.skipif("CC" in os.environ or shutil.which("cc") is None,
                        reason="no cc on PATH, or CC names another compiler")
    def test_cc_on_path_gives_the_compiled_backend(self):
        # otherwise every check of "both backends" above checks numpy alone
        assert _kernels.BACKEND == "c"

    def test_count_source_ships_as_package_data(self, tmp_path, monkeypatch):
        source = resources.files("evoforge").joinpath("_count.c")
        assert source.is_file()
        assert b"void count(const unsigned char *frame" in source.read_bytes()
        # the loader compiles what the package resource holds
        if _kernels.BACKEND != "c":
            pytest.skip("the compiled backend did not load here")
        fake = tmp_path / "pkg"
        fake.mkdir()
        (fake / "_count.c").write_text(
            "#include <stdint.h>\n"
            "void count(const unsigned char *frame, int64_t out[3])\n"
            "{ (void)frame; out[0] = 7; out[1] = 8; out[2] = 9; }\n")
        monkeypatch.setattr(_kernels.resources, "files", lambda pkg: fake)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(_kernels, "_count_c", _kernels._load_compiled()[0])
        # and the public wrappers run it
        assert counts_conj_conj(1, 10, (1,), (2,), 4) == (7, 8, 9)
        assert counts_conj_parity(1, 10, (1,), (2,), 4) == (7, 8, 9)

    def test_loop_names_the_bound_count(self):
        # on any machine: none exactly on the fallback, and on the compiled
        # backend the hand loop exactly where the library says it runs
        assert _kernels.LOOP in ("avx512", "portable", "none")
        assert (_kernels.LOOP == "none") == (_kernels.BACKEND == "numpy")
        if _kernels.BACKEND == "c":
            lib = ctypes.CDLL(_kernels.LIBRARY)
            assert (_kernels.LOOP == "avx512") == (lib.avx512() == 1)

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or os.uname().machine != "x86_64",
                        reason="reads /proc/cpuinfo of Linux on x86-64")
    def test_avx512_probe_agrees_with_cpuinfo(self):
        # the kernel's view of the CPU, a second source for the features
        # __builtin_cpu_supports reads
        if _kernels.BACKEND != "c":
            pytest.skip("the compiled backend did not load here")
        with open("/proc/cpuinfo") as f:
            flags = next(line for line in f
                         if line.startswith("flags")).split(":")[1].split()
        needed = {"avx512f", "avx512dq", "avx512_vpopcntdq", "avx512ifma",
                  "avx512bw", "avx512_bitalg"}
        lib = ctypes.CDLL(_kernels.LIBRARY)
        assert lib.avx512() == int(needed <= set(flags))

    def test_library_without_the_hand_loop_is_portable(self, tmp_path,
                                                      monkeypatch):
        # a build with no count_avx512 or avx512 symbol, as on any target
        # but x86-64, loads its count, not the numpy fallback; cc builds
        # it also where CC forces the fallback
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH to build a library with")
        monkeypatch.setenv("CC", "cc")
        fake = tmp_path / "pkg"
        fake.mkdir()
        (fake / "_count.c").write_text(
            "#include <stdint.h>\n"
            "void count(const unsigned char *frame, int64_t out[3])\n"
            "{ (void)frame; out[0] = 7; out[1] = 8; out[2] = 9; }\n")
        monkeypatch.setattr(_kernels.resources, "files", lambda pkg: fake)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        fn, loop, path, why = _kernels._load_compiled()
        assert (loop, why) == ("portable", None)
        assert os.path.isfile(path)
        out = (ctypes.c_int64 * 3)()
        fn(bytes(8 * 9), out)
        assert list(out) == [7, 8, 9]

    def test_cache_hit_reloads_the_same_library(self, tmp_path):
        if _kernels.BACKEND != "c":
            pytest.skip("the compiled backend did not load here")
        env = {"XDG_CACHE_HOME": str(tmp_path)}
        assert probe_backend(env) == "c"
        built = list((tmp_path / "evoforge").iterdir())
        assert [p.suffix for p in built] == [".so"]
        stamp = built[0].stat().st_mtime_ns
        assert probe_backend(env) == "c"
        assert list((tmp_path / "evoforge").iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp

    def test_cache_name_does_not_depend_on_the_cpu(self, monkeypatch):
        # any existing file stands in for the compiler: the name hashes its
        # path and modification time
        before = _kernels._library_path(b"int x;\n", sys.executable)
        real_open = open

        def no_cpuinfo(path, *args, **kwargs):
            if "cpuinfo" in str(path):
                raise PermissionError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", no_cpuinfo)
        assert _kernels._library_path(b"int x;\n", sys.executable) == before

    def test_warm_import_reads_no_cpuinfo(self, tmp_path):
        env = {"XDG_CACHE_HOME": str(tmp_path)}
        first = probe_backend(env)  # builds the library, given a compiler
        backend, opened = run_python(OPENS, env)
        assert backend == first
        # the hook sees the package's own reads
        assert any(p.endswith("_count.c") for p in opened) == (
            compiler() is not None)
        assert [p for p in opened if "cpuinfo" in p] == []

    def test_unwritable_cache_builds_in_a_temporary_directory(self,
                                                              tmp_path):
        # a regular file where the cache directory would go: writes fail
        # even for root, whom a read-only mode does not stop; cc builds the
        # library also where CC forces the fallback
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH to build a library with")
        cache, tmp = tmp_path / "cache", tmp_path / "tmp"
        cache.write_bytes(b"")
        tmp.mkdir()
        env = {"CC": "cc", "XDG_CACHE_HOME": str(cache), "TMPDIR": str(tmp)}
        assert probe_backend(env) == "c"
        done = subprocess.run([sys.executable, "-m", "evoforge", "info"],
                              env={**os.environ, **env,
                                   "PYTHONPATH": os.path.join(ROOT, "src")},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        rows = dict(line.split(": ", 1) for line in done.stdout.splitlines())
        assert rows["backend"] == "c"
        assert rows["fallback"] == "none"
        assert rows["library"].startswith(str(tmp / "evoforge-"))
        # each process removes its own directory when it exits
        assert list(tmp.iterdir()) == []

    @pytest.mark.parametrize("case", ["compiler_fails", "library_corrupt"])
    def test_fallback_to_numpy(self, tmp_path, monkeypatch, case):
        cache = tmp_path / "cache"
        env = {"XDG_CACHE_HOME": str(cache)}
        if case == "compiler_fails":
            env["CC"] = "/bin/false"
        else:
            if compiler() is None:
                pytest.skip("no compiler, so no cached library to corrupt")
            monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
            source = resources.files("evoforge").joinpath("_count.c")
            path = _kernels._library_path(source.read_bytes(), compiler())
            os.makedirs(os.path.dirname(path))
            with open(path, "wb") as f:  # an ELF header cut short
                f.write(b"\x7fELF\x02\x01\x01" + bytes(57))
        assert probe_backend(env) == "numpy"
        if case == "compiler_fails":
            # the failed build leaves no temporary file behind
            assert list((cache / "evoforge").iterdir()) == []


# The ISAs of count's target_clones, each built alone from the branch with
# no clones (no __ELF__) and run in its own interpreter, where a build for
# an ISA this CPU lacks dies of SIGILL: a skip, not a crash of pytest.  And
# the hand loop, count_avx512 of a default build, where avx512() says this
# CPU runs it; the three ISA builds keep binding count, so the portable
# loop stays checked on a CPU that runs the hand one.  And a default build
# with no hand loop, as where HAND is not defined, binding its count.
ISAS = {"baseline": (("-U__ELF__", "-march=x86-64"), "count"),
        "avx2": (("-U__ELF__", "-mavx2"), "count"),
        "x86-64-v4": (("-U__ELF__", "-march=x86-64-v4"), "count"),
        "avx512": ((), "count_avx512"),
        "no_hand": ((), "count")}
HAND = b"\n#define HAND\n"
X86_CC = pytest.mark.skipif(os.uname().machine != "x86_64"
                            or shutil.which("cc") is None,
                            reason="no cc on PATH, or not an x86-64 machine")
ISA_PROBE = """
import ctypes, json, sys
from evoforge import _kernels
path, name = sys.argv[1:]
if name == "count_avx512" and ctypes.CDLL(path).avx512() != 1:
    print("null")
    sys.exit()
_kernels._count_c = _kernels._bind(path, name)
cases = json.load(sys.stdin)
print(json.dumps([_kernels._count_compiled(*c) for c in cases]))
"""


def build_isa(tmp_path, isa):
    """The library of ISAS[isa], built from _count.c into tmp_path."""
    lib = tmp_path / f"count-{isa}.so"
    source = resources.files("evoforge").joinpath("_count.c").read_bytes()
    if isa == "no_hand":
        assert source.count(HAND) == 1
        source = source.replace(HAND, b"\n")
    subprocess.run(["cc", "-O3", "-shared", "-fPIC", *ISAS[isa][0],
                    "-o", str(lib), "-x", "c", "-"], input=source,
                   check=True, capture_output=True, timeout=60)
    return lib


@X86_CC
def test_build_without_the_hand_loop_binds_count(tmp_path):
    lib = build_isa(tmp_path, "no_hand")
    dll = ctypes.CDLL(str(lib))
    assert dll.avx512() == 0
    assert not hasattr(dll, "count_avx512")
    assert _kernels._pick(str(lib))[1] == "portable"


@X86_CC
@pytest.mark.parametrize("isa", list(ISAS))
def test_every_isa_build_matches_the_blocks(tmp_path, isa):
    lib = build_isa(tmp_path, isa)
    name = ISAS[isa][1]
    # every loop, and mask bits above n, with sizes that end in each
    # remainder of the 32-, 8- and 4-lane loops and around a multiple of
    # all three; MASK64 - 5 wraps the counter, in every lane of the hand
    # loop, within the stream
    sides = [(a.masks, a.is_parity, b.masks, b.is_parity, n)
             for a, b, n in TestKernels.CASES + TestKernels.PARITY_CASES]
    cases = [(seed, s, *case)
             for case in sides + TestKernels.RAW_CASES
             for seed in (0, MASK64 - 5)
             for s in (*range(1, 34), 4095, 4096, 4097)] + SWEEP
    # CC=/bin/false: the import builds and loads no library of its own
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path / "cache")}
    done = subprocess.run([sys.executable, "-c", ISA_PROBE, str(lib), name],
                          input=json.dumps(cases), env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU does not run {isa} code")
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    if got is None:
        pytest.skip("avx512() says this CPU does not run the hand loop")
    assert got == [list(_count_blocks(*c)) for c in cases]


# Modules that a run on the compiled backend never calls: numpy serves
# only the fallback and the truth-table enumeration, concurrent.futures
# only a pool of trials; and platform, which nothing in the package reads.
UNCALLED = ("numpy", "platform", "concurrent.futures")
# `evoforge` commands run in one interpreter: which of UNCALLED they load.
COMMANDS = """
import contextlib, io, json, sys
from evoforge import _kernels, cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(argv) for argv in {argvs!r}]
print(json.dumps([_kernels.BACKEND, rcs,
                  [m for m in {uncalled!r} if m in sys.modules]]))
"""
# A conjunction, a parity and a DNF best_any run, each of one short trial.
RUN_CONFIGS = [
    "experiment = conjunction_evolvability\nn = 6\ntarget_size = 2\n"
    "trials = 1\ns = 2000\ng = 5\n",
    "experiment = parity\nn = 6\nparity_size = 3\ntrials = 1\n"
    "s = 2000\ng = 5\n",
    "experiment = structural_vs_functional\nterm_fitness = best_any\n"
    "trials = 1\ns = 2000\ng = 3\n",
]
# An estimate on the fallback: which of UNCALLED the import loaded, and
# which the estimate did.
FALLBACK = f"""
import json, sys
from evoforge import _kernels, cli
before = [m for m in {UNCALLED!r} if m in sys.modules]
got = [_kernels.counts(*c) for c in {PROBE_CASES!r}]
after = [m for m in {UNCALLED!r} if m in sys.modules]
print(json.dumps([_kernels.BACKEND, before, after, got]))
"""


@pytest.mark.skipif(_kernels.BACKEND != "c",
                    reason="the compiled backend did not load here")
class TestImports:
    def test_compiled_path_loads_no_numpy(self, tmp_path):
        argvs = []
        for i, text in enumerate(RUN_CONFIGS):
            (tmp_path / f"{i}.cfg").write_text(text)
            argvs.append(["run", "--config", str(tmp_path / f"{i}.cfg"),
                          "--out", str(tmp_path / f"out{i}")])
        for mode in (["--exact"], ["--samples", "5000", "--seed", "3"]):
            argvs.append(["perf", "--r", "x1&x2 | x3", "--f",
                          "parity(x1,x2)", "--n", "8", *mode])
        argvs.append(["info"])
        code = COMMANDS.format(argvs=argvs, uncalled=UNCALLED)
        backend, rcs, loaded = run_python(code, {})
        assert backend == "c"
        # runs this short may fail a golden check (exit 1), not their config
        assert all(rc in (0, 1) for rc in rcs[:3])
        assert rcs[3:] == [0, 0, 0]
        assert loaded == []

    def test_fallback_imports_numpy_on_first_estimate(self, tmp_path):
        env = {"CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path)}
        backend, before, after, got = run_python(FALLBACK, env)
        assert backend == "numpy"
        assert before == []
        assert "numpy" in after
        assert got == [list(_kernels._count_compiled(*c))
                       for c in PROBE_CASES]


class TestPerfMatrix:
    def test_validation(self):
        with pytest.raises(ParameterError):
            PerfMatrix(entries=((0.5,), (0.5,)))
        with pytest.raises(ParameterError):
            PerfMatrix(entries=((2.0,),))
        with pytest.raises(ParameterError):
            PerfMatrix(entries=((-1.5,),))
        m = PerfMatrix(entries=((0.5, 0.0), (-1.0, 1.0)))
        assert m.k == 2


class TestTermPerfMatrix:
    def test_counterexample_entries(self):
        m = term_perf_matrix(CE_R, CE_F, 8)
        assert m.entries[0][0] == Fraction(1, 4)
        assert m.entries[0][1] == 0
        for i in range(3):
            for j in range(3):
                assert m.entries[i][j] == (Fraction(1, 4) if i == j else 0)

    def test_identical_dnf_diagonal(self):
        d = dnf((1, 2), (3, 4))
        m = term_perf_matrix(d, d, 8)
        assert m.entries[0][0] == 1 and m.entries[1][1] == 1
        assert m.entries[0][1] == Fraction(1, 4)
        assert m.entries[1][0] == Fraction(1, 4)

    def test_k_mismatch(self):
        with pytest.raises(KMismatchError):
            term_perf_matrix(dnf((1,)), dnf((1,), (2,)), 8)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            term_perf_matrix(dnf((9,)), dnf((1,)), 8)

    def test_exact_matches_closed_form(self):
        m = term_perf_matrix(CE_R, CE_F, 8)
        for i, fi in enumerate(CE_F.clauses):
            for j, rj in enumerate(CE_R.clauses):
                assert m.entries[i][j] == brute_perf(rj, fi, 8, SIGNED)

    def test_ambient_n_invariance(self):
        a = term_perf_matrix(CE_R, CE_F, 8)
        b = term_perf_matrix(CE_R, CE_F, 12)
        assert a.entries == b.entries

    def test_k1_degenerate(self):
        m = term_perf_matrix(dnf((1, 2)), dnf((2, 3)), 8)
        assert m.k == 1
        assert m.entries[0][0] == Fraction(1, 2)


def matrix(rows):
    return PerfMatrix(entries=tuple(tuple(r) for r in rows))


class TestGenPerf:
    CE_MATRIX = matrix([[Fraction(1, 4), 0, 0],
                        [0, Fraction(1, 4), 0],
                        [0, 0, Fraction(1, 4)]])

    def test_counterexample_aggregates(self):
        m = self.CE_MATRIX
        assert gen_perf(m, Aggregator.MIN) == 0
        assert gen_perf(m, Aggregator.MAX) == Fraction(1, 4)
        assert gen_perf(m, Aggregator.MEAN) == Fraction(1, 12)
        assert gen_perf(m, Aggregator.MEDIAN) == 0
        assert gen_perf(m, Aggregator.MATCHED_MIN) == Fraction(1, 4)

    def test_lower_median(self):
        m = matrix([[0.0, 0.1], [0.2, 0.3]])
        assert gen_perf(m, Aggregator.MEDIAN) == 0.1

    def test_identity_min_vs_matched_min(self):
        d = dnf((1, 2), (3, 4))
        m = term_perf_matrix(d, d, 8)
        assert gen_perf(m, Aggregator.MIN) < 1
        assert gen_perf(m, Aggregator.MATCHED_MIN) == 1

    @given(st.lists(st.lists(st.floats(-1, 1, allow_nan=False, width=32),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_orderings(self, rows):
        m = matrix(rows)
        lo = gen_perf(m, Aggregator.MIN)
        hi = gen_perf(m, Aggregator.MAX)
        assert lo <= gen_perf(m, Aggregator.MEDIAN) <= hi
        assert lo <= gen_perf(m, Aggregator.MEAN) <= hi or \
            math.isclose(gen_perf(m, Aggregator.MEAN), lo) or \
            math.isclose(gen_perf(m, Aggregator.MEAN), hi)
        assert gen_perf(m, Aggregator.MATCHED_MIN) >= lo

    @given(st.lists(st.lists(st.floats(-1, 1, allow_nan=False, width=32),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.permutations(range(3)))
    def test_column_permutation_invariance(self, rows, perm):
        # MEAN sums entries in storage order, so float rounding may differ
        # after the shuffle; the other aggregators must match exactly.
        m = matrix(rows)
        permuted = matrix([[rows[i][perm[j]] for j in range(3)]
                           for i in range(3)])
        for agg in Aggregator:
            if agg is Aggregator.MEAN:
                assert math.isclose(gen_perf(m, agg), gen_perf(permuted, agg),
                                    abs_tol=1e-12)
            else:
                assert gen_perf(m, agg) == gen_perf(permuted, agg)

    @given(st.lists(st.lists(st.floats(-1, 1, allow_nan=False, width=32),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_matched_min_against_brute_force(self, rows):
        m = matrix(rows)
        brute = max(min(rows[i][p[i]] for i in range(3))
                    for p in permutations(range(3)))
        assert matched_min(m) == brute

    def test_matched_min_1x1(self):
        assert matched_min(matrix([[0.5]])) == 0.5
