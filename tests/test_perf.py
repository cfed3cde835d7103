import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evoforge._kernels import (_count_blocks, _count_loop, counts_conj_conj,
                               counts_conj_parity)
from evoforge.boolfn import (MonotoneConjunction, MonotoneDnf,
                             OutputConvention, ParityFunction,
                             conj_perf_closed_form, exact_perf)
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


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SampleSpec(0, 0)
        with pytest.raises(ParameterError):
            SampleSpec(10, -1)
        with pytest.raises(ParameterError):
            SampleSpec(10, MASK64 + 1)
        SampleSpec(1, MASK64)


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

    def test_mini_concentration(self):
        exact = float(exact_perf(CE_R, CE_F, 8, SIGNED))
        s = 10000
        radius = math.sqrt(2 * math.log(200) / s)
        inside = sum(
            abs(empirical_perf(CE_R, CE_F, 8, SampleSpec(s, derive_seed(1, i)),
                               SIGNED) - exact) <= radius
            for i in range(100))
        assert inside >= 97


def reference_counts(seed, s, a, b, n):
    """(both, a, b) truth counts by definition, one rng.mix64 call per point."""
    both = c_a = c_b = 0
    for i in range(1, s + 1):
        x = mix64(seed + i * GAMMA) & ((1 << n) - 1)
        ta = (x & a.mask) == a.mask
        if isinstance(b, ParityFunction):
            tb = bin(x & b.mask).count("1") % 2 == 0
        else:
            tb = (x & b.mask) == b.mask
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


def loop_counts(seed, s, a, b, n, parity):
    # Without numba _count_loop is plain Python on numpy uint64 scalars,
    # whose intended wraparound raises overflow warnings.
    with np.errstate(over="ignore"):
        out = _count_loop(np.uint64(seed), s, np.uint64(a.mask),
                          np.uint64(b.mask), np.uint64((1 << n) - 1), parity)
    return tuple(int(v) for v in out)


class TestKernels:
    CASES = [
        (conj(1, 2), conj(2, 5), 8),
        (conj(), conj(3), 6),
        (conj(1, 2, 3, 4), conj(1, 2, 3, 4), 10),
    ]

    @staticmethod
    def check_backends(counts, a, b, n, seed, parity):
        # The numba loop (or its Python body when numba is absent), the
        # chunked numpy kernel and the dispatcher each against the
        # pure-Python reference; then across block boundaries against
        # counts over the whole sample array.
        want = reference_counts(seed, 4096, a, b, n)
        assert loop_counts(seed, 4096, a, b, n, parity) == want
        assert _count_blocks(seed, 4096, a.mask, b.mask, n, parity) == want
        assert counts(seed, 4096, a.mask, b.mask, n) == want
        for s in (BLOCK - 1, BLOCK, BLOCK + 1):
            want = array_counts(seed, s, a, b, n)
            assert _count_blocks(seed, s, a.mask, b.mask, n, parity) == want
            assert counts(seed, s, a.mask, b.mask, n) == want

    def test_conj_conj_jit_matches_numpy(self):
        for a, b, n in self.CASES:
            for seed in (0, 1, MASK64):
                self.check_backends(counts_conj_conj, a, b, n, seed,
                                    parity=False)

    def test_conj_parity_jit_matches_numpy(self):
        p = ParityFunction(frozenset({2, 4}))
        # literals spread over 63 bits, so every fold of the xor reduction
        # in the numba loop matters
        wide = ParityFunction(frozenset({1, 2, 4, 8, 16, 32, 63}))
        for c, q, n in ((conj(1, 2), p, 8), (conj(), p, 8), (conj(5), wide, 63)):
            for seed in (0, 9, MASK64 - 5):
                self.check_backends(counts_conj_parity, c, q, n, seed,
                                    parity=True)

    def test_memory_does_not_grow_with_s(self):
        # 40 blocks of uint64 samples would be 10 MiB; the kernels keep a
        # few block-sized buffers whatever s is.
        s = 40 * BLOCK
        for r, f in ((conj(1, 2), conj(2, 5)),
                     (conj(1, 2), ParityFunction(frozenset({2, 4}))),
                     (CE_R, CE_F)):
            # any jit compilation happens here, outside the trace
            empirical_perf(r, f, 8, SampleSpec(1, 3), SIGNED)
            tracemalloc.start()
            try:
                empirical_perf(r, f, 8, SampleSpec(s, 3), SIGNED)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * BLOCK

    def test_threads_get_their_own_buffers(self):
        # more threads than cores and a short switch interval, so that
        # shared block buffers would be overwritten mid-estimate
        jobs = [(seed, 4 * BLOCK + seed) for seed in range(64)]
        c, p = conj(1, 2), ParityFunction(frozenset({2, 4}))

        def run(job):
            return counts_conj_parity(job[0], job[1], c.mask, p.mask, 10)

        want = [run(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(run, jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_counts_are_consistent(self):
        both, cr, cf = counts_conj_conj(5, 1000, conj(1).mask,
                                        conj(1, 2).mask, 4)
        assert 0 <= both <= min(cr, cf) <= max(cr, cf) <= 1000


class TestPerfMatrix:
    def test_validation(self):
        with pytest.raises(ParameterError):
            PerfMatrix(entries=((0.5,), (0.5,)), convention=SIGNED)
        with pytest.raises(ParameterError):
            PerfMatrix(entries=((2.0,),), convention=SIGNED)
        with pytest.raises(ParameterError):
            PerfMatrix(entries=((-0.5,),), convention=BINARY)
        m = PerfMatrix(entries=((0.5, 0.0), (-1.0, 1.0)), convention=SIGNED)
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
                assert m.entries[i][j] == conj_perf_closed_form(rj, fi, SIGNED)

    def test_ambient_n_invariance(self):
        a = term_perf_matrix(CE_R, CE_F, 8)
        b = term_perf_matrix(CE_R, CE_F, 12)
        assert a.entries == b.entries

    def test_k1_degenerate(self):
        m = term_perf_matrix(dnf((1, 2)), dnf((2, 3)), 8)
        assert m.k == 1
        assert m.entries[0][0] == conj_perf_closed_form(conj(1, 2), conj(2, 3), SIGNED)


def matrix(rows):
    return PerfMatrix(entries=tuple(tuple(r) for r in rows), convention=SIGNED)


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
