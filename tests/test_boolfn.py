from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import OpaqueFunction, brute_perf
from evoforge import boolfn
from evoforge.boolfn import (Assignment, MonotoneConjunction, MonotoneDnf,
                             OutputConvention, ParityFunction,
                             conj_perf_closed_form, eval_conjunction,
                             eval_dnf, eval_parity, exact_perf, truth_table)
from evoforge.errors import (DimensionMismatchError, EnumerationBudgetError,
                             ParameterError)

SIGNED = OutputConvention.SIGNED
BINARY = OutputConvention.BINARY


def conj(*vars_):
    return MonotoneConjunction(frozenset(vars_))


def dnf(*clauses):
    return MonotoneDnf(tuple(conj(*c) for c in clauses))


# small-function strategies used across this file
conj_sets = st.sets(st.integers(1, 8), max_size=4).map(frozenset)


@st.composite
def cube_functions(draw, n):
    """A conjunction (empty included), a 1-4 clause DNF or a parity on x1..xn.

    DNF clauses may repeat or extend an earlier clause, so that duplicate
    and nested clauses turn up.
    """
    lits = st.sets(st.integers(1, n), max_size=4)
    kind = draw(st.sampled_from(("conj", "dnf", "parity")))
    if kind == "conj":
        return MonotoneConjunction(draw(lits))
    if kind == "parity":
        return ParityFunction(draw(st.sets(st.integers(1, n), min_size=1,
                                           max_size=4)))
    clauses = []
    for _ in range(draw(st.integers(1, 4))):
        base = (draw(st.sampled_from(clauses))
                if clauses and draw(st.booleans()) else frozenset())
        clauses.append(base | draw(lits))
    return MonotoneDnf(MonotoneConjunction(c) for c in clauses)


class TestAssignment:
    def test_from_string_leftmost_is_x1(self):
        x = Assignment.from_string("110")
        assert (x.value(1), x.value(2), x.value(3)) == (1, 1, 0)
        assert str(x) == "110"

    def test_roundtrip(self):
        for s in ("0", "1", "10011000", "0000"):
            assert str(Assignment.from_string(s)) == s

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            Assignment.from_string("")
        with pytest.raises(ParameterError):
            Assignment.from_string("012")
        with pytest.raises(ParameterError):
            Assignment(0, 1)  # n must be >= 1

    def test_value_out_of_range(self):
        x = Assignment.from_string("10")
        with pytest.raises(DimensionMismatchError):
            x.value(3)


class TestConjunction:
    def test_eval_examples(self):
        assert eval_conjunction(conj(1, 2), Assignment.from_string("110"), SIGNED) == 1
        assert eval_conjunction(conj(), Assignment.from_string("000"), SIGNED) == 1
        assert eval_conjunction(conj(1, 4, 5), Assignment.from_string("10011000"), BINARY) == 1
        assert eval_conjunction(conj(1, 2), Assignment.from_string("100"), SIGNED) == -1
        assert eval_conjunction(conj(1, 2), Assignment.from_string("100"), BINARY) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            conj(5).truth(Assignment.from_string("110"))

    def test_bad_literals(self):
        with pytest.raises(ParameterError):
            conj(0)
        with pytest.raises(ParameterError):
            conj(-2)

    def test_canonical(self):
        assert conj(4, 1).canonical() == "x1&x4"
        assert conj().canonical() == "true"
        assert conj(10, 2).canonical() == "x2&x10"

    def test_truth_batch_matches_scalar(self):
        c = conj(1, 3)
        xs = np.arange(16, dtype=np.uint32)
        batch = c.truth_batch(xs)
        scalar = [c.truth(Assignment(4, int(v))) for v in xs]
        assert batch.tolist() == scalar


class TestDnf:
    def test_eval_examples(self):
        d = dnf((1,), (2,), (3,))
        assert eval_dnf(d, Assignment.from_string("000000"), SIGNED) == -1
        tgt = dnf((1, 4, 5), (2, 4, 6), (3, 7, 8))
        x = Assignment.from_string("01010100")  # x2=x4=x6=1
        assert eval_dnf(tgt, x, SIGNED) == 1

    def test_duplicate_clauses_legal(self):
        d = dnf((1,), (1,))
        assert d.k == 2
        assert eval_dnf(d, Assignment.from_string("1"), SIGNED) == 1

    def test_needs_a_clause(self):
        with pytest.raises(ParameterError):
            MonotoneDnf(())

    def test_canonical(self):
        assert dnf((1, 2), (3,)).canonical() == "x1&x2 | x3"

    def test_or_of_clauses_exhaustive(self):
        d = dnf((1, 4), (2, 3), (1,))
        for bits in range(2 ** 6):
            x = Assignment(6, bits)
            want = max(eval_conjunction(c, x, BINARY) for c in d.clauses)
            assert eval_dnf(d, x, BINARY) == want


class TestParity:
    def test_eval_examples(self):
        assert eval_parity(ParityFunction(frozenset({1})), Assignment.from_string("1")) == -1
        assert eval_parity(ParityFunction(frozenset({1, 2})), Assignment.from_string("11")) == 1
        assert eval_parity(ParityFunction(frozenset({1, 2, 3})), Assignment.from_string("101")) == 1

    def test_nonempty(self):
        with pytest.raises(ParameterError):
            ParityFunction(frozenset())

    def test_canonical(self):
        assert ParityFunction(frozenset({2, 1})).canonical() == "parity(x1,x2)"

    def test_truth_batch_matches_scalar(self):
        p = ParityFunction(frozenset({1, 3}))
        xs = np.arange(16, dtype=np.uint32)
        batch = p.truth_batch(xs)
        scalar = [p.truth(Assignment(4, int(v))) for v in xs]
        assert batch.tolist() == scalar


class TestTruthTable:
    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            truth_table(conj(1), 25)

    def test_small(self):
        tt = truth_table(conj(1, 2), 2)
        assert tt.tolist() == [False, False, False, True]


class TestExactPerf:
    def test_self_correlation(self):
        assert exact_perf(conj(1, 2, 3), conj(1, 2, 3), 8, SIGNED) == 1

    def test_counterexample_pair(self):
        r = dnf((1,), (2,), (3,))
        f = dnf((1, 4, 5), (2, 4, 6), (3, 7, 8))
        assert exact_perf(r, f, 8, SIGNED) == Fraction(-30, 256)
        assert exact_perf(r, f, 8, BINARY) == Fraction(81, 256)
        assert exact_perf(f, f, 8, BINARY) == Fraction(81, 256)
        assert exact_perf(r, f, 40, SIGNED) == Fraction(-30, 256)

    def test_symmetry_and_budget(self):
        # closed forms have no enumeration budget; other types still do
        r, f = conj(1, 2), conj(2, 3)
        assert exact_perf(r, f, 5, SIGNED) == exact_perf(f, r, 5, SIGNED)
        assert exact_perf(r, f, 25, SIGNED) == exact_perf(r, f, 5, SIGNED)
        with pytest.raises(EnumerationBudgetError):
            exact_perf(r, OpaqueFunction(f), 25, SIGNED)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 12))
        r = data.draw(cube_functions(n))
        f = data.draw(cube_functions(n))
        for conv in (SIGNED, BINARY):
            assert exact_perf(r, f, n, conv) == brute_perf(r, f, n, conv)
            assert exact_perf(f, r, n, conv) == brute_perf(f, r, n, conv)

    def test_large_expansions_enumerate(self, monkeypatch):
        # past the step cap, DNF pairs fall back to enumeration
        monkeypatch.setattr(boolfn, "IE_MAX_STEPS", 4)
        r = dnf((1,), (2,), (3,))
        f = dnf((1, 4, 5), (2, 4, 6), (3, 7, 8))
        assert exact_perf(r, f, 8, SIGNED) == brute_perf(r, f, 8, SIGNED)
        assert exact_perf(r, ParityFunction({1, 2}), 8, SIGNED) \
            == brute_perf(r, ParityFunction({1, 2}), 8, SIGNED)
        with pytest.raises(EnumerationBudgetError):
            exact_perf(r, f, 25, SIGNED)

    def test_other_types_enumerate(self):
        r, f = dnf((1, 2), (3,)), ParityFunction({2, 3})
        assert exact_perf(OpaqueFunction(r), f, 6, SIGNED) \
            == exact_perf(r, f, 6, SIGNED)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            exact_perf(conj(9), conj(1), 8, SIGNED)

    @given(a=conj_sets, b=conj_sets)
    def test_signed_binary_identity(self, a, b):
        # E[(2r-1)(2f-1)] = 4 P(r and f) - 2 P(r) - 2 P(f) + 1
        r, f, true = MonotoneConjunction(a), MonotoneConjunction(b), conj()
        signed = exact_perf(r, f, 8, SIGNED)
        both = exact_perf(r, f, 8, BINARY)
        pr = exact_perf(r, true, 8, BINARY)
        pf = exact_perf(f, true, 8, BINARY)
        assert signed == 4 * both - 2 * pr - 2 * pf + 1

    @given(a=conj_sets, b=conj_sets)
    def test_self_perf_is_one(self, a, b):
        fn = MonotoneDnf((MonotoneConjunction(a), MonotoneConjunction(b)))
        assert exact_perf(fn, fn, 8, SIGNED) == 1


class TestClosedForm:
    WORKED = [
        (conj(1), conj(1), Fraction(1)),
        (conj(1), conj(2), Fraction(0)),
        (conj(1, 2), conj(1, 2, 3), Fraction(3, 4)),
        (conj(1), conj(1, 4, 5), Fraction(1, 4)),
        (conj(), conj(), Fraction(1)),
        (conj(), conj(1, 2), Fraction(-1, 2)),
        (conj(), conj(1, 2, 3), Fraction(-3, 4)),
    ]

    def test_worked_examples(self):
        for a, b, want in self.WORKED:
            assert conj_perf_closed_form(a, b, SIGNED) == want

    def test_binary_form(self):
        assert conj_perf_closed_form(conj(1), conj(2), BINARY) == Fraction(1, 4)
        assert conj_perf_closed_form(conj(), conj(), BINARY) == Fraction(1)
        assert conj_perf_closed_form(conj(1, 2), conj(1, 2), BINARY) == Fraction(1, 4)

    @given(a=st.sets(st.integers(1, 12), max_size=4).map(frozenset),
           b=st.sets(st.integers(1, 12), max_size=4).map(frozenset))
    def test_matches_enumeration(self, a, b):
        ca, cb = MonotoneConjunction(a), MonotoneConjunction(b)
        for conv in (SIGNED, BINARY):
            assert conj_perf_closed_form(ca, cb, conv) == brute_perf(ca, cb, 12, conv)

    def test_ambient_n_free(self):
        a, b = conj(1, 2), conj(2, 5)
        assert exact_perf(a, b, 5, SIGNED) == exact_perf(a, b, 11, SIGNED) \
            == conj_perf_closed_form(a, b, SIGNED)

    def test_symmetric(self):
        for a, b, _ in self.WORKED:
            assert conj_perf_closed_form(a, b, SIGNED) == conj_perf_closed_form(b, a, SIGNED)


def test_all_size_le3_conjunctions_orthogonal_to_size4_parity():
    # a conjunction missing any parity variable has exactly zero correlation
    p = ParityFunction(frozenset({1, 2, 3, 4}))
    for size in range(4):
        for combo in combinations(range(1, 11), size):
            assert exact_perf(MonotoneConjunction(frozenset(combo)), p, 10, SIGNED) == 0


def test_conjunction_containing_parity_hits_an_eighth():
    p = ParityFunction(frozenset({1, 2, 3, 4}))
    assert exact_perf(conj(1, 2, 3, 4), p, 10, SIGNED) == Fraction(1, 8)
