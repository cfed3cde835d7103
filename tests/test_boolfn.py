from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_perf
from evoforge import boolfn
from evoforge.boolfn import (MonotoneConjunction, MonotoneDnf,
                             OutputConvention, ParityFunction,
                             conj_perf_closed_form, exact_perf, truth_table)
from evoforge.errors import (DimensionMismatchError, EnumerationBudgetError,
                             ParameterError)
from evoforge.perf import SampleSpec, empirical_perf

SIGNED = OutputConvention.SIGNED
BINARY = OutputConvention.BINARY


def conj(*vars_):
    return MonotoneConjunction(frozenset(vars_))


def dnf(*clauses):
    return MonotoneDnf(tuple(conj(*c) for c in clauses))


def point(text):
    """Pack "110" as x1=1, x2=1, x3=0: the leftmost character is bit 0."""
    return np.array([int(text[::-1], 2)], dtype=np.uint32)


def holds(fn, text):
    return bool(fn.truth_batch(point(text))[0])


def bit(x, var):
    return (x >> (var - 1)) & 1


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


class TestConjunction:
    def test_eval_examples(self):
        assert holds(conj(1, 2), "110")
        assert holds(conj(), "000")
        assert holds(conj(1, 4, 5), "10011000")
        assert not holds(conj(1, 2), "100")
        assert not holds(conj(1, 2), "011")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="x5 but n=3"):
            empirical_perf(conj(5), conj(1), 3, SampleSpec(10, 0))

    def test_bad_literals(self):
        with pytest.raises(ParameterError):
            conj(0)
        with pytest.raises(ParameterError):
            conj(-2)
        with pytest.raises(ParameterError, match=r"in 1\.\.16777216, "
                                                 r"got 16777217$"):
            conj(boolfn.VAR_MAX + 1)

    @pytest.mark.parametrize("v", [10 ** 5000, -10 ** 5000],
                             ids=["5000_digits", "minus_5000_digits"])
    def test_huge_index_refused_by_its_size(self, v):
        # past 4300 digits an int has no repr, which the message must not need
        with pytest.raises(ParameterError, match=r"in 1\.\.16777216, got an "
                                                 r"int of 16610 bits$"):
            MonotoneConjunction([v])

    def test_index_up_to_the_bound(self):
        big = conj(1, 1000000)
        assert big.max_literal == 1000000
        assert exact_perf(big, conj(1), 1000000) == Fraction(1, 2)
        assert conj(boolfn.VAR_MAX).max_literal == 1 << 24

    def test_canonical(self):
        assert conj(4, 1).canonical() == "x1&x4"
        assert conj().canonical() == "true"
        assert conj(10, 2).canonical() == "x2&x10"

    def test_truth_batch_matches_scalar(self):
        c = conj(1, 3)
        xs = np.arange(16, dtype=np.uint32)
        scalar = [bit(x, 1) == 1 and bit(x, 3) == 1 for x in range(16)]
        assert c.truth_batch(xs).tolist() == scalar


class TestDnf:
    def test_eval_examples(self):
        assert not holds(dnf((1,), (2,), (3,)), "000000")
        tgt = dnf((1, 4, 5), (2, 4, 6), (3, 7, 8))
        assert holds(tgt, "01010100")  # x2=x4=x6=1

    def test_duplicate_clauses_legal(self):
        d = dnf((1,), (1,))
        assert d.k == 2
        assert holds(d, "1")

    def test_needs_a_clause(self):
        with pytest.raises(ParameterError):
            MonotoneDnf(())

    def test_canonical(self):
        assert dnf((1, 2), (3,)).canonical() == "x1&x2 | x3"

    def test_or_of_clauses_exhaustive(self):
        d = dnf((1, 4), (2, 3), (1,))
        xs = np.arange(2 ** 6, dtype=np.uint32)
        want = [any(all(bit(x, v) for v in c.literals) for c in d.clauses)
                for x in range(2 ** 6)]
        assert d.truth_batch(xs).tolist() == want


def test_a_set_is_its_mask():
    c, d, p = conj(1, 3), dnf((1, 3), (2,)), ParityFunction({2, 4})
    assert (c.mask, d.masks, p.mask) == (0b101, (0b101, 0b10), 0b1010)
    assert [f.name for f in fields(MonotoneConjunction)] == ["mask"]
    assert [f.name for f in fields(ParityFunction)] == ["mask"]
    assert [f.name for f in fields(MonotoneDnf)] == ["clauses"]
    for cls in (MonotoneConjunction, ParityFunction):
        built = cls((3, 1))
        assert built == cls.from_mask(0b101)
        assert hash(built) == hash(cls.from_mask(0b101))
    assert c != ParityFunction({1, 3})
    for v in (200, 1000000):
        for f, text in ((conj(v), f"x{v}"),
                        (ParityFunction({v}), f"parity(x{v})")):
            assert (f.literals, f.size, f.max_literal) == (frozenset({v}), 1, v)
            assert f.mask == 1 << (v - 1)
            assert f.canonical() == text


class TestParity:
    def test_eval_examples(self):
        # true is output +1: an even number of the variables are set
        assert not holds(ParityFunction(frozenset({1})), "1")
        assert holds(ParityFunction(frozenset({1, 2})), "11")
        assert holds(ParityFunction(frozenset({1, 2, 3})), "101")
        assert not holds(ParityFunction(frozenset({1, 2, 3})), "100")

    def test_nonempty(self):
        with pytest.raises(ParameterError):
            ParityFunction(frozenset())

    def test_canonical(self):
        assert ParityFunction(frozenset({2, 1})).canonical() == "parity(x1,x2)"

    def test_truth_batch_matches_scalar(self):
        p = ParityFunction(frozenset({1, 3}))
        xs = np.arange(16, dtype=np.uint32)
        scalar = [bit(x, 1) ^ bit(x, 3) == 0 for x in range(16)]
        assert p.truth_batch(xs).tolist() == scalar


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

    @given(a=st.sets(st.integers(1, 12), max_size=4).map(frozenset),
           b=st.sets(st.integers(1, 12), max_size=4).map(frozenset))
    def test_conjunctions_match_enumeration(self, a, b):
        ca, cb = MonotoneConjunction(a), MonotoneConjunction(b)
        for conv in (SIGNED, BINARY):
            want = brute_perf(ca, cb, 12, conv)
            assert exact_perf(ca, cb, 12, conv) == want
            assert exact_perf(ca, cb, 30, conv) == want

    def test_symmetry_and_budget(self, monkeypatch):
        # the value does not depend on n; only a DNF pair whose expansions
        # outgrow the cube enumerates, and past x24 it is refused
        r, f = conj(1, 2), conj(2, 3)
        assert exact_perf(r, f, 5, SIGNED) == exact_perf(f, r, 5, SIGNED)
        assert exact_perf(r, f, 25, SIGNED) == exact_perf(r, f, 5, SIGNED)
        monkeypatch.setattr(boolfn, "IE_MAX_STEPS", 4)
        with pytest.raises(EnumerationBudgetError):
            exact_perf(dnf((1,), (2,), (25,)), dnf((1, 4), (2, 5), (3, 6)),
                       25, SIGNED)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 12))
        r = data.draw(cube_functions(n))
        f = data.draw(cube_functions(n))
        d = data.draw(st.integers(0, 40))
        for conv in (SIGNED, BINARY):
            assert exact_perf(r, f, n, conv) == brute_perf(r, f, n, conv)
            assert exact_perf(f, r, n, conv) == brute_perf(f, r, n, conv)
            assert exact_perf(r, f, n, conv) == exact_perf(r, f, n + d, conv)

    def test_large_expansions_enumerate(self, monkeypatch):
        # past the step cap, DNF pairs fall back to enumeration, on the
        # cube of their highest variable whatever n is
        monkeypatch.setattr(boolfn, "IE_MAX_STEPS", 4)
        r = dnf((1,), (2,), (3,))
        f = dnf((1, 4, 5), (2, 4, 6), (3, 7, 8))
        assert exact_perf(r, f, 8, SIGNED) == brute_perf(r, f, 8, SIGNED)
        assert exact_perf(r, f, 25, SIGNED) == brute_perf(r, f, 8, SIGNED)
        assert exact_perf(r, ParityFunction({1, 2}), 8, SIGNED) \
            == brute_perf(r, ParityFunction({1, 2}), 8, SIGNED)
        with pytest.raises(EnumerationBudgetError):
            exact_perf(r, dnf((1, 4, 5), (2, 4, 6), (3, 7, 25)), 25, SIGNED)

    def test_other_types_refused(self):
        class Opaque:
            """The old duck type: a truth_batch and a max_literal."""

            max_literal = 3

            def truth_batch(self, xs):
                return ParityFunction({2, 3}).truth_batch(xs)

        fn = dnf((1, 2), (3,))
        for other in (Opaque(), frozenset({1, 2}), "x1&x2"):
            for r, f in ((other, fn), (fn, other)):
                with pytest.raises(ParameterError):
                    exact_perf(r, f, 6, SIGNED)
                with pytest.raises(ParameterError):
                    empirical_perf(r, f, 6, SampleSpec(10, 0))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            exact_perf(conj(9), conj(1), 8, SIGNED)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_refused(self, n):
        with pytest.raises(ParameterError, match=rf"^n must be >= 1, got {n}$"):
            exact_perf(conj(), conj(), n, SIGNED)

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
    # conj_perf_closed_form is only a name kept for exact_perf; the worked
    # examples hold for both, at any ambient n
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
            for n in (5, 40):
                assert exact_perf(a, b, n, SIGNED) == want

    def test_binary_form(self):
        for a, b, want in ((conj(1), conj(2), Fraction(1, 4)),
                           (conj(), conj(), Fraction(1)),
                           (conj(1, 2), conj(1, 2), Fraction(1, 4))):
            assert conj_perf_closed_form(a, b, BINARY) == want
            for n in (5, 40):
                assert exact_perf(a, b, n, BINARY) == want

    def test_ambient_n_free(self):
        a, b = conj(1, 2), conj(2, 5)
        assert exact_perf(a, b, 5, SIGNED) == exact_perf(a, b, 11, SIGNED) \
            == conj_perf_closed_form(a, b, SIGNED)

    def test_symmetric(self):
        for a, b, _ in self.WORKED:
            assert conj_perf_closed_form(a, b, SIGNED) \
                == conj_perf_closed_form(b, a, SIGNED)
            for n in (5, 40):
                assert exact_perf(a, b, n, SIGNED) == exact_perf(b, a, n, SIGNED)


def test_all_size_le3_conjunctions_orthogonal_to_size4_parity():
    # a conjunction missing any parity variable has exactly zero correlation
    p = ParityFunction(frozenset({1, 2, 3, 4}))
    for size in range(4):
        for combo in combinations(range(1, 11), size):
            assert exact_perf(MonotoneConjunction(frozenset(combo)), p, 10, SIGNED) == 0


def test_conjunction_containing_parity_hits_an_eighth():
    p = ParityFunction(frozenset({1, 2, 3, 4}))
    assert exact_perf(conj(1, 2, 3, 4), p, 10, SIGNED) == Fraction(1, 8)
