"""Tests of the benchmark's reference computations against brute force.

    python3 -m pytest perfbench/test_reference.py
"""
import random
from fractions import Fraction

import checks
import inputs
import reference as ref


def _random_dnf(rng, n):
    # Empty clauses (constant true) and repeated clauses included.
    return ("dnf", tuple(
        frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(3, n))))
        for _ in range(rng.randint(1, 4))))


def test_stream_is_splitmix64():
    # The first outputs of the splitmix64 generator seeded with 0.
    assert list(ref.stream(0, 3, 64)) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert list(ref.stream(0, 3, 10)) == [x & 1023 for x in ref.stream(0, 3, 64)]


def test_dnf_correlation_matches_enumeration():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 10)
        r, f = _random_dnf(rng, n), _random_dnf(rng, n)
        assert ref.corr(r, f) == ref.brute_corr(r, f, n), (r, f)


def test_conjunction_parity_formula_matches_enumeration():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 10)
        conj = ("dnf", (frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))),))
        parity = ("parity", frozenset(rng.sample(range(1, n + 1),
                                                 rng.randint(1, n))))
        want = ref.brute_corr(conj, parity, n)
        assert ref.corr(conj, parity) == want
        assert ref.corr(parity, conj) == want


def test_sampled_estimate_counts_the_stream_points():
    r, f = ref.parse("x1&x2 | x3"), ref.parse("parity(x1,x3)")
    points = list(ref.stream(7, 500, 4))
    agree = sum(ref.truth(r, x) == ref.truth(f, x) for x in points)
    assert ref.sampled_corr(r, f, 4, 500, 7) == (2 * agree - 500) / 500


def test_text_round_trips():
    for text in ("x1&x4&x5 | x2&x4&x6 | x3&x7&x8", "true", "x3",
                 "parity(x1,x2)", "true | x2"):
        assert ref.to_text(ref.parse(text)) == text


def test_counterexample_goldens():
    """The paper's counterexample values, from the references."""
    hyp = ref.parse(inputs.COUNTEREXAMPLE_HYPOTHESIS)
    tgt = ref.parse(inputs.COUNTEREXAMPLE_TARGET)
    assert ref.corr(hyp, tgt) == Fraction(-30, 256)
    assert ref.corr(hyp, tgt) == ref.brute_corr(hyp, tgt, 8)
    matrix = [[ref.corr(("dnf", (h,)), ("dnf", (t,))) for h in hyp[1]]
              for t in tgt[1]]
    assert checks._aggregates(matrix) == {
        "min": 0, "max": Fraction(1, 4), "mean": Fraction(1, 12),
        "median": 0, "matched_min": Fraction(1, 4)}


def test_matched_min_is_a_bottleneck_assignment():
    # The diagonal's worst entry is 0; row i with column i+1 gives 5 throughout.
    matrix = [[0, 5, 2], [2, 9, 5], [5, 2, 9]]
    assert ref.matched_min(matrix) == 5


def test_oracle_queries_depend_only_on_the_seed():
    assert inputs.oracle_queries(5) == inputs.oracle_queries(5)
    assert inputs.oracle_queries(5) != inputs.oracle_queries(6)
    for q in inputs.oracle_queries(5):
        ref.corr(ref.parse(q["r"]), ref.parse(q["f"]))   # all have references
