"""Enumeration reference for exact_perf, kept apart from the package.

exact_perf computes its counts in closed form; brute_perf counts the
same three sets point by point on the truth tables, so tests can compare
two implementations.  OpaqueFunction hides a function's type from
exact_perf, which then has to enumerate.
"""
from fractions import Fraction

import numpy as np

from evoforge.boolfn import OutputConvention, truth_table


def brute_perf(r, f, n: int, conv: OutputConvention) -> Fraction:
    """Expected output product of r and f over all 2^n points."""
    tr = truth_table(r, n)
    tf = truth_table(f, n)
    c_r = int(np.count_nonzero(tr))
    c_f = int(np.count_nonzero(tf))
    c_both = int(np.count_nonzero(tr & tf))
    total = 1 << n
    if conv is OutputConvention.SIGNED:
        return Fraction(4 * c_both - 2 * c_r - 2 * c_f + total, total)
    return Fraction(c_both, total)


class OpaqueFunction:
    """A function exact_perf has no closed form for: it can only enumerate."""

    def __init__(self, fn):
        self.fn = fn
        self.max_literal = fn.max_literal

    def truth_batch(self, xs):
        return self.fn.truth_batch(xs)
