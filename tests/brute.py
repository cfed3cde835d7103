"""References for the package's counts, kept apart from the package.

exact_perf computes its counts in closed form; brute_perf counts the
same three sets point by point on the truth tables.  The count kernels
fuse drawing and testing each point; sampled_counts draws the points
through rng.sample_blocks and tests them with the functions' truth_batch.
So tests compare two implementations.
"""
from fractions import Fraction

import numpy as np

from evoforge.boolfn import OutputConvention, truth_table
from evoforge.rng import sample_blocks


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



def sampled_counts(r, f, n: int, s: int, seed: int) -> tuple[int, int, int]:
    """(both true, r true, f true) over the s points of sample_blocks,
    from the functions' own truth_batch: the sampled reference for the
    count kernels."""
    c_both = c_r = c_f = 0
    for xs in sample_blocks(seed, s, n):
        tr = r.truth_batch(xs)
        tf = f.truth_batch(xs)
        c_both += int(np.count_nonzero(tr & tf))
        c_r += int(np.count_nonzero(tr))
        c_f += int(np.count_nonzero(tf))
    return c_both, c_r, c_f
