"""Performance measurement: Monte-Carlo estimates, per-term matrices, aggregates.

The performance of a hypothesis r against a target f is the expected
output product under the uniform distribution.  This module supplies the
sampled estimator, the clause-by-clause performance matrix of two DNFs,
and the scalar aggregators over that matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import _kernels
from .boolfn import MonotoneDnf, OutputConvention, _check_dim, exact_perf
from .errors import KMismatchError, ParameterError, check_range


@dataclass(frozen=True)
class SampleSpec:
    """Size and seed of one Monte-Carlo estimate."""

    s: int
    seed: int

    def __post_init__(self):
        check_range("s", self.s)
        check_range("seed", self.seed)


class Aggregator(Enum):
    """Scalar summaries of the per-term performance matrix.

    MIN is the structural score (every clause pairing must be good), MAX
    the functional one (some pairing is good).  MATCHED_MIN relaxes MIN by
    letting hypothesis clauses be reassigned: the best over permutations
    of the worst matched pair.
    """

    MIN = "min"
    MAX = "max"
    MEAN = "mean"
    MEDIAN = "median"
    MATCHED_MIN = "matched_min"


@dataclass(frozen=True)
class PerfMatrix:
    """k x k signed performances: entries[i][j] is hypothesis clause j
    against target clause i."""

    entries: tuple[tuple[Fraction | float, ...], ...]

    def __post_init__(self):
        k = len(self.entries)
        if k < 1 or any(len(row) != k for row in self.entries):
            raise ParameterError("matrix must be square and nonempty")
        for row in self.entries:
            for v in row:
                if not -1 <= v <= 1:
                    raise ParameterError(f"entry {v} outside [-1, 1]")

    @property
    def k(self) -> int:
        return len(self.entries)

    def flat(self) -> list:
        return [v for row in self.entries for v in row]


def empirical_perf(r, f, n: int, spec: SampleSpec,
                   convention: OutputConvention = OutputConvention.SIGNED) -> float:
    """s-sample estimate of the expected output product of r and f.

    Points are drawn i.i.d. uniform from {0,1}^n by the counter generator
    seeded from spec.seed, so identical inputs give identical outputs.
    Every pair of function types is counted by the one count kernel,
    _kernels.counts, and the estimate is assembled from its integer
    counts, making it an exact multiple of 1/s.
    """
    _check_dim(r, n)
    _check_dim(f, n)
    c_both, c_r, c_f = _kernels.counts(spec.seed, spec.s, r.masks, r.is_parity,
                                       f.masks, f.is_parity, n)
    if convention is OutputConvention.SIGNED:
        return (4 * c_both - 2 * c_r - 2 * c_f + spec.s) / spec.s
    return c_both / spec.s


def term_perf_matrix(r: MonotoneDnf, f: MonotoneDnf, n: int) -> PerfMatrix:
    """Exact clause-by-clause signed performance matrix of hypothesis r
    against target f, from exact_perf (entries are Fractions)."""
    if r.k != f.k:
        raise KMismatchError(f"clause counts differ: {r.k} vs {f.k}")
    return PerfMatrix(tuple(tuple(exact_perf(rj, fi, n) for rj in r.clauses)
                            for fi in f.clauses))


def _has_row_matching(entries, k: int, threshold) -> bool:
    match_of_col = [-1] * k

    def try_assign(i: int, seen: list[bool]) -> bool:
        for j in range(k):
            if entries[i][j] >= threshold and not seen[j]:
                seen[j] = True
                if match_of_col[j] < 0 or try_assign(match_of_col[j], seen):
                    match_of_col[j] = i
                    return True
        return False

    return all(try_assign(i, [False] * k) for i in range(k))


def matched_min(matrix: PerfMatrix):
    """Best over clause permutations of the worst matched entry.

    Solved as a bottleneck assignment: binary-search the entry values for
    the largest threshold still admitting a perfect row-column matching.
    """
    k = matrix.k
    values = sorted(set(matrix.flat()))
    lo, hi = 0, len(values) - 1
    best = values[0]  # a matching always exists at the global minimum
    while lo <= hi:
        mid = (lo + hi) // 2
        if _has_row_matching(matrix.entries, k, values[mid]):
            best = values[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def gen_perf(matrix: PerfMatrix, aggregator: Aggregator):
    """Aggregate the k^2 matrix entries to one scalar.

    MEDIAN takes the lower median for even counts.  Exact (Fraction)
    matrices yield exact aggregates.
    """
    flat = matrix.flat()
    if aggregator is Aggregator.MIN:
        return min(flat)
    if aggregator is Aggregator.MAX:
        return max(flat)
    if aggregator is Aggregator.MEAN:
        return sum(flat) / len(flat)
    if aggregator is Aggregator.MEDIAN:
        return sorted(flat)[(len(flat) - 1) // 2]
    if aggregator is Aggregator.MATCHED_MIN:
        return matched_min(matrix)
    raise ParameterError(f"unknown aggregator {aggregator!r}")

