"""Boolean functions on the n-cube and exact correlation oracles.

Functions are monotone conjunctions (AND of unnegated variables,
identified with their variable sets), monotone DNFs (OR of such
conjunctions), and parities; any object with a vectorized `truth_batch`
over packed points and a `max_literal` can stand in for one.  Variables
are 1-based; a point of {0,1}^n is bit-packed with bit i-1 holding the
value of x_i.  Correlations are
expectations of output products under the uniform distribution, computed
exactly as rationals with denominator 2^n.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (DimensionMismatchError, EnumerationBudgetError,
                     ParameterError)

# Full enumeration above this dimension is refused, not attempted.
ENUM_MAX_N = 24


class OutputConvention(Enum):
    """Output range for {true, false}: SIGNED is {+1,-1}, BINARY is {1,0}."""

    SIGNED = "signed"
    BINARY = "binary"


def _check_literals(literals: Iterable[int]) -> frozenset[int]:
    out = frozenset(literals)
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ParameterError(f"variable indices must be positive ints, got {v!r}")
    return out


@dataclass(frozen=True)
class MonotoneConjunction:
    """AND of unnegated variables; empty set is the constant-true function."""

    literals: frozenset[int]

    def __init__(self, literals: Iterable[int] = ()):
        object.__setattr__(self, "literals", _check_literals(literals))

    @property
    def size(self) -> int:
        return len(self.literals)

    @property
    def max_literal(self) -> int:
        return max(self.literals, default=0)

    @cached_property
    def mask(self) -> int:
        return sum(1 << (v - 1) for v in self.literals)

    def truth_batch(self, xs: np.ndarray) -> np.ndarray:
        """Truth values over an array of packed points."""
        m = xs.dtype.type(self.mask)
        return (xs & m) == m

    def canonical(self) -> str:
        """Literal-sorted text form, "true" for the empty conjunction."""
        if not self.literals:
            return "true"
        return "&".join(f"x{v}" for v in sorted(self.literals))

    def __str__(self) -> str:
        return self.canonical()


@dataclass(frozen=True)
class MonotoneDnf:
    """OR of monotone conjunctions. Clause order is meaningful, duplicates legal."""

    clauses: tuple[MonotoneConjunction, ...]

    def __init__(self, clauses: Iterable[MonotoneConjunction]):
        cl = tuple(clauses)
        if not cl:
            raise ParameterError("a DNF needs at least one clause")
        if not all(isinstance(c, MonotoneConjunction) for c in cl):
            raise TypeError("clauses must be MonotoneConjunction instances")
        object.__setattr__(self, "clauses", cl)

    @property
    def k(self) -> int:
        return len(self.clauses)

    @property
    def max_literal(self) -> int:
        return max(c.max_literal for c in self.clauses)

    def truth_batch(self, xs: np.ndarray) -> np.ndarray:
        out = self.clauses[0].truth_batch(xs)
        for c in self.clauses[1:]:
            out |= c.truth_batch(xs)
        return out

    def canonical(self) -> str:
        return " | ".join(c.canonical() for c in self.clauses)

    def __str__(self) -> str:
        return self.canonical()


@dataclass(frozen=True)
class ParityFunction:
    """(-1) raised to the sum of a fixed nonempty variable subset; always SIGNED."""

    literals: frozenset[int]

    def __init__(self, literals: Iterable[int]):
        lits = _check_literals(literals)
        if not lits:
            raise ParameterError("parity needs at least one variable")
        object.__setattr__(self, "literals", lits)

    @property
    def size(self) -> int:
        return len(self.literals)

    @property
    def max_literal(self) -> int:
        return max(self.literals)

    @cached_property
    def mask(self) -> int:
        return sum(1 << (v - 1) for v in self.literals)

    def truth_batch(self, xs: np.ndarray) -> np.ndarray:
        """True on even overlap, matching output +1."""
        m = xs.dtype.type(self.mask)
        return np.bitwise_count(xs & m) % 2 == 0

    def canonical(self) -> str:
        return "parity(" + ",".join(f"x{v}" for v in sorted(self.literals)) + ")"

    def __str__(self) -> str:
        return self.canonical()


def truth_table(fn, n: int) -> np.ndarray:
    """Boolean truth array of `fn` over all 2^n points, index = packed bits."""
    if n > ENUM_MAX_N:
        raise EnumerationBudgetError(
            f"n={n} exceeds the enumeration limit {ENUM_MAX_N}; "
            "use empirical estimation instead")
    xs = np.arange(1 << n, dtype=np.uint32)
    return np.asarray(fn.truth_batch(xs), dtype=bool)


def _check_dim(fn, n: int) -> None:
    top = fn.max_literal
    if top > n:
        raise DimensionMismatchError(f"function uses x{top} but n={n}")


# The closed form takes |terms(r)|·|terms(f)| steps.  Past 2^n steps, or
# past this many, exact_perf enumerates the cube instead; the cap keeps the
# term dictionaries small where the cube is too large to enumerate.
IE_MAX_STEPS = 1 << 20


def _ie_terms(fn, budget: int) -> dict[int, int] | None:
    """Inclusion-exclusion form of a conjunction or monotone DNF.

    Returns {mask: k} with [fn(x)] = sum of k * [x covers mask], merging
    equal masks, so |fn| = sum of k * 2^(n - |mask|).  None when fn is of
    another type or needs more than `budget` terms.
    """
    if isinstance(fn, MonotoneConjunction):
        return {fn.mask: 1}
    if not isinstance(fn, MonotoneDnf):
        return None
    terms: dict[int, int] = {}
    for c in fn.clauses:
        # [A or c] = [A] + [c] - [A and c]
        m = c.mask
        grown = dict(terms)
        grown[m] = grown.get(m, 0) + 1
        for t, k in terms.items():
            u = t | m
            grown[u] = grown.get(u, 0) - k
        terms = {t: k for t, k in grown.items() if k}
        if len(terms) > budget:
            return None
    return terms


def _size(terms: dict[int, int], n: int) -> int:
    return sum(k << (n - m.bit_count()) for m, k in terms.items())


def _both_parity(terms: dict[int, int], parity: int, n: int) -> int:
    """Points where the terms' function holds and the parity is even.

    Above a term m that misses a parity variable, half the points are
    even; above one that covers them all, the parity is constant.
    """
    even_when_covered = parity.bit_count() % 2 == 0
    total = 0
    for m, k in terms.items():
        if parity & ~m:
            total += k << (n - m.bit_count() - 1)
        elif even_when_covered:
            total += k << (n - m.bit_count())
    return total


def _closed_counts(r, f, n: int) -> tuple[int, int, int] | None:
    """(|r|, |f|, |r and f|) over the 2^n points without enumerating.

    None for a pair the closed form does not cover cheaply: a function of
    another type, or DNFs whose expansions are too large.
    """
    budget = min(1 << n, IE_MAX_STEPS)
    if isinstance(r, ParityFunction) and isinstance(f, ParityFunction):
        half = 1 << (n - 1)
        return half, half, half if r.mask == f.mask else half >> 1
    if isinstance(r, ParityFunction):
        swapped = _closed_counts(f, r, n)
        return None if swapped is None else (swapped[1], swapped[0], swapped[2])
    tr = _ie_terms(r, budget)
    if tr is None:
        return None
    if isinstance(f, ParityFunction):
        return _size(tr, n), 1 << (n - 1), _both_parity(tr, f.mask, n)
    tf = _ie_terms(f, budget)
    if tf is None or len(tr) * len(tf) > budget:
        return None
    both = 0
    for mr, kr in tr.items():
        for mf, kf in tf.items():
            both += kr * kf << (n - (mr | mf).bit_count())
    return _size(tr, n), _size(tf, n), both


def exact_perf(r, f, n: int,
               convention: OutputConvention = OutputConvention.SIGNED) -> Fraction:
    """Exact expected output product of r and f on uniform {0,1}^n.

    Returns the exact rational (denominator 2^n).  Only the three counts
    |r|, |f|, |r AND f| matter:

        SIGNED:  (4*c_both - 2*c_r - 2*c_f + 2^n) / 2^n
        BINARY:  c_both / 2^n

    Conjunctions, monotone DNFs and parities get the counts in closed
    form, by inclusion-exclusion over clause unions, at any n.  Other
    function types, and DNF pairs whose expansions outgrow the cube, are
    enumerated: those raise EnumerationBudgetError above n=24.  Raises
    DimensionMismatchError if either function mentions a variable
    beyond n.
    """
    if n < 1:
        raise DimensionMismatchError(f"dimension must be positive, got {n}")
    _check_dim(r, n)
    _check_dim(f, n)
    counts = _closed_counts(r, f, n)
    if counts is None:
        tr = truth_table(r, n)
        tf = truth_table(f, n)
        counts = (int(np.count_nonzero(tr)), int(np.count_nonzero(tf)),
                  int(np.count_nonzero(tr & tf)))
    c_r, c_f, c_both = counts
    total = 1 << n
    if convention is OutputConvention.SIGNED:
        return Fraction(4 * c_both - 2 * c_r - 2 * c_f + total, total)
    return Fraction(c_both, total)


def conj_perf_closed_form(a: MonotoneConjunction, b: MonotoneConjunction,
                          convention: OutputConvention = OutputConvention.SIGNED,
                          ) -> Fraction:
    """Correlation of two monotone conjunctions without enumeration.

    For nonempty A, B under SIGNED:

        1 - 2^(1-|A|) - 2^(1-|B|) + 2^(2-|A union B|)

    Empty conjunctions are the constant-true function: two empties give 1,
    one empty against size m gives 2^(1-m) - 1.  BINARY is the probability
    both are true, 2^(-|A union B|).  Independent of the ambient dimension.
    """
    union = len(a.literals | b.literals)
    if convention is OutputConvention.BINARY:
        return Fraction(1, 1 << union)
    if not a.literals and not b.literals:
        return Fraction(1)
    if not a.literals:
        return Fraction(2, 1 << b.size) - 1
    if not b.literals:
        return Fraction(2, 1 << a.size) - 1
    return (Fraction(1)
            - Fraction(2, 1 << a.size)
            - Fraction(2, 1 << b.size)
            + Fraction(4, 1 << union))
