"""Boolean functions on the n-cube and the exact correlation oracle.

Functions are monotone conjunctions (AND of unnegated variables),
monotone DNFs (OR of such conjunctions), and parities; no other type is
accepted.  Variables are 1-based; a point of {0,1}^n is bit-packed with
bit i-1 holding the value of x_i.  A conjunction or a parity is its
variable set, and stores that set only as a mask packed the same way:
its literals, size and highest variable are read off the mask's bits.
Correlations are expectations of output products under the
uniform distribution, computed exactly as rationals.  They depend on n
only through the highest variable either function mentions.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import (DimensionMismatchError, EnumerationBudgetError,
                     ParameterError)

if TYPE_CHECKING:
    import numpy as np

# Full enumeration above this dimension is refused, not attempted.
ENUM_MAX_N = 24


class OutputConvention(Enum):
    """Output range for {true, false}: SIGNED is {+1,-1}, BINARY is {1,0}."""

    SIGNED = "signed"
    BINARY = "binary"


# The highest variable index: the mask of x_v takes v bits, at most 2 MiB.
VAR_MAX = 1 << 24


def _mask_of(literals: Iterable[int]) -> int:
    """The packed mask of a variable set: bit v-1 for each x_v."""
    mask = 0
    for v in literals:
        if (not isinstance(v, int) or isinstance(v, bool)
                or not 1 <= v <= VAR_MAX):
            # an int past 4300 digits has no repr: it shows by its size
            got = (f"an int of {v.bit_length()} bits"
                   if isinstance(v, int) and v.bit_length() > 64 else repr(v))
            raise ParameterError(
                f"variable indices must be ints in 1..{VAR_MAX}, got {got}")
        mask |= 1 << (v - 1)
    return mask


@dataclass(frozen=True)
class _VariableSet:
    """A set of variables, stored only as its packed mask."""

    mask: int

    def __init__(self, literals: Iterable[int] = ()):
        object.__setattr__(self, "mask", _mask_of(literals))

    @classmethod
    def from_mask(cls, mask: int):
        """The set whose mask is `mask`, which the caller has checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "mask", mask)
        return out

    @property
    def literals(self) -> frozenset[int]:
        return frozenset(self._variables())

    def _variables(self) -> list[int]:
        """The variables in ascending order, one step per set bit."""
        out, m = [], self.mask
        while m:
            low = m & -m
            out.append(low.bit_length())
            m ^= low
        return out

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def max_literal(self) -> int:
        return self.mask.bit_length()

    @property
    def masks(self) -> tuple[int, ...]:
        """The masks the count kernels take: this one."""
        return (self.mask,)

    def __str__(self) -> str:
        return self.canonical()


class MonotoneConjunction(_VariableSet):
    """AND of unnegated variables; empty set is the constant-true function."""

    is_parity = False

    def truth_batch(self, xs: np.ndarray) -> np.ndarray:
        """Truth values over an array of packed points."""
        m = xs.dtype.type(self.mask)
        return (xs & m) == m

    def canonical(self) -> str:
        """Literal-sorted text form, "true" for the empty conjunction."""
        if not self.mask:
            return "true"
        return "&".join(f"x{v}" for v in self._variables())


@dataclass(frozen=True)
class MonotoneDnf:
    """OR of monotone conjunctions. Clause order is meaningful, duplicates legal."""

    clauses: tuple[MonotoneConjunction, ...]
    is_parity = False

    def __init__(self, clauses: Iterable[MonotoneConjunction]):
        cl = tuple(clauses)
        if not cl:
            raise ParameterError("a DNF needs at least one clause")
        if not all(isinstance(c, MonotoneConjunction) for c in cl):
            raise TypeError("clauses must be MonotoneConjunction instances")
        object.__setattr__(self, "clauses", cl)
        # one mask per clause, in order, for the count kernels
        object.__setattr__(self, "masks", tuple(c.mask for c in cl))

    @property
    def k(self) -> int:
        return len(self.clauses)

    @property
    def max_literal(self) -> int:
        return max(self.masks).bit_length()

    def truth_batch(self, xs: np.ndarray) -> np.ndarray:
        out = self.clauses[0].truth_batch(xs)
        for c in self.clauses[1:]:
            out |= c.truth_batch(xs)
        return out

    def canonical(self) -> str:
        return " | ".join(c.canonical() for c in self.clauses)

    def __str__(self) -> str:
        return self.canonical()


class ParityFunction(_VariableSet):
    """(-1) raised to the sum of a fixed nonempty variable subset; always SIGNED."""

    is_parity = True

    def __init__(self, literals: Iterable[int]):
        super().__init__(literals)
        if not self.mask:
            raise ParameterError("parity needs at least one variable")

    def truth_batch(self, xs: np.ndarray) -> np.ndarray:
        """True on even overlap, matching output +1."""
        import numpy as np

        m = xs.dtype.type(self.mask)
        return np.bitwise_count(xs & m) % 2 == 0

    def canonical(self) -> str:
        return "parity(" + ",".join(f"x{v}" for v in self._variables()) + ")"


def truth_table(fn, n: int) -> np.ndarray:
    """Boolean truth array of `fn` over all 2^n points, index = packed bits."""
    if n > ENUM_MAX_N:
        raise EnumerationBudgetError(
            f"n={n} exceeds the enumeration limit {ENUM_MAX_N}; "
            "use empirical estimation instead")
    import numpy as np

    xs = np.arange(1 << n, dtype=np.uint32)
    return np.asarray(fn.truth_batch(xs), dtype=bool)


def _check_dim(fn, n: int) -> None:
    """Refuse fn unless it lives in x1..xn: the one statement of that rule."""
    if not isinstance(fn, (MonotoneConjunction, MonotoneDnf, ParityFunction)):
        raise ParameterError("expected a conjunction, monotone DNF or parity, "
                             f"got {type(fn).__name__}")
    top = fn.max_literal
    if top > n:
        raise DimensionMismatchError(f"{fn} uses x{top} but n={n}")


# The closed form takes |terms(r)|·|terms(f)| steps.  Past 2^n steps, or
# past this many, exact_perf enumerates the cube instead; the cap keeps the
# term dictionaries small where the cube is too large to enumerate.
IE_MAX_STEPS = 1 << 20


def _ie_terms(fn, budget: int) -> dict[int, int] | None:
    """Inclusion-exclusion form of a conjunction or monotone DNF.

    Returns {mask: k} with [fn(x)] = sum of k * [x covers mask], merging
    equal masks, so |fn| = sum of k * 2^(n - |mask|).  None when fn needs
    more than `budget` terms.
    """
    if isinstance(fn, MonotoneConjunction):
        return {fn.mask: 1}
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

    None for DNFs whose expansions are too large to cost less than
    enumerating the cube.
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

    r and f are conjunctions, monotone DNFs or parities; any other type
    or an n below 1 raises ParameterError, and a variable beyond n raises
    DimensionMismatchError.  Variables neither function mentions do not
    change the value, so the counts |r|, |f|, |r AND f| are taken on the
    m-cube, m = max(r.max_literal, f.max_literal, 1):

        SIGNED:  (4*c_both - 2*c_r - 2*c_f + 2^m) / 2^m
        BINARY:  c_both / 2^m

    The counts come in closed form, by inclusion-exclusion over clause
    unions.  Only DNF pairs whose expansions outgrow the m-cube are
    enumerated, and those raise EnumerationBudgetError when m > 24.
    """
    if n < 1:  # no upper bound: n only checks the variables
        raise ParameterError(f"n must be >= 1, got {n}")
    _check_dim(r, n)
    _check_dim(f, n)
    n = max(r.max_literal, f.max_literal, 1)
    counts = _closed_counts(r, f, n)
    if counts is None:
        import numpy as np

        tr = truth_table(r, n)
        tf = truth_table(f, n)
        counts = (int(np.count_nonzero(tr)), int(np.count_nonzero(tf)),
                  int(np.count_nonzero(tr & tf)))
    c_r, c_f, c_both = counts
    total = 1 << n
    if convention is OutputConvention.SIGNED:
        return Fraction(4 * c_both - 2 * c_r - 2 * c_f + total, total)
    return Fraction(c_both, total)


# Kept only because perfbench/tracer.py wraps this name.  Like
# experiments.evolve_conjunction_vs, it goes with ROADMAP item 3's tracer
# change.
def conj_perf_closed_form(a: MonotoneConjunction, b: MonotoneConjunction,
                          convention: OutputConvention = OutputConvention.SIGNED,
                          ) -> Fraction:
    return exact_perf(a, b, max(a.max_literal, b.max_literal, 1), convention)
