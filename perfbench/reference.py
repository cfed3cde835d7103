"""Reference computations for the benchmark's checks, kept apart from evoforge.

Nothing here imports evoforge or numpy.  Functions are plain values:

    ("dnf", (frozenset({1, 2}), frozenset({3})))   x1&x2 | x3
    ("dnf", (frozenset({1, 2}),))                  the conjunction x1&x2
    ("parity", frozenset({1, 2}))                  parity(x1,x2)

The empty clause is the constant-true conjunction.  A point of {0,1}^n is
an int whose bit i-1 holds x_i.  Correlations are signed: outputs +1 for
true and -1 for false, and a parity is +1 on an even number of its
variables set.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

# The counter stream of evoforge.rng, from its docstrings: sample i of
# stream `seed` is mix64(seed + (i+1)*GAMMA) masked to the low n bits,
# with the splitmix64 finalizer as mix64.
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_C1 = 0xBF58476D1CE4E5B9
MIX_C2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_C1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_C2) & MASK64
    return z ^ (z >> 31)


def stream(seed: int, count: int, n: int):
    """The first `count` points of the counter stream `seed` on {0,1}^n."""
    dim_mask = (1 << n) - 1
    for i in range(1, count + 1):
        yield mix64(seed + i * GAMMA) & dim_mask


def parse(text: str):
    """The text syntax of evoforge.funcspec: x1&x2 | x3, true, parity(x1,x2)."""
    body = text.strip()
    if body.startswith("parity(") and body.endswith(")"):
        return ("parity", frozenset(_var(t) for t in body[7:-1].split(",")))
    return ("dnf", tuple(_clause(part) for part in body.split("|")))


def _var(token: str) -> int:
    token = token.strip()
    if not (token.startswith("x") and token[1:].isdigit()):
        raise ValueError(f"not a variable: {token!r}")
    return int(token[1:])


def _clause(text: str) -> frozenset:
    text = text.strip()
    if text == "true":
        return frozenset()
    return frozenset(_var(t) for t in text.split("&"))


def to_text(fn) -> str:
    kind, body = fn
    if kind == "parity":
        return "parity(" + ",".join(f"x{v}" for v in sorted(body)) + ")"
    return " | ".join("&".join(f"x{v}" for v in sorted(c)) or "true"
                      for c in body)


def truth(fn, x: int) -> bool:
    kind, body = fn
    if kind == "parity":
        return sum((x >> (v - 1)) & 1 for v in body) % 2 == 0
    return any(all((x >> (v - 1)) & 1 for v in c) for c in body)


def prob_dnf(clauses) -> Fraction:
    """P[some clause holds] by inclusion-exclusion over the clause set."""
    total = Fraction(0)
    for size in range(1, len(clauses) + 1):
        for subset in combinations(clauses, size):
            union = frozenset().union(*subset)
            total += Fraction((-1) ** (size + 1), 1 << len(union))
    return total


def corr(r, f) -> Fraction:
    """Exact signed correlation E[r*f], independent of the ambient n.

    Two DNFs: P[r and f] = P[r] + P[f] - P[r or f], each by
    inclusion-exclusion, and E[r*f] = 1 - 2 P[r != f].  A conjunction A
    against a parity S: (-1)^|S| * 2^(1-|A|) when S is a subset of A,
    else 0.
    """
    if r[0] == "parity" and f[0] == "dnf":
        r, f = f, r
    if r[0] == "dnf" and f[0] == "dnf":
        p_r, p_f = prob_dnf(r[1]), prob_dnf(f[1])
        p_both = p_r + p_f - prob_dnf(r[1] + f[1])
        return 1 - 2 * (p_r + p_f - 2 * p_both)
    if r[0] == "dnf" and len(r[1]) == 1:
        a, s = r[1][0], f[1]
        if not s <= a:
            return Fraction(0)
        return (-1) ** len(s) * Fraction(2, 1 << len(a))
    raise ValueError(f"no reference for {to_text(r)} against {to_text(f)}")


def brute_corr(r, f, n: int) -> Fraction:
    """E[r*f] by enumerating all 2^n points."""
    agree = sum(truth(r, x) == truth(f, x) for x in range(1 << n))
    return Fraction(2 * agree - (1 << n), 1 << n)


def sampled_corr(r, f, n: int, s: int, seed: int) -> float:
    """The s-sample estimate on the counter stream, from integer counts."""
    c_both = c_r = c_f = 0
    for x in stream(seed, s, n):
        tr, tf = truth(r, x), truth(f, x)
        c_r += tr
        c_f += tf
        c_both += tr and tf
    return (4 * c_both - 2 * c_r - 2 * c_f + s) / s


def matched_min(matrix):
    """Best over clause permutations of the worst matched entry."""
    k = len(matrix)
    return max(min(matrix[i][p[i]] for i in range(k))
               for p in permutations(range(k)))
