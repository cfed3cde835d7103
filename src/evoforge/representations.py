"""Representation classes: monotone conjunctions and term-wise DNF evolution.

A conjunction mutates by adding, removing, or swapping a single variable.
DNFs with a known clause count are evolved clause-by-clause, each term
against its own slice of the target, then recombined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, get_args

from .boolfn import MonotoneConjunction, MonotoneDnf, exact_perf
from .engine import (CorrelationFitness, EvalCounters, EvolutionParams,
                     EvolutionTrace, RepresentationClass, evolve)
from .errors import ParameterError
from .perf import (Aggregator, PerfMatrix, SampleSpec, empirical_perf,
                   gen_perf, term_perf_matrix)
from .rng import derive_seed

# How evolve_kdnf scores term i: against target clause i alone, or against
# whichever target clause it matches best.
TermFitness = Literal["paired", "best_any"]


def conj_neighborhood(r: MonotoneConjunction, n: int,
                      q: int) -> list[MonotoneConjunction]:
    """All single-edit mutations of r over variables 1..n, r itself first.

    Order: self, then additions by ascending variable, removals by
    ascending variable, swaps by (removed, added) ascending.  Additions
    are suppressed at the size cap q.  Size is 1 + (n-v) + v + v*(n-v)
    when the cap does not bind, with v = |vars|.  Additions, removals
    and swaps give sizes v+1, v-1 and v, and distinct moves of one kind
    give distinct sets, so no neighbour repeats.
    """
    mask = r.mask
    bits = [1 << i for i in range(n)]
    present = [b for b in bits if mask & b]
    absent = [b for b in bits if not mask & b]
    masks = [mask | b for b in absent] if r.size < q else []
    masks += [mask ^ b for b in present]
    masks += [(mask ^ u) | w for u in present for w in absent]
    return [r] + [MonotoneConjunction.from_mask(m) for m in masks]


def conj_mutation_weights(r: MonotoneConjunction,
                          neighborhood: list[MonotoneConjunction]
                          ) -> list[float]:
    """Uniform selection weights over the neighborhood."""
    return [1.0 / len(neighborhood)] * len(neighborhood)


def default_neigh_cap(n: int) -> int:
    """1 + 2n + ceil(n^2/4): the largest uncapped neighborhood plus slack."""
    return 1 + 2 * n + math.ceil(n * n / 4)


class ConjunctionClass(RepresentationClass):
    """Monotone conjunctions of at most q of n variables, with
    add/remove/swap moves.  A representation is the conjunction itself."""

    def __init__(self, n: int, q: int | None = None):
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        self.n = n
        self.q = n if q is None else q
        if not 1 <= self.q <= n:
            raise ParameterError(f"size cap must be in 1..{n}, got {self.q}")
        self.neigh_cap = default_neigh_cap(n)

    def neighborhood(self, rep: MonotoneConjunction
                     ) -> list[MonotoneConjunction]:
        return conj_neighborhood(rep, self.n, self.q)

    def mutation_weights(self, rep: MonotoneConjunction,
                         neighborhood: list[MonotoneConjunction]
                         ) -> list[float]:
        return conj_mutation_weights(rep, neighborhood)


def evolve_conjunction(target, params: EvolutionParams, *,
                       q: int | None = None,
                       fitness=None) -> EvolutionTrace:
    """Evolve a monotone conjunction from the empty one toward target.

    target is a conjunction, monotone DNF or parity.  q bounds the
    clause size (default: n, effectively uncapped); a conjunction target
    must fit under it.  fitness defaults to sampled signed correlation
    with target; CorrelationFitness(target, exact_mode=True) uses exact
    expectations instead (landscape diagnostics), and BestClauseFitness
    scores a DNF term against its best-matching clause.
    """
    q_eff = q if q is not None else params.n
    if isinstance(target, MonotoneConjunction) and target.size > q_eff:
        raise ParameterError(
            f"target has {target.size} variables, exceeding cap {q_eff}")
    if target.max_literal > params.n:
        raise ParameterError(
            f"target references x{target.max_literal} but n={params.n}")
    cls = ConjunctionClass(params.n, q=q_eff)
    if fitness is None:
        fitness = CorrelationFitness(target)
    return evolve(MonotoneConjunction(), cls, params, fitness)


class BestClauseFitness:
    """Fitness of a clause as its best correlation against ANY target clause.

    Used by the redundancy experiments: with this signal every term is
    free to chase whichever target clause it currently resembles most,
    which is what lets several terms pile onto the same clause.  Each
    clause comparison burns its own derived sample stream.
    """

    def __init__(self, target: MonotoneDnf):
        self.target = target

    def estimate(self, fn, n: int, s: int, seed: int,
                 counters: EvalCounters | None = None) -> float:
        if counters is not None:
            counters.add(self.target.k, self.target.k * s)
        return max(
            empirical_perf(fn, clause, n, SampleSpec(s, derive_seed(seed, i)))
            for i, clause in enumerate(self.target.clauses))

    def exact_value(self, fn, n: int) -> float:
        return float(max(exact_perf(fn, c, n) for c in self.target.clauses))


@dataclass(frozen=True)
class KdnfResult:
    result: MonotoneDnf
    traces: tuple[EvolutionTrace, ...]
    matrix: PerfMatrix
    gen_perfs: dict
    samples_drawn: int


def evolve_kdnf(target: MonotoneDnf, params: EvolutionParams, *,
                term_fitness: TermFitness = "paired",
                q: int | None = None) -> KdnfResult:
    """Evolve each clause of target separately, then recombine.

    Term i runs at seed derive_seed(params.seed, i); with one clause,
    "paired" reproduces evolve_conjunction at that seed.  term_fitness
    "paired" evolves term i against target clause i alone; "best_any"
    scores every term against its best-matching target clause (the
    redundancy-bias variant).  The exact clause-vs-clause matrix of the
    combined result is evaluated under every aggregator.
    """
    if term_fitness not in get_args(TermFitness):
        raise ParameterError(f"unknown term fitness mode: {term_fitness!r}")
    traces = []
    for i, clause in enumerate(target.clauses):
        fitness = (BestClauseFitness(target) if term_fitness == "best_any"
                   else None)
        traces.append(evolve_conjunction(
            clause, replace(params, seed=derive_seed(params.seed, i)),
            q=q, fitness=fitness))
    result = MonotoneDnf(tuple(t.final_rep for t in traces))
    matrix = term_perf_matrix(result, target, params.n)
    return KdnfResult(result=result, traces=tuple(traces), matrix=matrix,
                      gen_perfs={agg: gen_perf(matrix, agg)
                                 for agg in Aggregator},
                      samples_drawn=sum(t.samples_drawn for t in traces))
