"""Representation classes: monotone conjunctions and term-wise DNF evolution.

A conjunction mutates by adding, removing, or swapping a single variable.
DNFs with a known clause count are evolved clause-by-clause, each term
against its own slice of the target, then recombined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .boolfn import MonotoneConjunction, MonotoneDnf, conj_perf_closed_form
from .engine import (CorrelationFitness, EvalCounters, EvolutionParams,
                     EvolutionTrace, RepresentationClass, evolve)
from .errors import ParameterError
from .perf import (Aggregator, PerfMatrix, SampleSpec, empirical_perf,
                   gen_perf, term_perf_matrix)
from .rng import derive_seed


@dataclass(frozen=True)
class ConjunctionRep:
    """A monotone conjunction together with its clause-size cap q."""

    conj: MonotoneConjunction
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ParameterError(f"size cap must be >= 1, got {self.q}")
        if self.conj.size > self.q:
            raise ParameterError(
                f"conjunction has {self.conj.size} variables, cap is {self.q}")


def conj_neighborhood(r: ConjunctionRep, n: int) -> list[ConjunctionRep]:
    """All single-edit mutations of r over variables 1..n, r itself first.

    Order: self, then additions by ascending variable, removals by
    ascending variable, swaps by (removed, added) ascending.  Additions
    are suppressed at the size cap.  Size is 1 + (n-v) + v + v*(n-v)
    when the cap does not bind, with v = |vars|.
    """
    present = sorted(r.conj.literals)
    absent = [v for v in range(1, n + 1) if v not in r.conj.literals]
    out = [r]
    seen = {r.conj.literals}

    def push(lits):
        fs = frozenset(lits)
        if fs not in seen:
            seen.add(fs)
            out.append(ConjunctionRep(MonotoneConjunction(fs), r.q))

    if r.conj.size < r.q:
        for v in absent:
            push(r.conj.literals | {v})
    for v in present:
        push(r.conj.literals - {v})
    for u in present:
        for w in absent:
            push((r.conj.literals - {u}) | {w})
    return out


def conj_mutation_weights(r: ConjunctionRep,
                          neighborhood: list[ConjunctionRep]) -> list[float]:
    """Uniform selection weights over the neighborhood."""
    return [1.0 / len(neighborhood)] * len(neighborhood)


def default_neigh_cap(n: int) -> int:
    """1 + 2n + ceil(n^2/4): the largest uncapped neighborhood plus slack."""
    return 1 + 2 * n + math.ceil(n * n / 4)


class ConjunctionClass(RepresentationClass):
    """Monotone conjunctions over n variables with add/remove/swap moves."""

    def __init__(self, n: int, q: int | None = None):
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        self.n = n
        self.q = n if q is None else q
        if not 1 <= self.q <= n:
            raise ParameterError(f"size cap must be in 1..{n}, got {self.q}")
        self.neigh_cap = default_neigh_cap(n)

    def neighborhood(self, rep: ConjunctionRep,
                     epsilon: float) -> list[ConjunctionRep]:
        return conj_neighborhood(rep, self.n)

    def mutation_weights(self, rep: ConjunctionRep,
                         neighborhood: list[ConjunctionRep]) -> list[float]:
        return conj_mutation_weights(rep, neighborhood)

    def function(self, rep: ConjunctionRep) -> MonotoneConjunction:
        return rep.conj


def evolve_conjunction(target: MonotoneConjunction, params: EvolutionParams,
                       r0: ConjunctionRep | None = None, *,
                       q: int | None = None,
                       use_exact: bool = False) -> EvolutionTrace:
    """Evolve a monotone conjunction toward target under signed correlation.

    Starts from the empty conjunction unless r0 is given.  q bounds the
    clause size (default: n, effectively uncapped); the target must fit
    under it.  use_exact replaces sampling with exact expectations, for
    landscape diagnostics.
    """
    if r0 is not None and q is not None and r0.q != q:
        raise ParameterError(f"r0 carries cap {r0.q} but q={q} was given")
    q_eff = q if q is not None else (r0.q if r0 is not None else params.n)
    if target.size > q_eff:
        raise ParameterError(
            f"target has {target.size} variables, exceeding cap {q_eff}")
    if target.max_literal > params.n:
        raise ParameterError(
            f"target references x{target.max_literal} but n={params.n}")
    if r0 is None:
        r0 = ConjunctionRep(MonotoneConjunction(frozenset()), q_eff)
    cls = ConjunctionClass(params.n, q=q_eff)
    fitness = CorrelationFitness(target, exact_mode=use_exact)
    return evolve(r0, cls, target, params, fitness)


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

    def exact_value(self, fn, n: int) -> float | None:
        if not isinstance(fn, MonotoneConjunction):
            return None
        return float(max(conj_perf_closed_form(fn, c)
                         for c in self.target.clauses))


@dataclass(frozen=True)
class KdnfResult:
    result: MonotoneDnf
    traces: tuple[EvolutionTrace, ...]
    matrix: PerfMatrix
    gen_perfs: dict
    perf_evals: int
    samples_drawn: int


def evolve_kdnf(target: MonotoneDnf, params: EvolutionParams, *,
                term_fitness: str = "paired",
                q: int | None = None) -> KdnfResult:
    """Evolve each clause of target separately, then recombine.

    Term i runs at seed derive_seed(params.seed, i); with one clause,
    "paired" reproduces evolve_conjunction at that seed.  term_fitness
    "paired" evolves term i against target clause i alone; "best_any"
    scores every term against its best-matching target clause (the
    redundancy-bias variant).  The exact clause-vs-clause matrix of the
    combined result is evaluated under every aggregator.
    """
    if term_fitness not in ("paired", "best_any"):
        raise ParameterError(f"unknown term fitness mode: {term_fitness!r}")
    q_eff = q if q is not None else params.n
    traces = []
    for i, clause in enumerate(target.clauses):
        tparams = replace(params, seed=derive_seed(params.seed, i))
        if term_fitness == "paired":
            traces.append(evolve_conjunction(clause, tparams, q=q_eff))
        else:
            if clause.size > q_eff:
                raise ParameterError(
                    f"target clause {i} has {clause.size} variables, "
                    f"exceeding cap {q_eff}")
            r0 = ConjunctionRep(MonotoneConjunction(frozenset()), q_eff)
            cls = ConjunctionClass(params.n, q=q_eff)
            traces.append(evolve(r0, cls, clause, tparams,
                                 BestClauseFitness(target)))
    result = MonotoneDnf(tuple(t.final_rep.conj for t in traces))
    matrix = term_perf_matrix(result, target, params.n)
    return KdnfResult(result=result, traces=tuple(traces), matrix=matrix,
                      gen_perfs={agg: gen_perf(matrix, agg)
                                 for agg in Aggregator},
                      perf_evals=sum(t.perf_evals for t in traces),
                      samples_drawn=sum(t.samples_drawn for t in traces))
