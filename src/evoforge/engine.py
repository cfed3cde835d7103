"""The mutate-classify-select loop, generic over representation classes.

One lineage survives per generation: every neighbor of the current
representation is estimated on fresh samples, neighbors are classified as
beneficial / neutral / deleterious against a tolerance t, and the
successor is drawn from the beneficial set if nonempty, else the neutral
set, proportionally to the class's mutation weights.  Everything is a
pure function of the run seed.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Literal

from .boolfn import exact_perf
from .errors import ContractError, EnumerationBudgetError, check_range
from .perf import SampleSpec, empirical_perf
from .rng import derive_seed, weighted_choice

# Stream tags that can never collide with a neighborhood index.
_SELF_TAG = 1 << 40
_CONFIRM_TAG = (1 << 40) + 1
_SELECT_TAG = (1 << 40) + 2

Choice = Literal["beneficial", "neutral"]


@dataclass(frozen=True)
class EvolutionParams:
    """Knobs of one evolution run; defaults come from default_params."""

    n: int
    epsilon: float
    t: float
    s: int
    g: int
    seed: int

    def __post_init__(self):
        for key, value in vars(self).items():
            check_range(key, value)


def default_params(n: int, epsilon: float, neigh_cap: int, seed: int = 0,
                   t: float | None = None, s: int | None = None,
                   g: int | None = None) -> EvolutionParams:
    """Stock parameters: t = eps/8, g = ceil(12n/eps), Hoeffding-sized s.

    s = ceil((8/t^2) * ln(4*g*neigh_cap/0.05)) keeps every per-generation
    estimate within t/2 with probability at least 0.95 per run.  Each knob
    can be overridden; overrides feed into the formulas downstream of them.
    """
    t_eff = epsilon / 8 if t is None else t
    for key, value in (("n", n), ("epsilon", epsilon),
                       ("neigh_cap", neigh_cap), ("t", t_eff)):
        check_range(key, value)  # before the formulas below read them
    g_eff = math.ceil(12 * n / epsilon) if g is None else g
    if s is None:
        s_eff = math.ceil((8 / t_eff ** 2) * math.log(4 * max(g_eff, 1) * neigh_cap / 0.05))
    else:
        s_eff = s
    return EvolutionParams(n=n, epsilon=epsilon, t=t_eff, s=s_eff, g=g_eff,
                           seed=seed)


class RepresentationClass(ABC):
    """Behavior bundle a representation space must provide to evolve."""

    neigh_cap: int

    @abstractmethod
    def neighborhood(self, rep) -> list:
        """All one-generation mutations of rep, including rep itself."""

    @abstractmethod
    def mutation_weights(self, rep, neighborhood: list) -> list[float]:
        """Strictly positive selection weights over the neighborhood, summing to 1."""


@dataclass(frozen=True)
class GenerationRecord:
    """What one generation saw: the incumbent, its scores, and the choice kind."""

    gen: int
    rep: object
    emp_perf: float
    exact_perf: float | None
    n_beneficial: int
    n_neutral: int
    chose: Choice


@dataclass(frozen=True)
class EvolutionTrace:
    records: tuple[GenerationRecord, ...]
    succeeded: bool
    success_gen: int | None
    final_rep: object
    perf_evals: int
    samples_drawn: int


@dataclass
class EvalCounters:
    """Work accounting: one perf_eval is one s-sample estimate."""

    perf_evals: int = 0
    samples: int = 0

    def add(self, evals: int, samples: int) -> None:
        self.perf_evals += evals
        self.samples += samples


class CorrelationFitness:
    """Signed correlation against one fixed target function.

    estimate() is the sampled Monte-Carlo value unless exact_mode is set,
    in which case the exact expectation is used (diagnostic runs).
    exact_value() is the exact score, or None for the pairs exact_perf
    refuses: DNFs whose expansions outgrow the cube of their highest
    variable, when that variable is past x24.
    """

    def __init__(self, target, exact_mode: bool = False):
        self.target = target
        self.exact_mode = exact_mode

    def estimate(self, fn, n: int, s: int, seed: int,
                 counters: EvalCounters | None = None) -> float:
        if counters is not None:
            counters.add(1, 0 if self.exact_mode else s)
        if self.exact_mode:
            return float(exact_perf(fn, self.target, n))
        return empirical_perf(fn, self.target, n, SampleSpec(s, seed))

    def exact_value(self, fn, n: int) -> float | None:
        try:
            return float(exact_perf(fn, self.target, n))
        except EnumerationBudgetError:
            return None


def classify_neighborhood(current_perf: float, neighbor_perfs: list[float],
                          t: float) -> tuple[list[int], list[int]]:
    """Split neighbor indices into beneficial and neutral against tolerance t.

    Index j is beneficial iff perf_j >= current + t, neutral iff
    |perf_j - current| < t; everything else is deleterious and dropped.
    """
    check_range("t", t)
    beneficial = [j for j, p in enumerate(neighbor_perfs)
                  if p >= current_perf + t]
    neutral = [j for j, p in enumerate(neighbor_perfs)
               if abs(p - current_perf) < t]
    return beneficial, neutral


def _checked_neighborhood(rep, cls: RepresentationClass
                          ) -> tuple[list, list[float], int]:
    nb = cls.neighborhood(rep)
    try:
        self_idx = nb.index(rep)
    except ValueError:
        raise ContractError("neighborhood does not contain the representation itself")
    if len(nb) > cls.neigh_cap:
        raise ContractError(
            f"neighborhood size {len(nb)} exceeds cap {cls.neigh_cap}")
    weights = list(cls.mutation_weights(rep, nb))
    if len(weights) != len(nb):
        raise ContractError("one mutation weight per neighbor required")
    if any(w <= 0 for w in weights):
        raise ContractError("mutation weights must be strictly positive")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ContractError(f"mutation weights sum to {sum(weights)}, not 1")
    return nb, weights, self_idx


def _advance(rep, cls, params: EvolutionParams, gen_seed: int, gen: int,
             emp: float, fitness, counters: EvalCounters):
    """Classify the neighborhood around rep and pick the successor."""
    nb, weights, self_idx = _checked_neighborhood(rep, cls)
    perfs = []
    for j, nbj in enumerate(nb):
        if j == self_idx:
            perfs.append(emp)  # the incumbent's own fresh estimate, reused
        else:
            perfs.append(fitness.estimate(nbj, params.n, params.s,
                                          derive_seed(gen_seed, j), counters))
    beneficial, neutral = classify_neighborhood(emp, perfs, params.t)
    pool, chose = ((beneficial, "beneficial") if beneficial
                   else (neutral, "neutral"))
    pick = weighted_choice(pool, [weights[j] for j in pool],
                           derive_seed(gen_seed, _SELECT_TAG))
    record = GenerationRecord(
        gen=gen, rep=rep, emp_perf=emp,
        exact_perf=fitness.exact_value(rep, params.n),
        n_beneficial=len(beneficial), n_neutral=len(neutral), chose=chose)
    return nb[pick], record


def evolve(r0, cls: RepresentationClass, params: EvolutionParams,
           fitness) -> EvolutionTrace:
    """Run up to g generations from r0, stopping early on confirmed success.

    Success at generation j means the incumbent's fresh estimate exceeds
    1 - epsilon and an independent re-estimate agrees; the closing record
    then freezes the line with the singleton self set.  With g=0 the
    initial representation is still evaluated once, but no records are
    emitted.  A representation is its own Boolean function: fitness
    scores it directly.  Bit-deterministic given (params, r0, fitness).
    """
    counters = EvalCounters()
    cur = r0
    records: list[GenerationRecord] = []
    succeeded = False
    success_gen: int | None = None
    for gen in range(params.g + 1):
        gen_seed = derive_seed(params.seed, gen)
        emp = fitness.estimate(cur, params.n, params.s,
                               derive_seed(gen_seed, _SELF_TAG), counters)
        if emp > 1 - params.epsilon:
            confirm = fitness.estimate(cur, params.n, params.s,
                                       derive_seed(gen_seed, _CONFIRM_TAG),
                                       counters)
            if confirm > 1 - params.epsilon:
                succeeded = True
                success_gen = gen
                if params.g > 0:
                    records.append(GenerationRecord(
                        gen=gen, rep=cur, emp_perf=emp,
                        exact_perf=fitness.exact_value(cur, params.n),
                        n_beneficial=0, n_neutral=1, chose="neutral"))
                break
        if gen == params.g:
            break
        cur, record = _advance(cur, cls, params, gen_seed, gen, emp, fitness,
                               counters)
        records.append(record)
    return EvolutionTrace(records=tuple(records),
                          succeeded=succeeded, success_gen=success_gen,
                          final_rep=cur, perf_evals=counters.perf_evals,
                          samples_drawn=counters.samples)
