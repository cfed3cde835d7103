"""Named, seeded experiment drivers with golden-value self-checks.

Each run_* function returns an ExperimentReport: the full effective
configuration, per-trial summaries, aggregates, golden checks (exact or
toleranced), and flat per-generation rows for CSV export.  Reports are
pure functions of their arguments, so a rerun reproduces them exactly.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import combinations

from .boolfn import (MonotoneConjunction, MonotoneDnf, OutputConvention,
                     ParityFunction, _check_dim, exact_perf)
from .engine import EvolutionTrace, default_params
from .errors import ConfigError, ParameterError
from .perf import Aggregator, gen_perf, term_perf_matrix
from .representations import (ConjunctionClass, TermFitness,
                              evolve_conjunction, evolve_kdnf)
from .rng import derive_seed, uniform_unit

# The three-singleton hypothesis that tracks this target almost perfectly
# in correlation while sharing none of its clause structure.
COUNTEREXAMPLE_HYPOTHESIS = MonotoneDnf((
    MonotoneConjunction(frozenset({1})),
    MonotoneConjunction(frozenset({2})),
    MonotoneConjunction(frozenset({3})),
))
COUNTEREXAMPLE_TARGET = MonotoneDnf((
    MonotoneConjunction(frozenset({1, 4, 5})),
    MonotoneConjunction(frozenset({2, 4, 6})),
    MonotoneConjunction(frozenset({3, 7, 8})),
))
COUNTEREXAMPLE_N = 8
# Two clauses sharing x1: the default target of run_redundancy_bias.
REDUNDANCY_TARGET = MonotoneDnf((
    MonotoneConjunction(frozenset({1, 2})),
    MonotoneConjunction(frozenset({1, 3})),
))


@dataclass(frozen=True)
class GoldenCheck:
    label: str
    expected: float
    actual: float
    tolerance: float
    passed: bool


def golden_check(label: str, expected, actual, tolerance: float = 0.0) -> GoldenCheck:
    """Compare expected vs actual; tolerance 0 means exact equality.

    Exactness matters: pass Fractions (or equal floats) for tolerance 0,
    where the comparison happens before any float conversion.
    """
    if tolerance == 0:
        passed = expected == actual
    else:
        passed = abs(float(expected) - float(actual)) <= tolerance
    return GoldenCheck(label, float(expected), float(actual), tolerance, passed)


@dataclass
class ExperimentReport:
    name: str
    params: dict
    trials: list
    aggregates: dict
    golden_checks: list
    trace_rows: list

    @property
    def all_golden_pass(self) -> bool:
        return all(c.passed for c in self.golden_checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "aggregates": self.aggregates,
            "golden_checks": [asdict(c) for c in self.golden_checks],
            "all_golden_pass": self.all_golden_pass,
            "trials": self.trials,
        }


def _worker_count() -> int:
    raw = os.environ.get("EVOFORGE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"EVOFORGE_THREADS must be an integer, got {raw!r}")
    return max(1, min(workers, os.cpu_count() or 1))


def _map_trials(fn, count: int) -> list:
    """Run fn(0..count-1), possibly on a thread pool, results in index order.

    Trials derive their own seeds, so the worker count never changes any
    value, only wall time.
    """
    workers = _worker_count()
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    # imported here: it pulls in logging, which serial trials never use
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _random_subset(seed: int, n: int, m: int) -> frozenset[int]:
    """Deterministic m-subset of {1..n}: a partial Fisher-Yates shuffle."""
    if not 0 <= m <= n:
        raise ParameterError(f"subset size {m} outside 0..{n}")
    pool = list(range(1, n + 1))
    for j in range(m):
        u = uniform_unit(derive_seed(seed, j))
        idx = j + min(int(u * (n - j)), n - j - 1)
        pool[j], pool[idx] = pool[idx], pool[j]
    return frozenset(pool[:m])


def _trace_rows(trial: int, trace: EvolutionTrace) -> list:
    return [(trial, rec.gen, rec.rep.canonical(), rec.emp_perf,
             rec.exact_perf, rec.n_beneficial, rec.n_neutral, rec.chose)
            for rec in trace.records]


def _gen_quantiles(gens: list) -> dict:
    if not gens:
        return {"min": None, "median": None, "p90": None, "max": None}
    vals = sorted(gens)
    return {
        "min": vals[0],
        "median": vals[(len(vals) - 1) // 2],
        "p90": vals[min(len(vals) - 1, math.ceil(0.9 * len(vals)) - 1)],
        "max": vals[-1],
    }


def _histogram(variables) -> dict:
    """{"x<v>": occurrences} in variable order."""
    return {f"x{v}": c for v, c in sorted(Counter(variables).items())}


def _dnf_n(n: int | None, target: MonotoneDnf) -> int:
    """n, or by default the smallest cube of at least 8 variables that
    holds target.  An n that does not hold target is refused here, before
    _evolution_setup checks q against it and before any trial."""
    if n is None:
        return max(8, target.max_literal)
    _check_dim(target, n)
    return n


def _evolution_setup(n: int, epsilon: float, t: float | None, s: int | None,
                     g: int | None, q: int | None, seed: int, trials: int,
                     min_trials: int, clause_size: int) -> tuple:
    """Stock params at the master seed, and the t/s/g/q/neigh_cap tail of
    a report's params.  Each trial runs replace(params0, seed=...).  Fewer
    than min_trials trials, a q that ConjunctionClass refuses for the
    largest target clause, clause_size, and a parameter outside its own
    range are refused here, before any trial or table."""
    if trials < min_trials:
        raise ParameterError(f"trials must be >= {min_trials}, got {trials}")
    cls = ConjunctionClass(n, q, clause_size)  # as each trial builds it
    params0 = default_params(n, epsilon, cls.neigh_cap, seed, t=t, s=s, g=g)
    return params0, {"t": params0.t, "s": params0.s, "g": params0.g,
                     "q": cls.q, "neigh_cap": cls.neigh_cap}


def _run_trials(trial, count: int) -> tuple[list, list]:
    """Run trial(0..count-1), each returning (summary, traces).

    Returns the summaries and the trace rows of every trace, both in
    trial order.
    """
    summaries, rows = [], []
    for summary, traces in _map_trials(trial, count):
        summaries.append(summary)
        for trace in traces:
            rows.extend(_trace_rows(summary["trial"], trace))
    return summaries, rows


def run_counterexample() -> ExperimentReport:
    """High correlation with zero shared structure, in exact arithmetic.

    The hypothesis x1|x2|x3 agrees with the planted three-clause target
    on 81/256 of the cube under 0/1 outputs, exactly the target's
    agreement with itself, yet no hypothesis clause resembles any target
    clause.  All checks are exact rational identities.
    """
    hyp, tgt, n = COUNTEREXAMPLE_HYPOTHESIS, COUNTEREXAMPLE_TARGET, COUNTEREXAMPLE_N
    signed_global = exact_perf(hyp, tgt, n, OutputConvention.SIGNED)
    binary_global = exact_perf(hyp, tgt, n, OutputConvention.BINARY)
    binary_self = exact_perf(tgt, tgt, n, OutputConvention.BINARY)
    matrix = term_perf_matrix(hyp, tgt, n)
    per_agg = {agg: gen_perf(matrix, agg) for agg in Aggregator}
    checks = [
        golden_check("signed_global_perf", Fraction(-30, 256), signed_global),
        golden_check("binary_global_perf", Fraction(81, 256), binary_global),
        golden_check("binary_self_perf_of_target", Fraction(81, 256), binary_self),
        golden_check("binary_global_equals_target_self_perf",
                     binary_self, binary_global),
        golden_check("matrix_gen_perf_min", Fraction(0), per_agg[Aggregator.MIN]),
        golden_check("matrix_gen_perf_max", Fraction(1, 4), per_agg[Aggregator.MAX]),
        golden_check("matrix_gen_perf_mean", Fraction(1, 12), per_agg[Aggregator.MEAN]),
        golden_check("matrix_gen_perf_median", Fraction(0), per_agg[Aggregator.MEDIAN]),
        golden_check("matrix_gen_perf_matched_min", Fraction(1, 4),
                     per_agg[Aggregator.MATCHED_MIN]),
    ]
    return ExperimentReport(
        name="counterexample",
        params={"n": n, "hypothesis": hyp.canonical(), "target": tgt.canonical()},
        trials=[],
        aggregates={
            "signed_global_perf": float(signed_global),
            "binary_global_perf": float(binary_global),
            "binary_self_perf_of_target": float(binary_self),
            "matrix": [[float(v) for v in row] for row in matrix.entries],
            "gen_perf": {agg.value: float(v) for agg, v in per_agg.items()},
        },
        golden_checks=checks,
        trace_rows=[])


def run_conjunction_evolvability(n: int = 10, target_size: int = 3,
                                 epsilon: float = 0.1, trials: int = 50,
                                 seed: int = 0, t: float | None = None,
                                 s: int | None = None, g: int | None = None,
                                 q: int | None = None,
                                 ) -> ExperimentReport:
    """Success rate of conjunction evolution against random targets."""
    if not 0 <= target_size <= n:
        raise ParameterError(f"target size {target_size} outside 0..{n}")
    params0, tail = _evolution_setup(n, epsilon, t, s, g, q, seed, trials, 0,
                                     target_size)
    budget = params0.g * (tail["neigh_cap"] + 1) * params0.s

    def one(i: int):
        tseed = derive_seed(seed, i)
        target = MonotoneConjunction(_random_subset(derive_seed(tseed, 0),
                                                    n, target_size))
        trace = evolve_conjunction(
            target, replace(params0, seed=derive_seed(tseed, 1)), q=q)
        return {
            "trial": i,
            "target": target.canonical(),
            "succeeded": trace.succeeded,
            "success_gen": trace.success_gen,
            "final": trace.final_rep.canonical(),
            "final_exact_perf": float(exact_perf(
                trace.final_rep, target, n, OutputConvention.SIGNED)),
            "perf_evals": trace.perf_evals,
            "samples_drawn": trace.samples_drawn,
        }, [trace]

    results, rows = _run_trials(one, trials)
    succ = [r for r in results if r["succeeded"]]
    rate = len(succ) / trials if trials else None
    aggregates = {
        "success_rate": rate,
        "generations": _gen_quantiles([r["success_gen"] for r in succ]),
        "budget_per_trial": budget,
        "max_samples_drawn": max((r["samples_drawn"] for r in results), default=0),
        "budget_ok": all(r["samples_drawn"] <= budget for r in results),
    }
    return ExperimentReport(
        name="conjunction_evolvability",
        params={"n": n, "target_size": target_size, "epsilon": epsilon,
                "trials": trials, "seed": seed, **tail},
        trials=results, aggregates=aggregates, golden_checks=[],
        trace_rows=rows)


def run_structural_vs_functional(target: MonotoneDnf = COUNTEREXAMPLE_TARGET,
                                 epsilon: float = 0.1, trials: int = 50,
                                 seed: int = 0, n: int | None = None,
                                 term_fitness: TermFitness = "best_any",
                                 aggregator: Aggregator = Aggregator.MATCHED_MIN,
                                 t: float | None = None, s: int | None = None,
                                 g: int | None = None, q: int | None = None,
                                 ) -> ExperimentReport:
    """Joint distribution of functional vs structural similarity scores.

    Evolves the target clause count with best-against-any fitness by
    default, then reports global signed performance next to the min, max,
    mean, median, and matched-min of the clause-vs-clause matrix.  The
    headline check: mean max strictly above mean min, i.e. looking
    functionally close while being structurally off, so the target needs
    at least two clauses.  aggregator is only recorded in the report's
    params.
    """
    if target.k < 2:
        raise ParameterError(
            "structural_vs_functional needs a target of >= 2 clauses, as its "
            f"max-above-min check compares clauses; got {target.canonical()}")
    n_eff = _dnf_n(n, target)
    params0, tail = _evolution_setup(n_eff, epsilon, t, s, g, q, seed, trials,
                                     1, max(c.size for c in target.clauses))

    def one(i: int):
        res = evolve_kdnf(target, replace(params0, seed=derive_seed(seed, i)),
                          term_fitness=term_fitness, q=q)
        out = {
            "trial": i,
            "result": res.result.canonical(),
            "global_signed_perf": float(exact_perf(
                res.result, target, n_eff, OutputConvention.SIGNED)),
            "terms_succeeded": sum(tr.succeeded for tr in res.traces),
            "samples_drawn": res.samples_drawn,
        }
        for agg in Aggregator:
            out[f"gen_perf_{agg.value}"] = float(res.gen_perfs[agg])
        return out, res.traces

    results, rows = _run_trials(one, trials)
    mean = lambda key: sum(r[key] for r in results) / len(results)
    aggregates = {
        "mean_global_signed_perf": mean("global_signed_perf"),
        **{f"mean_gen_perf_{agg.value}": mean(f"gen_perf_{agg.value}")
           for agg in Aggregator},
    }
    strict = aggregates["mean_gen_perf_max"] > aggregates["mean_gen_perf_min"]
    checks = [golden_check("mean_max_strictly_above_mean_min",
                           1.0, 1.0 if strict else 0.0)]
    return ExperimentReport(
        name="structural_vs_functional",
        params={"n": n_eff, "target": target.canonical(), "epsilon": epsilon,
                "trials": trials, "seed": seed, "term_fitness": term_fitness,
                "aggregator": aggregator.value, **tail},
        trials=results, aggregates=aggregates, golden_checks=checks,
        trace_rows=rows)


def run_parity(n: int = 10, parity_size: int = 4, epsilon: float = 0.5,
               trials: int = 50, seed: int = 0, t: float | None = None,
               s: int | None = None, g: int | None = None,
               q: int | None = None) -> ExperimentReport:
    """Evolution against a parity target, plus the flat-landscape table.

    The conjunction evolver is pointed at the parity of the first
    parity_size variables.  No conjunction correlates with a parity of
    three or more variables beyond 1/4 in absolute value, so the fitness
    landscape offers nothing to climb and no trial should come close to
    success; the exact correlation table of all conjunctions of size <= 3
    is included so the failure is attributable to flatness, not budget.
    """
    if not 3 <= parity_size <= n:
        raise ParameterError(
            f"parity size must be in 3..{n}, got {parity_size}")
    target = ParityFunction(frozenset(range(1, parity_size + 1)))
    # a conjunction of any size may chase a parity: no clause to fit under q
    params0, tail = _evolution_setup(n, epsilon, t, s, g, q, seed, trials, 0,
                                     0)
    threshold = 1 - epsilon

    def one(i: int):
        trace = evolve_conjunction(
            target, replace(params0, seed=derive_seed(seed, i)), q=q)
        exacts = [rec.exact_perf for rec in trace.records
                  if rec.exact_perf is not None]
        exacts.append(float(exact_perf(trace.final_rep, target, n,
                                       OutputConvention.SIGNED)))
        return {
            "trial": i,
            "succeeded": trace.succeeded,
            "final": trace.final_rep.canonical(),
            "max_exact_perf": max(exacts),
            "max_emp_perf": max((rec.emp_perf for rec in trace.records),
                                default=None),
            "samples_drawn": trace.samples_drawn,
        }, [trace]

    results, rows = _run_trials(one, trials)
    over = sum(1 for r in results if r["max_exact_perf"] > threshold)

    flat_table = []
    for size in range(4):
        for combo in combinations(range(1, n + 1), size):
            conj = MonotoneConjunction(frozenset(combo))
            val = exact_perf(conj, target, n, OutputConvention.SIGNED)
            flat_table.append({"conjunction": conj.canonical(),
                               "exact_perf": float(val)})
    max_abs = max(abs(row["exact_perf"]) for row in flat_table)

    pair = MonotoneConjunction(frozenset({1, 2}))
    single = MonotoneConjunction(frozenset({1}))
    small_parity = ParityFunction(frozenset({1, 2}))
    checks = [
        golden_check("trials_over_threshold", 0, over),
        golden_check("flat_landscape_max_abs_at_most_quarter", 0.0, max_abs,
                     tolerance=0.25),
        golden_check("calibration_conj12_vs_parity12", Fraction(1, 2),
                     exact_perf(pair, small_parity, n, OutputConvention.SIGNED)),
        golden_check("calibration_conj1_vs_parity12", Fraction(0),
                     exact_perf(single, small_parity, n, OutputConvention.SIGNED)),
    ]
    aggregates = {
        "success_rate": (sum(r["succeeded"] for r in results) / trials
                         if trials else None),
        "trials_over_threshold": over,
        "threshold": threshold,
        "flat_landscape_max_abs": max_abs,
        "max_exact_perf_seen": max((r["max_exact_perf"] for r in results),
                                   default=None),
    }
    return ExperimentReport(
        name="parity",
        params={"n": n, "parity_size": parity_size, "epsilon": epsilon,
                "trials": trials, "seed": seed, "target": target.canonical(),
                **tail},
        trials=results,
        aggregates={**aggregates, "flat_landscape": flat_table},
        golden_checks=checks, trace_rows=rows)


# Kept only because perfbench/tracer.py wraps this name; it goes when the
# tracer's WRAPPED list shrinks (ROADMAP item 1).  The alias is not inert
# under the tracer: it replaces every module attribute that is the wrapped
# function, so evolve_conjunction is wrapped twice and each conjunction run
# is a nested span counted under both names.  No per-layer metric reads
# either key.
evolve_conjunction_vs = evolve_conjunction


def _disjoint_control(target: MonotoneDnf, n: int) -> MonotoneDnf | None:
    """Same clause sizes as target, pairwise-disjoint variables, or None
    when {1..n} cannot host them."""
    sizes = [c.size for c in target.clauses]
    if sum(sizes) > n:
        return None
    clauses, nxt = [], 1
    for size in sizes:
        clauses.append(MonotoneConjunction(frozenset(range(nxt, nxt + size))))
        nxt += size
    return MonotoneDnf(tuple(clauses))


def run_redundancy_bias(target: MonotoneDnf = REDUNDANCY_TARGET,
                        epsilon: float = 0.1, trials: int = 20, seed: int = 0,
                        n: int | None = None,
                        t: float | None = None, s: int | None = None,
                        g: int | None = None, q: int | None = None,
                        ) -> ExperimentReport:
    """Do evolved clauses pile onto frequently-shared target clauses?

    Requires a target whose clauses share at least one literal.  Every
    term evolves under best-against-any fitness, so nothing anchors term
    i to clause i; the report counts how often several evolved clauses
    end up nearest the same target clause, and compares against a
    disjoint-clause control target of the same shape when one fits in n
    variables.  Descriptive only: no threshold is asserted.
    """
    from .funcspec import parse_dnf

    shared = any(a.mask & b.mask for a, b in combinations(target.clauses, 2))
    if not shared:
        raise ParameterError(
            "redundancy target needs >= 2 clauses sharing a literal; "
            f"got {target.canonical()}")
    n_eff = _dnf_n(n, target)
    params0, tail = _evolution_setup(n_eff, epsilon, t, s, g, q, seed, trials,
                                     1, max(c.size for c in target.clauses))
    control = _disjoint_control(target, n_eff)

    def run_variant(tgt: MonotoneDnf, variant: int):
        def one(i: int):
            res = evolve_kdnf(
                tgt, replace(params0, seed=derive_seed(seed, variant, i)),
                term_fitness="best_any", q=q)
            # each evolved clause j goes to its best target clause i,
            # the lowest i on a tie
            m = res.matrix.entries
            assigned = [max(range(len(m)), key=lambda i: (m[i][j], -i))
                        for j in range(len(m))]
            return {
                "trial": variant * trials + i,
                "result": res.result.canonical(),
                "assigned_clauses": assigned,
                "has_duplicate_convergence": len(set(assigned)) < len(assigned),
                "gen_perf_max": float(res.gen_perfs[Aggregator.MAX]),
                "samples_drawn": res.samples_drawn,
            }, res.traces

        results, rows = _run_trials(one, trials)
        dup_freq = sum(r["has_duplicate_convergence"] for r in results) / trials
        hist = _histogram(v for r in results
                          for c in parse_dnf(r["result"]).clauses
                          for v in c.literals)
        return results, rows, dup_freq, hist

    trials_out, rows, dup_shared, hist_shared = run_variant(target, 0)
    aggregates = {
        "duplicate_convergence_freq": dup_shared,
        "evolved_literal_histogram": hist_shared,
        "target_literal_histogram": _histogram(
            v for c in target.clauses for v in c.literals),
        "control_target": control.canonical() if control else None,
        "control_trial_offset": trials if control else None,
        "duplicate_convergence_freq_control": None,
    }
    if control is not None:
        ctrl_results, ctrl_rows, dup_ctrl, hist_ctrl = run_variant(control, 1)
        trials_out.extend(ctrl_results)
        rows.extend(ctrl_rows)
        aggregates["duplicate_convergence_freq_control"] = dup_ctrl
        aggregates["control_literal_histogram"] = hist_ctrl
    return ExperimentReport(
        name="redundancy_bias",
        params={"n": n_eff, "target": target.canonical(), "epsilon": epsilon,
                "trials": trials, "seed": seed, **tail},
        trials=trials_out, aggregates=aggregates, golden_checks=[],
        trace_rows=rows)


REGISTRY = {
    "counterexample": run_counterexample,
    "conjunction_evolvability": run_conjunction_evolvability,
    "structural_vs_functional": run_structural_vs_functional,
    "parity": run_parity,
    "redundancy_bias": run_redundancy_bias,
}

