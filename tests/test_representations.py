from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import brute_perf
from evoforge.boolfn import (MonotoneConjunction, MonotoneDnf,
                             OutputConvention)
from evoforge.engine import (CorrelationFitness, EvalCounters,
                             EvolutionParams, default_params)
from evoforge.errors import ParameterError
from evoforge.perf import Aggregator, SampleSpec, empirical_perf
from evoforge.representations import (BestClauseFitness, ConjunctionClass,
                                      conj_mutation_weights,
                                      conj_neighborhood, default_neigh_cap,
                                      evolve_conjunction, evolve_kdnf)
from evoforge.rng import derive_seed


def conj(*vars_):
    return MonotoneConjunction(frozenset(vars_))


def dnf(*clauses):
    return MonotoneDnf(tuple(conj(*c) for c in clauses))


def lit_sets(neighborhood):
    return [r.literals for r in neighborhood]


class TestNeighborhood:
    def test_empty_conjunction(self):
        nb = conj_neighborhood(conj(), 3, 3)
        assert lit_sets(nb) == [frozenset(), frozenset({1}), frozenset({2}),
                                frozenset({3})]

    def test_singleton(self):
        nb = conj_neighborhood(conj(1), 2, 2)
        assert lit_sets(nb) == [frozenset({1}), frozenset({1, 2}),
                                frozenset(), frozenset({2})]

    def test_size_formula_exhaustive(self):
        # uncapped: self + (n-v) additions + v removals + v(n-v) swaps
        for n in range(1, 7):
            for k in range(n + 1):
                for subset in combinations(range(1, n + 1), k):
                    r = conj(*subset)
                    nb = conj_neighborhood(r, n, n)
                    v = len(subset)
                    assert len(nb) == 1 + (n - v) + v + v * (n - v)
                    assert len(set(lit_sets(nb))) == len(nb)
                    assert nb[0] is r

    def test_cap_suppresses_additions(self):
        nb = conj_neighborhood(conj(1, 2), 4, 2)
        sets = lit_sets(nb)
        assert len(nb) == 1 + 0 + 2 + 2 * 2
        assert all(len(s) <= 2 for s in sets)
        assert frozenset({1, 2, 3}) not in sets

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n),
                            st.sets(st.integers(1, n), max_size=n))))
    def test_single_edit_property(self, n_and_vars):
        n, vars_ = n_and_vars
        q = max(len(vars_), 1)
        r = conj(*vars_)
        nb = conj_neighborhood(r, n, q)
        assert nb[0] == r
        for other in nb:
            assert other.size <= q
            diff = other.literals ^ r.literals
            assert len(diff) <= 2
            assert abs(other.size - r.size) <= 1

    def test_uniform_weights(self):
        nb = conj_neighborhood(conj(1, 3), 4, 4)
        w = conj_mutation_weights(conj(1, 3), nb)
        assert len(w) == len(nb)
        assert len(set(w)) == 1
        assert w[0] > 0
        assert abs(sum(w) - 1.0) < 1e-9


class TestDefaultNeighCap:
    def test_values(self):
        assert default_neigh_cap(10) == 46
        assert default_neigh_cap(8) == 33

    def test_dominates_every_neighborhood(self):
        for n in range(1, 7):
            cap = default_neigh_cap(n)
            for k in range(n + 1):
                for subset in combinations(range(1, n + 1), k):
                    r = conj(*subset)
                    assert len(conj_neighborhood(r, n, n)) <= cap


class TestConjunctionClass:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ConjunctionClass(0)
        with pytest.raises(ParameterError):
            ConjunctionClass(4, q=5)
        with pytest.raises(ParameterError):
            ConjunctionClass(4, q=0)
        assert ConjunctionClass(4).q == 4

    def test_function(self):
        r = conj(1, 2)
        assert ConjunctionClass(3).function(r) is r

    def test_neighborhood_capped_by_class_q(self):
        # at the class's cap no addition appears, only removals and swaps
        nb = ConjunctionClass(4, q=2).neighborhood(conj(1, 2), 0.1)
        assert lit_sets(nb) == lit_sets(conj_neighborhood(conj(1, 2), 4, 2))
        assert len(nb) == 1 + 0 + 2 + 2 * 2
        assert all(r.size <= 2 for r in nb)


class TestEvolveConjunction:
    PARAMS = EvolutionParams(n=5, epsilon=0.2, t=0.025, s=500, g=30, seed=1)

    def test_target_over_cap(self):
        with pytest.raises(ParameterError, match="cap"):
            evolve_conjunction(conj(1, 2, 3), self.PARAMS, q=2)

    def test_target_outside_dimension(self):
        with pytest.raises(ParameterError, match="x7"):
            evolve_conjunction(conj(1, 7), self.PARAMS)

    def test_exact_mode_draws_no_samples(self):
        fit = CorrelationFitness(conj(1, 2), exact_mode=True)
        tr = evolve_conjunction(conj(1, 2), self.PARAMS, fitness=fit)
        assert tr.succeeded
        assert tr.samples_drawn == 0
        assert tr.final_rep == conj(1, 2)

    def test_default_start_is_empty(self):
        params = replace(self.PARAMS, g=0)
        tr = evolve_conjunction(conj(1, 2), params)
        assert tr.final_rep == conj()


class TestBestClauseFitness:
    TARGET = dnf((1, 2), (2, 3), (4,))

    def test_estimate_is_max_over_clause_streams(self):
        fit = BestClauseFitness(self.TARGET)
        got = fit.estimate(conj(2), 5, 400, 9)
        expected = max(
            empirical_perf(conj(2), clause, 5,
                           SampleSpec(400, derive_seed(9, i)))
            for i, clause in enumerate(self.TARGET.clauses))
        assert got == expected

    def test_exact_value(self):
        fit = BestClauseFitness(self.TARGET)
        assert fit.exact_value(conj(2), 5) == 0.5  # against x1&x2 or x2&x3
        expected = float(max(brute_perf(self.TARGET, c, 5,
                                        OutputConvention.SIGNED)
                             for c in self.TARGET.clauses))
        assert fit.exact_value(self.TARGET, 5) == expected

    def test_counters_scale_with_k(self):
        c = EvalCounters()
        BestClauseFitness(self.TARGET).estimate(conj(1), 5, 100, 0, c)
        assert (c.perf_evals, c.samples) == (3, 300)


class TestEvolveKdnf:
    PARAMS = EvolutionParams(n=6, epsilon=0.2, t=0.025, s=2000, g=60, seed=4)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError, match="term fitness"):
            evolve_kdnf(dnf((1, 2)), self.PARAMS, term_fitness="greedy")

    def test_k1_matches_plain_conjunction_run(self):
        clause = conj(1, 2)
        out = evolve_kdnf(dnf((1, 2)), self.PARAMS)
        direct = evolve_conjunction(
            clause, replace(self.PARAMS, seed=derive_seed(self.PARAMS.seed, 0)))
        assert out.traces == (direct,)
        if direct.succeeded:
            assert out.result == dnf((1, 2))
        assert out.perf_evals == direct.perf_evals
        assert out.samples_drawn == direct.samples_drawn

    def test_term_i_runs_at_derived_seed(self):
        target = dnf((1, 2), (3, 4))
        out = evolve_kdnf(target, self.PARAMS)
        seeds = [derive_seed(self.PARAMS.seed, i) for i in range(2)]
        assert seeds[0] != seeds[1]
        assert out.traces == tuple(
            evolve_conjunction(clause, replace(self.PARAMS, seed=seed))
            for clause, seed in zip(target.clauses, seeds))

    def test_deterministic(self):
        target = dnf((1, 2), (3, 4))
        a = evolve_kdnf(target, self.PARAMS)
        b = evolve_kdnf(target, self.PARAMS)
        assert a == b

    def test_gen_perfs_cover_every_aggregator(self):
        target = dnf((1, 2), (3, 4))
        out = evolve_kdnf(target, self.PARAMS)
        assert set(out.gen_perfs) == set(Aggregator)
        assert out.gen_perfs[Aggregator.MIN] == min(out.matrix.flat())
        assert out.matrix.k == 2

    def test_duplicate_clause_target_is_legal(self):
        target = dnf((1, 2), (1, 2))
        out = evolve_kdnf(target, self.PARAMS)
        assert out.matrix.k == 2
        assert len(out.traces) == 2

    def test_budget_is_sum_of_terms(self):
        target = dnf((1, 2), (3, 4))
        cls_cap = default_neigh_cap(self.PARAMS.n)
        out = evolve_kdnf(target, self.PARAMS)
        per_term = self.PARAMS.g * (cls_cap + 1) * self.PARAMS.s
        assert out.samples_drawn == sum(t.samples_drawn for t in out.traces)
        assert out.samples_drawn <= 2 * per_term

    def test_paired_mode_scores_against_own_clause_only(self, monkeypatch):
        import evoforge.representations as mod

        seen = []

        class SpyFitness(CorrelationFitness):
            def __init__(self, target, *args, **kwargs):
                seen.append(target)
                super().__init__(target, *args, **kwargs)

        monkeypatch.setattr(mod, "CorrelationFitness", SpyFitness)
        target = dnf((1, 2), (3, 4))
        params = replace(self.PARAMS, s=50, g=2)
        evolve_kdnf(target, params)
        assert seen == list(target.clauses)

    def test_best_any_mode_scores_against_whole_target(self, monkeypatch):
        import evoforge.representations as mod

        seen = []

        class SpyFitness(BestClauseFitness):
            def __init__(self, target, *args, **kwargs):
                seen.append(target)
                super().__init__(target, *args, **kwargs)

        monkeypatch.setattr(mod, "BestClauseFitness", SpyFitness)
        target = dnf((1, 2), (3, 4))
        params = replace(self.PARAMS, s=50, g=2)
        evolve_kdnf(target, params,
                    term_fitness="best_any")
        assert seen == [target, target]

    def test_best_any_rejects_oversize_clause(self):
        target = dnf((1, 2, 3), (4,))
        with pytest.raises(ParameterError, match="cap"):
            evolve_kdnf(target, self.PARAMS, term_fitness="best_any", q=2)
