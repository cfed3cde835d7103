import math
from dataclasses import replace

import pytest

from evoforge import boolfn
from evoforge.boolfn import MonotoneConjunction, MonotoneDnf
from evoforge.engine import (CorrelationFitness, EvalCounters,
                             EvolutionParams, RepresentationClass,
                             classify_neighborhood, default_params, evolve)
from evoforge.errors import ContractError, ParameterError
from evoforge.representations import ConjunctionClass, evolve_conjunction
from evoforge.rng import MASK64


def conj(*vars_):
    return MonotoneConjunction(frozenset(vars_))


class TableFitness:
    """Fixed scores keyed by function token; records every estimate call."""

    def __init__(self, table=None, default=0.0):
        self.table = table or {}
        self.default = default
        self.calls = []

    def estimate(self, fn, n, s, seed, counters=None):
        if counters is not None:
            counters.add(1, s)
        self.calls.append(fn)
        return self.table.get(fn, self.default)

    def exact_value(self, fn, n):
        return None


class TriStub(RepresentationClass):
    """Fixed three-member neighborhood [self, b1, b2]; reps are their own
    function tokens."""

    neigh_cap = 8

    def __init__(self, weights=(0.2, 0.6, 0.2)):
        self.weights = list(weights)

    def neighborhood(self, rep):
        return [rep, (rep, "b1"), (rep, "b2")]

    def mutation_weights(self, rep, neighborhood):
        return list(self.weights)


class SoloStub(RepresentationClass):
    """Neighborhood is just the representation itself."""

    neigh_cap = 4

    def neighborhood(self, rep):
        return [rep]

    def mutation_weights(self, rep, neighborhood):
        return [1.0]


STUB_PARAMS = EvolutionParams(n=4, epsilon=0.5, t=0.1, s=10, g=1, seed=0)


class TestEvolutionParams:
    def test_valid(self):
        p = EvolutionParams(n=10, epsilon=0.1, t=0.0125, s=100, g=0,
                            seed=MASK64)
        assert p.g == 0

    @pytest.mark.parametrize("kw", [
        dict(n=0), dict(epsilon=0.0), dict(epsilon=1.0), dict(epsilon=-0.2),
        dict(t=0.0), dict(t=-1.0), dict(s=0), dict(g=-1), dict(seed=-1),
        dict(seed=MASK64 + 1),
    ])
    def test_rejects(self, kw):
        base = dict(n=10, epsilon=0.1, t=0.0125, s=100, g=5, seed=0)
        base.update(kw)
        with pytest.raises(ParameterError):
            EvolutionParams(**base)


class TestDefaultParams:
    def test_stock_values(self):
        p = default_params(10, 0.1, 46)
        assert p.t == 0.0125
        assert p.g == 1200
        assert p.s == 783399

    def test_wider_cap(self):
        p = default_params(10, 0.1, 101)
        assert (p.t, p.g) == (0.0125, 1200)
        assert p.s == 823666

    def test_s_formula(self):
        for n, eps, cap in [(6, 0.2, 22), (8, 0.1, 33), (12, 0.25, 61)]:
            p = default_params(n, eps, cap)
            assert p.t == eps / 8
            assert p.g == math.ceil(12 * n / eps)
            assert p.s == math.ceil(
                (8 / p.t ** 2) * math.log(4 * p.g * cap / 0.05))

    def test_overrides_feed_downstream(self):
        p = default_params(10, 0.1, 46, t=0.05, g=200)
        assert p.t == 0.05
        assert p.g == 200
        assert p.s == math.ceil((8 / 0.05 ** 2) * math.log(4 * 200 * 46 / 0.05))
        assert default_params(10, 0.1, 46, s=777).s == 777

    def test_g_zero_override(self):
        # the sample size formula clamps g to 1 so the log stays defined
        p = default_params(6, 0.2, 22, g=0)
        assert p.g == 0
        assert p.s == math.ceil((8 / 0.025 ** 2) * math.log(4 * 22 / 0.05))

    def test_rejects(self):
        with pytest.raises(ParameterError):
            default_params(0, 0.1, 46)
        with pytest.raises(ParameterError):
            default_params(10, 1.0, 46)
        with pytest.raises(ParameterError):
            default_params(10, 0.1, 0)
        with pytest.raises(ParameterError):
            default_params(10, 0.1, 46, t=0.0)


class TestClassifyNeighborhood:
    def test_mixed(self):
        assert classify_neighborhood(0.5, [0.5, 0.7, 0.3], 0.1) == ([1], [0])

    def test_self_only(self):
        assert classify_neighborhood(0.5, [0.5], 0.05) == ([], [0])

    def test_from_zero(self):
        b, neutral = classify_neighborhood(0.0, [0.05, -0.05, 0.2], 0.1)
        assert b == [2]
        assert neutral == [0, 1]

    def test_threshold_is_sharp(self):
        # exactly current + t is beneficial, exactly current - t is dropped
        assert classify_neighborhood(0.5, [0.625, 0.375], 0.125) == ([0], [])

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ParameterError):
            classify_neighborhood(0.0, [0.1], 0.0)


class TestStep:
    """One generation, run as evolve with g = 1 on the stubs."""

    def test_self_only_is_forced_neutral(self):
        fit = TableFitness()
        tr = evolve("a", SoloStub(), replace(STUB_PARAMS, seed=17),
                    fitness=fit)
        assert tr.final_rep == "a"
        rec = tr.records[0]
        assert rec.chose == "neutral"
        assert (rec.n_beneficial, rec.n_neutral) == (0, 1)
        assert rec.emp_perf == 0.0

    def test_single_beneficial_always_wins(self):
        cls = TriStub()
        fit = TableFitness({"base": 0.0, ("base", "b1"): 1.0,
                            ("base", "b2"): -1.0})
        for seed in range(50):
            tr = evolve("base", cls, replace(STUB_PARAMS, seed=seed),
                        fitness=fit)
            assert tr.final_rep == ("base", "b1")
            rec = tr.records[0]
            assert rec.chose == "beneficial"
            assert (rec.n_beneficial, rec.n_neutral) == (1, 1)

    def test_selection_follows_mutation_weights(self):
        # both non-self neighbors beneficial; weights 0.6 vs 0.2 renormalize
        # to 0.75 / 0.25 over the restricted pool
        cls = TriStub(weights=(0.2, 0.6, 0.2))
        fit = TableFitness({"base": 0.0, ("base", "b1"): 1.0,
                            ("base", "b2"): 1.0})
        wins = sum(
            evolve("base", cls, replace(STUB_PARAMS, seed=seed),
                   fitness=fit).final_rep == ("base", "b1")
            for seed in range(10000))
        assert abs(wins / 10000 - 0.75) < 0.03

    def test_incumbent_estimated_exactly_once(self):
        # generation 1 estimates only its incumbent before the budget ends
        fit = TableFitness()
        tr = evolve("base", TriStub(), replace(STUB_PARAMS, seed=3),
                    fitness=fit)
        assert fit.calls == ["base", ("base", "b1"), ("base", "b2"),
                             tr.final_rep]

    def test_counter_accounting(self):
        tr = evolve("base", TriStub(), STUB_PARAMS, fitness=TableFitness())
        # three in generation 0, then generation 1's incumbent
        assert tr.perf_evals == 3 + 1
        assert tr.samples_drawn == (3 + 1) * STUB_PARAMS.s


class TestNeighborhoodContract:
    def _run(self, cls):
        evolve("base", cls, STUB_PARAMS, fitness=TableFitness())

    def test_missing_self(self):
        class NoSelf(SoloStub):
            def neighborhood(self, rep):
                return [(rep, "other")]

        with pytest.raises(ContractError, match="itself"):
            self._run(NoSelf())

    def test_over_cap(self):
        class OverCap(TriStub):
            neigh_cap = 2

        with pytest.raises(ContractError, match="cap"):
            self._run(OverCap())

    def test_weight_count_mismatch(self):
        class ShortWeights(TriStub):
            def mutation_weights(self, rep, neighborhood):
                return [1.0]

        with pytest.raises(ContractError, match="per neighbor"):
            self._run(ShortWeights())

    def test_nonpositive_weight(self):
        class ZeroWeight(TriStub):
            def mutation_weights(self, rep, neighborhood):
                return [0.0, 0.5, 0.5]

        with pytest.raises(ContractError, match="positive"):
            self._run(ZeroWeight())

    def test_bad_weight_sum(self):
        class BadSum(TriStub):
            def mutation_weights(self, rep, neighborhood):
                return [0.3, 0.3, 0.3]

        with pytest.raises(ContractError, match="sum"):
            self._run(BadSum())


class TestEvolve:
    def test_start_at_target_confirms_immediately(self):
        target = conj(1, 2)
        params = EvolutionParams(n=4, epsilon=0.1, t=0.0125, s=50, g=10,
                                 seed=5)
        tr = evolve(target, ConjunctionClass(4), params,
                    CorrelationFitness(target))
        assert tr.succeeded
        assert tr.success_gen == 0
        assert len(tr.records) == 1
        rec = tr.records[0]
        assert rec.emp_perf == 1.0
        assert rec.exact_perf == 1.0
        assert rec.chose == "neutral"
        assert (rec.n_beneficial, rec.n_neutral) == (0, 1)
        assert tr.final_rep == target
        assert tr.perf_evals == 2  # initial estimate plus the confirmation
        assert tr.samples_drawn == 2 * params.s

    def test_g_zero_success_emits_no_records(self):
        target = conj(1, 2)
        params = EvolutionParams(n=4, epsilon=0.1, t=0.0125, s=50, g=0,
                                 seed=5)
        tr = evolve(target, ConjunctionClass(4), params,
                    CorrelationFitness(target))
        assert tr.succeeded
        assert tr.success_gen == 0
        assert tr.records == ()
        assert tr.perf_evals == 2

    def test_g_zero_failure_is_one_eval(self):
        params = EvolutionParams(n=4, epsilon=0.1, t=0.0125, s=50, g=0,
                                 seed=5)
        tr = evolve_conjunction(conj(1, 2), params)
        assert not tr.succeeded
        assert tr.success_gen is None
        assert tr.records == ()
        assert tr.perf_evals == 1
        assert tr.samples_drawn == params.s
        assert tr.final_rep == conj()

    def test_loop_accounting_without_success(self):
        params = EvolutionParams(n=4, epsilon=0.1, t=0.1, s=10, g=3, seed=0)
        fit = TableFitness()
        tr = evolve("a", SoloStub(), params, fitness=fit)
        assert not tr.succeeded
        assert len(tr.records) == 3
        assert all(r.chose == "neutral" for r in tr.records)
        assert fit.calls == ["a"] * 4  # one self estimate per generation
        assert tr.perf_evals == 4
        assert tr.samples_drawn == 4 * params.s
        assert tr.final_rep == "a"

    def test_exact_mode_climbs_monotonically(self):
        target = conj(1, 2, 3)
        cls = ConjunctionClass(6)
        params = EvolutionParams(n=6, epsilon=0.1, t=0.0125, s=1, g=720,
                                 seed=7)
        fit = CorrelationFitness(target, exact_mode=True)
        tr = evolve(conj(), cls, params, fit)
        assert tr.succeeded
        assert tr.success_gen == 7
        perfs = [r.emp_perf for r in tr.records]
        assert perfs[0] == -0.75
        assert perfs[-1] == 1.0
        assert all(b > a for a, b in zip(perfs, perfs[1:]))
        # a successor is beneficial or neutral, so it never loses more than t
        assert all(b > a - params.t - 1e-12
                   for a, b in zip(perfs, perfs[1:]))
        assert all(r.exact_perf == r.emp_perf for r in tr.records)
        assert tr.records[-1].chose == "neutral"
        assert tr.samples_drawn == 0

    def test_sampled_run_deterministic_and_within_budget(self):
        target = conj(1, 2, 3)
        cls = ConjunctionClass(6)
        params = default_params(6, 0.2, cls.neigh_cap, seed=3, s=2000, g=100)
        budget = params.g * (cls.neigh_cap + 1) * params.s
        first = evolve_conjunction(target, params)
        again = evolve_conjunction(target, params)
        assert first == again
        assert first.succeeded
        assert first.samples_drawn == first.perf_evals * params.s
        assert first.samples_drawn <= budget
        assert first.records[-1].emp_perf > 1 - params.epsilon

    def test_budget_holds_across_seeds(self):
        target = conj(1, 2)
        cls = ConjunctionClass(6)
        base = default_params(6, 0.2, cls.neigh_cap, s=1500, g=60)
        budget = base.g * (cls.neigh_cap + 1) * base.s
        for seed in range(5):
            tr = evolve_conjunction(target, replace(base, seed=seed))
            assert tr.samples_drawn <= budget
            if tr.succeeded and tr.records:
                assert tr.records[-1].emp_perf > 1 - base.epsilon


class TestCorrelationFitness:
    def test_exact_value_closed_form(self):
        fit = CorrelationFitness(conj(1, 2, 3))
        assert fit.exact_value(conj(1, 2), 6) == 0.75

    def test_exact_value_large_n_is_none(self, monkeypatch):
        # None only where exact_perf would have to enumerate a cube past
        # x24: a large n alone does not make it enumerate
        f = MonotoneDnf((conj(1, 2),))
        fit = CorrelationFitness(f)
        assert fit.exact_value(f, 40) == 1.0
        assert fit.exact_value(f, 10) == 1.0
        monkeypatch.setattr(boolfn, "IE_MAX_STEPS", 4)
        small = CorrelationFitness(MonotoneDnf((conj(1), conj(2), conj(3))))
        assert small.exact_value(conj(1, 2), 40) == -0.25
        wide = CorrelationFitness(
            MonotoneDnf((conj(1), conj(2), conj(25), conj(26))))
        assert wide.exact_value(conj(1, 2), 26) is None
        assert wide.exact_value(conj(1, 2), 40) is None

    def test_estimate_counts_samples(self):
        fit = CorrelationFitness(conj(1))
        c = EvalCounters()
        fit.estimate(conj(1), 4, 100, 0, c)
        assert (c.perf_evals, c.samples) == (1, 100)
        exact = CorrelationFitness(conj(1), exact_mode=True)
        exact.estimate(conj(1), 4, 100, 0, c)
        assert (c.perf_evals, c.samples) == (2, 100)
