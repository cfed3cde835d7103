import os
import re
import threading
from fractions import Fraction

import pytest

from evoforge import experiments
from evoforge.boolfn import MonotoneConjunction, MonotoneDnf, exact_perf
from evoforge.cli import main
from evoforge.config import parse_config
from evoforge.engine import EvolutionParams
from evoforge.errors import (ConfigError, DimensionMismatchError,
                             EvoforgeError, ParameterError)
from evoforge.experiments import (COUNTEREXAMPLE_HYPOTHESIS,
                                  COUNTEREXAMPLE_N, COUNTEREXAMPLE_TARGET,
                                  _map_trials, _random_subset, _worker_count,
                                  golden_check, run_conjunction_evolvability,
                                  run_counterexample, run_parity,
                                  run_redundancy_bias,
                                  run_structural_vs_functional)
from evoforge.perf import Aggregator, SampleSpec, empirical_perf, gen_perf
from evoforge.representations import evolve_conjunction, evolve_kdnf

AGG_KEYS = ("min", "max", "mean", "median", "matched_min")


def dnf(*clauses):
    return MonotoneDnf(tuple(MonotoneConjunction(frozenset(c))
                             for c in clauses))


class TestGoldenCheck:
    def test_exact_uses_raw_values(self):
        assert golden_check("x", Fraction(1, 3), Fraction(1, 3)).passed
        # float(1/3) equals neither Fraction nor its repr round trip
        assert not golden_check("x", Fraction(1, 3), 1 / 3).passed

    def test_toleranced(self):
        c = golden_check("x", 0.5, 0.52, tolerance=0.05)
        assert c.passed
        assert not golden_check("x", 0.5, 0.58, tolerance=0.05).passed

    def test_float_fields(self):
        c = golden_check("x", Fraction(1, 4), Fraction(1, 4))
        assert c.expected == 0.25
        assert c.actual == 0.25


class TestCounterexample:
    def test_all_goldens_pass(self):
        report = run_counterexample()
        assert len(report.golden_checks) == 9
        assert report.all_golden_pass
        assert {c.label for c in report.golden_checks} == {
            "signed_global_perf", "binary_global_perf",
            "binary_self_perf_of_target",
            "binary_global_equals_target_self_perf",
            "matrix_gen_perf_min", "matrix_gen_perf_max",
            "matrix_gen_perf_mean", "matrix_gen_perf_median",
            "matrix_gen_perf_matched_min"}

    def test_aggregate_values(self):
        agg = run_counterexample().aggregates
        assert agg["signed_global_perf"] == -0.1171875
        assert agg["binary_global_perf"] == 0.31640625
        assert agg["binary_self_perf_of_target"] == 0.31640625
        assert agg["gen_perf"] == {
            "min": 0.0, "max": 0.25, "mean": float(Fraction(1, 12)),
            "median": 0.0, "matched_min": 0.25}
        assert agg["matrix"] == [[0.25, 0.0, 0.0],
                                 [0.0, 0.25, 0.0],
                                 [0.0, 0.0, 0.25]]

    def test_report_shape(self):
        report = run_counterexample()
        assert report.name == "counterexample"
        assert report.trials == []
        assert report.trace_rows == []
        d = report.to_dict()
        assert list(d) == ["name", "params", "aggregates", "golden_checks",
                           "all_golden_pass", "trials"]
        assert d["params"]["n"] == COUNTEREXAMPLE_N
        assert d["params"]["hypothesis"] == COUNTEREXAMPLE_HYPOTHESIS.canonical()
        assert d["params"]["target"] == COUNTEREXAMPLE_TARGET.canonical()


class TestConjunctionEvolvability:
    def test_zero_trials(self):
        report = run_conjunction_evolvability(6, 2, 0.2, 0, 0, s=100, g=5)
        assert report.trials == []
        assert report.trace_rows == []
        agg = report.aggregates
        assert agg["success_rate"] is None
        assert agg["max_samples_drawn"] == 0
        assert agg["budget_ok"] is True
        assert agg["generations"] == {"min": None, "median": None,
                                      "p90": None, "max": None}

    def test_small_run(self):
        report = run_conjunction_evolvability(6, 2, 0.2, 3, 0, s=2000, g=60)
        agg = report.aggregates
        assert agg["success_rate"] == 1.0
        assert agg["budget_ok"] is True
        assert agg["max_samples_drawn"] <= agg["budget_per_trial"]
        assert len(report.trials) == 3
        assert report.trace_rows
        for trial in report.trials:
            assert trial["target"].count("&") == 1  # two variables
            assert trial["final_exact_perf"] <= 1.0
            if trial["succeeded"]:
                assert trial["final_exact_perf"] == 1.0
        gens = agg["generations"]
        assert gens["min"] <= gens["median"] <= gens["p90"] <= gens["max"]

    def test_rerun_reproduces(self):
        a = run_conjunction_evolvability(6, 2, 0.2, 2, 7, s=1000, g=30)
        b = run_conjunction_evolvability(6, 2, 0.2, 2, 7, s=1000, g=30)
        assert a.trials == b.trials
        assert a.aggregates == b.aggregates
        assert a.trace_rows == b.trace_rows

    def test_params_echo_effective_values(self):
        report = run_conjunction_evolvability(6, 2, 0.2, 0, 0, s=100, g=5)
        p = report.params
        assert p["t"] == 0.025
        assert (p["s"], p["g"], p["q"]) == (100, 5, 6)
        assert p["neigh_cap"] == 22

    def test_rejects(self):
        with pytest.raises(ParameterError):
            run_conjunction_evolvability(4, 5, 0.2, 1, 0)
        with pytest.raises(ParameterError):
            run_conjunction_evolvability(4, 2, 0.2, -1, 0)
        with pytest.raises(ParameterError, match="1..63"):
            run_conjunction_evolvability(n=64, trials=0)


class TestStructuralVsFunctional:
    def test_single_clause_target_rejected(self):
        # a 1x1 matrix makes every aggregator agree, so the max-above-min
        # check could never pass: such a run is refused up front
        params = EvolutionParams(n=5, epsilon=0.2, t=0.025, s=500, g=30,
                                 seed=0)
        res = evolve_kdnf(dnf((1, 2)), params, term_fitness="best_any")
        assert len({gen_perf(res.matrix, agg) for agg in Aggregator}) == 1
        with pytest.raises(ParameterError, match=">= 2 clauses"):
            run_structural_vs_functional(dnf((1, 2)), 0.2, 2, 0, n=5)

    def test_counterexample_target_disperses(self):
        report = run_structural_vs_functional(COUNTEREXAMPLE_TARGET, 0.1, 2,
                                              0, s=5000, g=200)
        assert report.all_golden_pass
        agg = report.aggregates
        assert agg["mean_gen_perf_max"] > agg["mean_gen_perf_min"]
        assert -1.0 <= agg["mean_global_signed_perf"] <= 1.0
        assert report.params["n"] == 8  # defaulted from the target
        assert report.params["term_fitness"] == "best_any"
        for trial in report.trials:
            assert set(AGG_KEYS) <= {k[len("gen_perf_"):]
                                     for k in trial if k.startswith("gen_perf_")}

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            run_structural_vs_functional(dnf((1, 2)), 0.2, 0, 0, n=5)


class TestParity:
    def test_preconditions(self):
        with pytest.raises(ParameterError):
            run_parity(6, 2, 0.5, 1, 0)
        with pytest.raises(ParameterError):
            run_parity(6, 7, 0.5, 1, 0)
        with pytest.raises(ParameterError):
            run_parity(6, 3, 0.5, -1, 0)
        # refused before the C(n, 3)-row flat-landscape table is built
        with pytest.raises(ParameterError, match="1..63"):
            run_parity(n=64, trials=0)

    def test_small_run(self):
        report = run_parity(6, 3, 0.5, 2, 1, s=1500, g=40)
        assert report.all_golden_pass
        agg = report.aggregates
        assert agg["success_rate"] == 0.0
        assert agg["trials_over_threshold"] == 0
        assert agg["threshold"] == 0.5
        # the size-3 conjunction covering the parity sits at exactly 1/4
        assert agg["flat_landscape_max_abs"] == 0.25
        assert agg["max_exact_perf_seen"] <= 0.25
        table = agg["flat_landscape"]
        assert len(table) == 1 + 6 + 15 + 20  # sizes 0..3 over 6 variables
        assert all(abs(row["exact_perf"]) <= 0.25 for row in table)

    def test_cap_below_parity_size(self):
        # the size cap bounds the evolved conjunction, not a parity target
        report = run_parity(6, 4, 0.5, 2, 3, s=200, g=5, q=2)
        assert report.params["q"] == 2
        assert len(report.trials) == 2
        assert report.trace_rows
        assert all(row[2] == "true" or row[2].count("&") <= 1
                   for row in report.trace_rows)

    def test_calibration_goldens(self):
        by_label = {c.label: c
                    for c in run_parity(6, 3, 0.5, 0, 0, s=10, g=1).golden_checks}
        assert by_label["calibration_conj12_vs_parity12"].actual == 0.5
        assert by_label["calibration_conj12_vs_parity12"].passed
        assert by_label["calibration_conj1_vs_parity12"].actual == 0.0
        assert by_label["calibration_conj1_vs_parity12"].passed


class TestRedundancyBias:
    def test_rejects_disjoint_target(self):
        with pytest.raises(ParameterError, match="sharing"):
            run_redundancy_bias(dnf((1, 2), (3, 4)), 0.2, 1, 0, n=6)

    def test_shared_literal_run(self):
        report = run_redundancy_bias(dnf((1, 2), (1, 3)), 0.2, 1, 0, n=6,
                                     s=1500, g=40)
        agg = report.aggregates
        assert agg["control_target"] == "x1&x2 | x3&x4"
        assert agg["control_trial_offset"] == 1
        assert agg["duplicate_convergence_freq"] in (0.0, 1.0)
        assert agg["duplicate_convergence_freq_control"] in (0.0, 1.0)
        assert agg["target_literal_histogram"] == {"x1": 2, "x2": 1, "x3": 1}
        assert list(agg["evolved_literal_histogram"])
        assert len(report.trials) == 2  # one shared, one control
        assert [t["trial"] for t in report.trials] == [0, 1]
        for t in report.trials:
            assert len(t["assigned_clauses"]) == 2

    def test_control_omitted_when_it_cannot_fit(self):
        target = dnf((1, 2), (2, 3), (1, 3))
        report = run_redundancy_bias(target, 0.2, 1, 0, n=4, s=800, g=20)
        agg = report.aggregates
        assert agg["control_target"] is None
        assert agg["control_trial_offset"] is None
        assert agg["duplicate_convergence_freq_control"] is None
        assert "control_literal_histogram" not in agg
        assert len(report.trials) == 1

    def test_deterministic(self):
        a = run_redundancy_bias(dnf((1, 2), (1, 3)), 0.2, 1, 3, n=6,
                                s=1000, g=30)
        b = run_redundancy_bias(dnf((1, 2), (1, 3)), 0.2, 1, 3, n=6,
                                s=1000, g=30)
        assert a.trials == b.trials
        assert a.aggregates == b.aggregates

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            run_redundancy_bias(dnf((1, 2), (1, 3)), 0.2, 0, 0, n=6)


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if the experiment starts its trials."""
    def stub(fn, count):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_map_trials", stub)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("run", [run_conjunction_evolvability,
                                 run_structural_vs_functional, run_parity,
                                 run_redundancy_bias])
def test_master_seed_outside_64_bits_refused(run, seed, no_trials):
    with pytest.raises(ParameterError, match="64 bits"):
        run(trials=1, seed=seed, g=2, s=200)


@pytest.mark.parametrize("q", [0, 9])
@pytest.mark.parametrize("run", [run_conjunction_evolvability,
                                 run_structural_vs_functional, run_parity,
                                 run_redundancy_bias])
def test_size_cap_outside_1_to_n_refused(run, q, no_trials):
    with pytest.raises(ParameterError, match="size cap must be in 1..8"):
        run(n=8, q=q, trials=1, g=2, s=200)


# Each default target has a clause of 2 or 3 variables, which no trial
# could evolve under a cap of 1; a parity has no clause to fit
# (TestParity::test_cap_below_parity_size).
@pytest.mark.parametrize("run,trials", [
    (run_conjunction_evolvability, 0), (run_conjunction_evolvability, 1),
    (run_structural_vs_functional, 1), (run_redundancy_bias, 1)])
def test_size_cap_below_target_clause_refused(run, trials, no_trials):
    with pytest.raises(ParameterError, match="exceeding cap 1"):
        run(n=8, q=1, trials=trials, g=2, s=200)


# The counterexample target reaches x8 and shares x4, so both DNF runs
# take it.  At n = 2 its 3-variable clauses also exceed the default cap
# q = n, and n is the error reported.
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("run", [run_structural_vs_functional,
                                 run_redundancy_bias])
def test_n_below_target_variable_refused(run, n, no_trials):
    with pytest.raises(DimensionMismatchError,
                       match=rf"^{re.escape(str(COUNTEREXAMPLE_TARGET))} "
                             rf"uses x8 but n={n}$"):
        run(COUNTEREXAMPLE_TARGET, n=n, trials=1, g=2, s=200)


# Each rule about a run's variables is stated in one place, so every
# entry point refuses a breach in the same words; a config adds its line
# and the command line its "error: " prefix.
BEYOND_N = "x1&x4&x5 | x2&x4&x6 | x3&x7&x8 uses x8 but n=5"
OVER_CAP = "a target clause has 3 variables, exceeding cap 2"


def _refusal(call, *args, **kwargs) -> str:
    with pytest.raises(EvoforgeError) as exc:
        call(*args, **kwargs)
    return str(exc.value)


def _perf_stderr(capsys, *argv) -> str:
    assert main(["perf", *argv]) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("expected,entry", [
    (BEYOND_N, lambda _: _refusal(exact_perf, COUNTEREXAMPLE_HYPOTHESIS,
                                  COUNTEREXAMPLE_TARGET, 5)),
    (BEYOND_N, lambda _: _refusal(empirical_perf, COUNTEREXAMPLE_HYPOTHESIS,
                                  COUNTEREXAMPLE_TARGET, 5,
                                  SampleSpec(10, 0))),
    (BEYOND_N, lambda _: _refusal(evolve_conjunction, COUNTEREXAMPLE_TARGET,
                                  EvolutionParams(5, 0.1, 0.01, 10, 1, 0))),
    (BEYOND_N, lambda _: _refusal(run_structural_vs_functional,
                                  COUNTEREXAMPLE_TARGET, n=5, trials=1)),
    (BEYOND_N, lambda _: _refusal(run_redundancy_bias,
                                  COUNTEREXAMPLE_TARGET, n=5, trials=1)),
    (f"line 2: {BEYOND_N}", lambda _: _refusal(
        parse_config, "experiment = redundancy_bias\nn = 5\n"
                      f"target = {COUNTEREXAMPLE_TARGET}\n")),
    (f"error: {BEYOND_N}\n", lambda capsys: _perf_stderr(
        capsys, "--r", "x1 | x2 | x3", "--f", str(COUNTEREXAMPLE_TARGET),
        "--n", "5")),
    (OVER_CAP, lambda _: _refusal(evolve_conjunction,
                                  MonotoneConjunction(frozenset({1, 4, 5})),
                                  EvolutionParams(8, 0.1, 0.01, 10, 1, 0),
                                  q=2)),
    (OVER_CAP, lambda _: _refusal(run_conjunction_evolvability, n=8,
                                  target_size=3, q=2, trials=1)),
    (OVER_CAP, lambda _: _refusal(run_structural_vs_functional,
                                  COUNTEREXAMPLE_TARGET, n=8, q=2, trials=1)),
    (OVER_CAP, lambda _: _refusal(run_redundancy_bias,
                                  COUNTEREXAMPLE_TARGET, n=8, q=2, trials=1)),
], ids=["n-exact_perf", "n-empirical_perf", "n-evolve_conjunction",
        "n-structural_vs_functional", "n-redundancy_bias", "n-config",
        "n-cli_perf", "cap-evolve_conjunction",
        "cap-conjunction_evolvability", "cap-structural_vs_functional",
        "cap-redundancy_bias"])
def test_each_variable_rule_reads_the_same_everywhere(expected, entry,
                                                      capsys, no_trials):
    assert entry(capsys) == expected


class TestRandomSubset:
    def test_deterministic(self):
        assert _random_subset(9, 10, 3) == _random_subset(9, 10, 3)

    def test_size_and_range(self):
        for seed in range(30):
            sub = _random_subset(seed, 8, 3)
            assert len(sub) == 3
            assert sub <= set(range(1, 9))
        assert _random_subset(0, 5, 0) == frozenset()
        assert _random_subset(0, 5, 5) == frozenset(range(1, 6))

    def test_covers_all_values(self):
        seen = set()
        for seed in range(200):
            seen |= _random_subset(seed, 4, 1)
        assert seen == {1, 2, 3, 4}

    def test_rejects(self):
        with pytest.raises(ParameterError):
            _random_subset(0, 4, 5)


class TestWorkerPool:
    def test_worker_count_default(self, monkeypatch):
        monkeypatch.delenv("EVOFORGE_THREADS", raising=False)
        assert _worker_count() == 1

    def test_worker_count_clamps(self, monkeypatch):
        monkeypatch.setenv("EVOFORGE_THREADS", "0")
        assert _worker_count() == 1

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("EVOFORGE_THREADS", "4096")
        assert _worker_count() == (os.cpu_count() or 1)

    def test_worker_count_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("EVOFORGE_THREADS", "two")
        with pytest.raises(ConfigError):
            _worker_count()

    # _worker_count clamps to os.cpu_count(), so on one CPU the pool
    # would never run; these tests fake enough CPUs for it.
    def test_map_trials_order(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("EVOFORGE_THREADS", "3")
        second = threading.Event()
        threads = set()

        def fn(i):
            threads.add(threading.get_ident())
            if i == 0:  # holds its thread until trial 1 runs on another
                second.wait(timeout=30)
            elif i == 1:
                second.set()
            return i * i

        assert _map_trials(fn, 6) == [0, 1, 4, 9, 16, 25]
        assert second.is_set()
        assert len(threads) >= 2

    def test_threads_change_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        threads = []
        evolve = experiments.evolve_conjunction

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return evolve(*args, **kwargs)

        monkeypatch.setattr(experiments, "evolve_conjunction", recording)
        monkeypatch.delenv("EVOFORGE_THREADS", raising=False)
        serial = run_conjunction_evolvability(6, 2, 0.2, 3, 5, s=800, g=25)
        assert threads == [threading.main_thread()] * 3
        threads.clear()
        monkeypatch.setenv("EVOFORGE_THREADS", "2")
        pooled = run_conjunction_evolvability(6, 2, 0.2, 3, 5, s=800, g=25)
        assert len(threads) == 3
        assert threading.main_thread() not in threads
        assert serial.trials == pooled.trials
        assert serial.aggregates == pooled.aggregates
        assert serial.trace_rows == pooled.trace_rows
