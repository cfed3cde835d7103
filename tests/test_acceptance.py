"""End-to-end acceptance checks for the package's headline behaviors.

Each test covers one numbered criterion, prints a single PASS/FAIL line
with the measured values, and enforces a wall-clock budget.  Everything
is seeded, so these are deterministic on a given platform.
"""
import json
import math
import random
import time
from fractions import Fraction

from brute import brute_perf
from evoforge.boolfn import (MonotoneConjunction, MonotoneDnf,
                             OutputConvention, conj_perf_closed_form,
                             exact_perf)
from evoforge.cli import main
from evoforge.engine import default_params
from evoforge.experiments import (COUNTEREXAMPLE_HYPOTHESIS,
                                  COUNTEREXAMPLE_N, COUNTEREXAMPLE_TARGET,
                                  run_conjunction_evolvability,
                                  run_counterexample, run_parity,
                                  run_structural_vs_functional)
from evoforge.perf import Aggregator, SampleSpec, empirical_perf
from evoforge.representations import default_neigh_cap, evolve_kdnf
from evoforge.rng import derive_seed

SIGNED = OutputConvention.SIGNED


def conj(*vars_):
    return MonotoneConjunction(frozenset(vars_))


def report_line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_counterexample_identities():
    start = time.monotonic()
    report = run_counterexample()
    elapsed = time.monotonic() - start
    agg = report.aggregates
    exact_ok = (report.all_golden_pass
                and agg["signed_global_perf"] == -0.1171875
                and agg["binary_global_perf"] == 0.31640625
                and agg["binary_self_perf_of_target"] == 0.31640625)
    ok = exact_ok and elapsed < 1.0
    report_line(1, ok, f"9/9 exact identities, signed={agg['signed_global_perf']}, "
                       f"binary={agg['binary_global_perf']} ({elapsed:.2f}s)")
    assert exact_ok
    assert elapsed < 1.0


def test_criterion_2_closed_form_matches_enumeration():
    start = time.monotonic()
    rng = random.Random(42)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(4, 12)
        a = conj(*rng.sample(range(1, n + 1), rng.randint(0, 4)))
        b = conj(*rng.sample(range(1, n + 1), rng.randint(0, 4)))
        for conv in OutputConvention:
            closed = conj_perf_closed_form(a, b, conv)
            brute = brute_perf(a, b, n, conv)
            assert closed == brute
            worst = max(worst, abs(float(closed) - float(brute)))
    worked = [
        (conj(1), conj(1), Fraction(1)),
        (conj(1, 2), conj(1, 2, 3), Fraction(3, 4)),
        (conj(), conj(1, 2), Fraction(-1, 2)),
    ]
    for a, b, expected in worked:
        assert conj_perf_closed_form(a, b, SIGNED) == expected
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report_line(2, ok, f"200 random pairs + 3 worked examples, "
                       f"max deviation {worst:.1e} ({elapsed:.2f}s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_sampling_concentration():
    start = time.monotonic()
    s = 10000
    radius = math.sqrt(2 * math.log(200) / s)
    truth = float(exact_perf(COUNTEREXAMPLE_HYPOTHESIS, COUNTEREXAMPLE_TARGET,
                             COUNTEREXAMPLE_N, SIGNED))
    hits = 0
    for seed in range(1000):
        est = empirical_perf(COUNTEREXAMPLE_HYPOTHESIS, COUNTEREXAMPLE_TARGET,
                             COUNTEREXAMPLE_N, SampleSpec(s, seed))
        hits += abs(est - truth) <= radius
    elapsed = time.monotonic() - start
    ok = hits >= 990 and elapsed < 30.0
    report_line(3, ok, f"{hits}/1000 estimates within {radius:.5f} of "
                       f"{truth} ({elapsed:.1f}s)")
    assert hits >= 990
    assert elapsed < 30.0


def test_criterion_4_conjunctions_evolve():
    start = time.monotonic()
    report = run_conjunction_evolvability(n=10, target_size=3, epsilon=0.1,
                                          trials=50, seed=0)
    elapsed = time.monotonic() - start
    rate = report.aggregates["success_rate"]
    budget_ok = report.aggregates["budget_ok"]
    ok = rate >= 0.90 and budget_ok and elapsed < 120.0
    report_line(4, ok, f"success rate {rate:.2f} over 50 trials, "
                       f"budget_ok={budget_ok} ({elapsed:.1f}s)")
    assert rate >= 0.90
    assert budget_ok
    assert elapsed < 120.0


def test_criterion_5_two_term_dnf_recombines():
    start = time.monotonic()
    target = MonotoneDnf((conj(1, 2), conj(3, 4)))
    n, eps = 8, 0.1
    cap = default_neigh_cap(n)
    wins = 0
    for i in range(50):
        params = default_params(n, eps, cap, seed=derive_seed(5, i))
        res = evolve_kdnf(target, params)
        per_term_budget = params.g * (cap + 1) * params.s
        assert res.samples_drawn <= 2 * per_term_budget
        if float(res.gen_perfs[Aggregator.MATCHED_MIN]) > 0.9:
            wins += 1
    elapsed = time.monotonic() - start
    ok = wins >= 40 and elapsed < 240.0
    report_line(5, ok, f"{wins}/50 trials reach matched-min > 0.9 "
                       f"({elapsed:.1f}s)")
    assert wins >= 40
    assert elapsed < 240.0


def test_criterion_6_functional_without_structural():
    start = time.monotonic()
    report = run_structural_vs_functional(COUNTEREXAMPLE_TARGET, epsilon=0.1,
                                          trials=50, seed=0)
    elapsed = time.monotonic() - start
    agg = report.aggregates
    strict = agg["mean_gen_perf_max"] > agg["mean_gen_perf_min"]
    ok = report.all_golden_pass and strict and elapsed < 240.0
    report_line(6, ok, f"mean max {agg['mean_gen_perf_max']:.3f} > "
                       f"mean min {agg['mean_gen_perf_min']:.3f} "
                       f"over 50 trials ({elapsed:.1f}s)")
    assert report.all_golden_pass
    assert strict
    assert elapsed < 240.0


def test_criterion_7_parity_stays_flat():
    start = time.monotonic()
    report = run_parity(n=10, parity_size=4, epsilon=0.5, trials=50, seed=0)
    elapsed = time.monotonic() - start
    agg = report.aggregates
    over = agg["trials_over_threshold"]
    max_abs = agg["flat_landscape_max_abs"]
    ok = (over == 0 and max_abs <= 0.25 and report.all_golden_pass
          and elapsed < 120.0)
    report_line(7, ok, f"{over}/50 trials over threshold, flat-table "
                       f"max |perf| = {max_abs} ({elapsed:.1f}s)")
    assert over == 0
    assert max_abs <= 0.25
    assert report.all_golden_pass
    assert elapsed < 120.0


def test_criterion_8_reruns_are_byte_identical(tmp_path, capsys):
    start = time.monotonic()
    configs = {
        "ce.cfg": "experiment = counterexample\n",
        "conj.cfg": ("experiment = conjunction_evolvability\n"
                     "n = 6\ntarget_size = 2\nepsilon = 0.2\n"
                     "trials = 3\nseed = 11\ns = 2000\ng = 60\n"),
    }
    identical = True
    for name, text in configs.items():
        cfg = tmp_path / name
        cfg.write_text(text)
        a = tmp_path / (name + ".a")
        b = tmp_path / (name + ".b")
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        for out_name in ("report.json", "trace.csv"):
            identical &= ((a / out_name).read_bytes()
                          == (b / out_name).read_bytes())
        json.loads((a / "report.json").read_text())  # valid JSON
    elapsed = time.monotonic() - start
    ok = identical and elapsed < 60.0
    capsys.readouterr()
    report_line(8, ok, f"2 experiments x 2 runs byte-identical "
                       f"({elapsed:.1f}s)")
    assert identical
    assert elapsed < 60.0
