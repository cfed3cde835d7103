"""Checks of a workload's outputs against reference.py and the method.

Every check compares the program's outputs with values computed here
from the workload's inputs, or with properties that the method must
have.  None compares with a stored copy of earlier output.  Each check
function returns a list of failure messages; an empty list means correct.
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import inputs
import reference as ref

# Failure probability of all Hoeffding checks of one oracle round together.
HOEFFDING_DELTA = 1e-9


def _trace_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _runs(workload: str, out: Path, result: dict):
    """(run directory, report) of each `evoforge run` of the last round,
    and a failure for each run made with another seed than the workload
    seed gives.  A run whose call failed wrote no report and is skipped."""
    seeds = zip(result["outputs"]["run_seeds"],
                inputs.run_seeds(workload, result["seed"]))
    runs, fails = [], []
    for i, (planned, want) in enumerate(seeds):
        run_dir = out / f"run{i:02d}"
        if not (run_dir / "report.json").is_file():
            continue
        report = json.loads((run_dir / "report.json").read_text())
        if not want == planned == report["params"]["seed"]:
            fails.append(f"{run_dir.name}: not run with the seed the "
                         "workload seed gives")
        runs.append((run_dir, report))
    return runs, fails


def _rounds_agree(result: dict) -> list[str]:
    rounds = result["rounds"] + result.get("traced_rounds", [])
    if len({r["digest"] for r in rounds}) != 1:
        return ["rounds of the same inputs wrote different outputs"]
    return []


def _same(label: str, expected: Fraction, actual: float) -> list[str]:
    if float(expected) != actual:
        return [f"{label}: expected {expected} = {float(expected)!r}, "
                f"got {actual!r}"]
    return []


def check_conj_evolve(out: Path, result: dict) -> list[str]:
    runs, fails = _runs("conj_evolve", out, result)
    successes = trials = 0
    for run_dir, report in runs:
        params, agg = report["params"], report["aggregates"]
        eps = params["epsilon"]
        trial = report["trials"][0]
        target = ref.parse(trial["target"])
        if (len(target[1]) != 1 or len(target[1][0]) != 3
                or max(target[1][0]) > 10):
            fails.append(f"{run_dir.name}: target {trial['target']} is not "
                         "a size-3 conjunction on x1..x10")
            continue
        final = ref.parse(trial["final"])
        fails += _same(f"{run_dir.name} final_exact_perf",
                       ref.corr(final, target), trial["final_exact_perf"])
        rows = _trace_rows(run_dir / "trace.csv")
        for row in rows:
            fails += _same(f"{run_dir.name} gen {row['generation']}",
                           ref.corr(ref.parse(row["representation"]), target),
                           float(row["exact_perf"]))
        if trial["succeeded"]:
            successes += 1
            last = rows[-1]
            if not (int(last["generation"]) == trial["success_gen"]
                    and float(last["emp_perf"]) > 1 - eps
                    and ref.corr(final, target) > 1 - eps):
                fails.append(f"{run_dir.name}: reported success does not "
                             f"exceed 1 - epsilon = {1 - eps}")
        if trial["samples_drawn"] != trial["perf_evals"] * params["s"]:
            fails.append(f"{run_dir.name}: samples_drawn != perf_evals * s")
        if (trial["samples_drawn"] > agg["budget_per_trial"]
                or not agg["budget_ok"]):
            fails.append(f"{run_dir.name}: samples_drawn over the budget")
        trials += 1
    if trials and successes / trials < 0.9:
        fails.append(f"success rate {successes}/{trials} is below 0.9")
    return fails


def check_parity_flat(out: Path, result: dict) -> list[str]:
    runs, fails = _runs("parity_flat", out, result)
    for run_dir, report in runs:
        target = ref.parse(report["params"]["target"])
        if target != ("parity", frozenset({1, 2, 3, 4})):
            fails.append(f"{run_dir.name}: wrong target "
                         f"{report['params']['target']}")
        if not report["all_golden_pass"]:
            fails.append(f"{run_dir.name}: a golden check failed")
        if any(t["succeeded"] for t in report["trials"]):
            fails.append(f"{run_dir.name}: a trial succeeded on a parity")
        for row in report["aggregates"]["flat_landscape"]:
            fails += _same(f"flat table {row['conjunction']}",
                           ref.corr(ref.parse(row["conjunction"]), target),
                           row["exact_perf"])
        cache = {}
        for row in _trace_rows(run_dir / "trace.csv"):
            rep = row["representation"]
            if rep not in cache:
                cache[rep] = ref.corr(ref.parse(rep), target)
            fails += _same(f"trial {row['trial']} gen {row['generation']}",
                           cache[rep], float(row["exact_perf"]))
    return fails


def _aggregates(matrix) -> dict:
    flat = sorted(v for row in matrix for v in row)
    return {"min": flat[0], "max": flat[-1], "mean": sum(flat) / len(flat),
            "median": flat[(len(flat) - 1) // 2],
            "matched_min": ref.matched_min(matrix)}


def check_dnf_best_any(out: Path, result: dict) -> list[str]:
    runs, fails = _runs("dnf_best_any", out, result)
    for run_dir, report in runs:
        target = ref.parse(report["params"]["target"])
        if target != ref.parse(inputs.COUNTEREXAMPLE_TARGET):
            fails.append(f"{run_dir.name}: wrong target "
                         f"{report['params']['target']}")
        if not report["all_golden_pass"]:
            fails.append(f"{run_dir.name}: the golden check failed")
        clauses = [("dnf", (c,)) for c in target[1]]
        for trial in report["trials"]:
            result_fn = ref.parse(trial["result"])
            label = f"{run_dir.name} trial {trial['trial']}"
            fails += _same(f"{label} global_signed_perf",
                           ref.corr(result_fn, target),
                           trial["global_signed_perf"])
            matrix = [[ref.corr(("dnf", (h,)), t) for h in result_fn[1]]
                      for t in clauses]
            for name, value in _aggregates(matrix).items():
                fails += _same(f"{label} gen_perf_{name}", value,
                               trial[f"gen_perf_{name}"])
        cache = {}
        for row in _trace_rows(run_dir / "trace.csv"):
            rep = row["representation"]
            if rep not in cache:
                cache[rep] = max(ref.corr(ref.parse(rep), c) for c in clauses)
            fails += _same(f"trial {row['trial']} gen {row['generation']}",
                           cache[rep], float(row["exact_perf"]))
    return fails


def hoeffding_radius(s: int, count: int) -> float:
    """Deviation that s samples of a [-1, 1] product exceed with
    probability at most HOEFFDING_DELTA / count."""
    return math.sqrt(2 * math.log(2 * count / HOEFFDING_DELTA) / s)


def check_oracle(out: Path, result: dict) -> list[str]:
    fails = []
    queries = inputs.oracle_queries(result["seed"])
    answers = result["outputs"]["answers"]
    large = sum(q["s"] == inputs.ORACLE_LARGE_S for q in queries)
    for q, text in zip(queries, answers):
        if text is None:
            continue
        label = f"perf --r '{q['r']}' --f '{q['f']}' --n {q['n']}"
        r, f = ref.parse(q["r"]), ref.parse(q["f"])
        if q["s"] is None:
            got = Fraction(text[text.rindex("[") + 1:text.rindex("]")])
            if got != ref.corr(r, f):
                fails.append(f"{label}: {got} != {ref.corr(r, f)}")
            continue
        got = float(text.rsplit("=", 1)[1])
        label += f" --samples {q['s']} --seed {q['seed']}"
        if q["s"] == inputs.ORACLE_SMALL_S:
            want = ref.sampled_corr(r, f, q["n"], q["s"], q["seed"])
            if got != want:
                fails.append(f"{label}: {got!r} != stream reference {want!r}")
        elif abs(got - float(ref.corr(r, f))) > hoeffding_radius(q["s"], large):
            fails.append(f"{label}: {got!r} is outside the Hoeffding bound "
                         f"of {float(ref.corr(r, f))!r}")
    report = json.loads((out / "counterexample" / "report.json").read_text())
    hyp = ref.parse(inputs.COUNTEREXAMPLE_HYPOTHESIS)
    tgt = ref.parse(inputs.COUNTEREXAMPLE_TARGET)
    if not report["all_golden_pass"]:
        fails.append("counterexample: a golden check failed")
    fails += _same("counterexample signed_global_perf", ref.corr(hyp, tgt),
                   report["aggregates"]["signed_global_perf"])
    for i, t in enumerate(tgt[1]):
        for j, h in enumerate(hyp[1]):
            fails += _same(f"counterexample matrix[{i}][{j}]",
                           ref.corr(("dnf", (h,)), ("dnf", (t,))),
                           report["aggregates"]["matrix"][i][j])
    return fails


CHECKS = {"conj_evolve": check_conj_evolve, "parity_flat": check_parity_flat,
          "dnf_best_any": check_dnf_best_any, "oracle": check_oracle}


def check(workload: str, out: Path, result: dict) -> list[str]:
    return _rounds_agree(result) + CHECKS[workload](out, result)
