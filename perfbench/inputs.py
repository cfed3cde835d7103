"""The benchmark's workloads and their inputs, made from the workload seed.

Pure Python with no evoforge import, so the worker that drives the
program and the checker that judges its outputs build the same inputs
from the same seed.  The same seed gives the same inputs on any Python.
"""
from __future__ import annotations

import random

WORKLOADS = ("conj_evolve", "parity_flat", "dnf_best_any", "oracle")

COUNTEREXAMPLE_HYPOTHESIS = "x1 | x2 | x3"
COUNTEREXAMPLE_TARGET = "x1&x4&x5 | x2&x4&x6 | x3&x7&x8"

# conj_evolve and dnf_best_any run one trial per `evoforge run`, with seeds
# from a seeded sequence, until the trials of a round have drawn this many
# samples: about 14 and 8 trials.  A trial's samples vary with the path
# its evolution takes, from 47 M to 290 M on conj_evolve (coefficient of
# variation 0.5) and from 370 M to 710 M on dnf_best_any (0.16).  So a
# round of a fixed trial count would vary by 12% from seed to seed on
# conj_evolve at 32 trials; a round of a fixed sample budget varies by the
# last trial only, 3 to 4%.
SAMPLE_BUDGET = {"conj_evolve": 1_800_000_000, "dnf_best_any": 3_600_000_000}
# Trials per `evoforge run`.  A parity_flat trial always runs its whole
# generation budget, so a round is one run of three trials.
RUN_TRIALS = {"conj_evolve": 1, "parity_flat": 3, "dnf_best_any": 1}

CONFIGS = {
    "conj_evolve": ("experiment = conjunction_evolvability\n"
                    "n = 10\ntarget_size = 3\nepsilon = 0.1\n"
                    f"trials = {RUN_TRIALS['conj_evolve']}\n"),
    "parity_flat": ("experiment = parity\nn = 10\nparity_size = 4\n"
                    f"epsilon = 0.5\ntrials = {RUN_TRIALS['parity_flat']}\n"),
    "dnf_best_any": ("experiment = structural_vs_functional\n"
                     f"target = {COUNTEREXAMPLE_TARGET}\nn = 8\n"
                     "epsilon = 0.1\nterm_fitness = best_any\n"
                     f"trials = {RUN_TRIALS['dnf_best_any']}\n"),
    "counterexample": "experiment = counterexample\n",
}

ORACLE_N = 20
ORACLE_LOW_N = 16          # DNF pairs use x1..x16, asked at n=16 and n=20
ORACLE_LARGE_S = 1 << 21   # sampled answers checked by a Hoeffding bound
ORACLE_SMALL_S = 2000      # sampled answers checked against the stream


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def run_seeds(workload: str, seed: int):
    """The master seed of each successive `evoforge run` of a workload."""
    rng = _rng(workload, seed)
    while True:
        yield rng.getrandbits(63)


def _conj(rng, top: int, size: int) -> str:
    return "&".join(f"x{v}" for v in sorted(rng.sample(range(1, top + 1), size)))


def _dnf(rng, top: int, k: int) -> str:
    return " | ".join(_conj(rng, top, rng.randint(1, 4)) for _ in range(k))


def _parity_for(rng, conj: str) -> str:
    """A parity on a subset of the conjunction half the time, so that some
    pairs correlate; on random variables otherwise."""
    lits = [int(t[1:]) for t in conj.split("&")]
    if rng.random() < 0.5:
        chosen = rng.sample(lits, rng.randint(1, len(lits)))
    else:
        chosen = rng.sample(range(1, ORACLE_N + 1), rng.randint(1, 4))
    return "parity(" + ",".join(f"x{v}" for v in sorted(chosen)) + ")"


def oracle_queries(seed: int) -> list[dict]:
    """One round of `evoforge perf` queries.

    The make-up is fixed and only the functions and sampling seeds vary
    with the seed, so every seed costs the same: 3-clause DNF pairs, which
    the exact enumeration and the generic sampled path serve; conjunction
    pairs and conjunction-parity pairs, which the count kernels serve; and
    the counterexample pair.
    """
    rng = _rng("oracle", seed)
    out = []

    def ask(r, f, n, s=None):
        out.append({"r": r, "f": f, "n": n, "s": s,
                    "seed": None if s is None else rng.getrandbits(63)})

    def conj_parity():
        c = _conj(rng, ORACLE_N, rng.randint(1, 5))
        return c, _parity_for(rng, c)

    for _ in range(6):
        r, f = _dnf(rng, ORACLE_LOW_N, 3), _dnf(rng, ORACLE_LOW_N, 3)
        ask(r, f, ORACLE_LOW_N)
        ask(r, f, ORACLE_N)
    for _ in range(3):
        ask(_conj(rng, ORACLE_N, rng.randint(1, 5)),
            _conj(rng, ORACLE_N, rng.randint(1, 5)), ORACLE_N)
        ask(*conj_parity(), ORACLE_N)
    ask(COUNTEREXAMPLE_HYPOTHESIS, COUNTEREXAMPLE_TARGET, 8)
    ask(COUNTEREXAMPLE_HYPOTHESIS, COUNTEREXAMPLE_TARGET, ORACLE_N)
    for _ in range(6):
        ask(_dnf(rng, ORACLE_N, 3), _dnf(rng, ORACLE_N, 3), ORACLE_N,
            ORACLE_LARGE_S)
    for _ in range(3):
        ask(_conj(rng, ORACLE_N, rng.randint(1, 5)),
            _conj(rng, ORACLE_N, rng.randint(1, 5)), ORACLE_N, ORACLE_LARGE_S)
        ask(*conj_parity(), ORACLE_N, ORACLE_LARGE_S)
    ask(COUNTEREXAMPLE_HYPOTHESIS, COUNTEREXAMPLE_TARGET, 8, ORACLE_LARGE_S)
    for _ in range(2):
        ask(_dnf(rng, ORACLE_N, 3), _dnf(rng, ORACLE_N, 3), ORACLE_N,
            ORACLE_SMALL_S)
    ask(_conj(rng, ORACLE_N, 3), _conj(rng, ORACLE_N, 3), ORACLE_N,
        ORACLE_SMALL_S)
    ask(*conj_parity(), ORACLE_N, ORACLE_SMALL_S)
    return out
