"""The benchmark of evoforge: one workload per call, timed end to end or per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of an evoforge checkout; the package is imported
from ./src, with no install.  Workloads: conj_evolve, parity_flat,
dnf_best_any and oracle (see README.md).  The call starts the worker
(worker.py) to measure rounds of the workload for S seconds, and
SETUP_PROBES times before and after it to time set-up alone; it checks
every output with checks.py and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, run_s, cpu_s and peak_rss_mib;
with --trace 1 they are the per-layer metrics of a traced run and its
overhead.  The line before it, starting with "record ", holds the run's
environment (backend, versions, CPUs, threads) and every round's wall,
user and system time.  Outputs go to .perfbench_out/<workload>/.  The
exit code is 0 when a result was printed, 1 when the program crashed or
overran, 2 when no evoforge source tree is here.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402

# Set-up is timed in the measuring worker and in this many set-up-only
# workers before it and after it: the host's speed drifts over tens of
# seconds, and probes on both sides of the measurement see more of it.
SETUP_PROBES = 4
DEADLINE_S = 170


class WorkerError(Exception):
    pass


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Run worker.py; return its set-up time and its result line, if any."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker overran the time limit")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}")
    setup_s = json.loads(lines[0])["setup_done"] - t0
    return setup_s, json.loads(lines[-1]) if len(lines) > 1 else None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setups: list[float]) -> dict:
    rounds = result["rounds"]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "run_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": _metric(statistics.median(r["user_s"] + r["sys_s"]
                                           for r in rounds), "s"),
        "peak_rss_mib": _metric(result["peak_rss_mib"], "MiB"),
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(result: dict) -> dict:
    """Per-layer metrics of the traced rounds; counts are per round."""
    t = result["trace"]
    calls, incl, own, samples = (Counter(t[k]) for k in
                                 ("calls", "incl", "own", "samples"))
    n_rounds = len(result["traced_rounds"])
    cc, cp = "_kernels.counts_conj_conj", "_kernels.counts_conj_parity"
    kernel_samples = samples[cc] + samples[cp]
    stream_samples = samples["rng.sample_blocks"]
    if result["backend"] == "numba":  # the compiled loop draws inline
        samples_drawn = stream_samples + kernel_samples
    else:
        samples_drawn = stream_samples

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    generations = calls["engine.classify_neighborhood"]
    trial_s = t["trial_s"]
    untraced = statistics.median(r["wall_s"] for r in result["rounds"])
    traced = statistics.median(r["wall_s"] for r in result["traced_rounds"])
    per_round = lambda v: v / n_rounds
    m = {
        "rng.stream_ns_per_sample": (_ratio(own["rng.sample_blocks"],
                                            stream_samples, 1e9), "ns"),
        "rng.samples": (per_round(samples_drawn), "count"),
        "kernels.conj_conj.calls": (per_round(calls[cc]), "count"),
        "kernels.conj_conj.ns_per_sample": (
            _ratio(incl[cc], samples[cc], 1e9), "ns"),
        "kernels.conj_parity.calls": (per_round(calls[cp]), "count"),
        "kernels.conj_parity.us_per_call": (
            _ratio(incl[cp], calls[cp], 1e6), "us"),
        "kernels.self_ns_per_sample": (
            _ratio(layer_self("_kernels"), kernel_samples, 1e9), "ns"),
        "perf.empirical_perf.calls": (
            per_round(calls["perf.empirical_perf"]), "count"),
        "perf.empirical_perf.self_us_per_call": (
            _ratio(own["perf.empirical_perf"],
                   calls["perf.empirical_perf"], 1e6), "us"),
        "perf.generic.ns_per_sample": (
            _ratio(incl["perf.generic"], samples["perf.generic"],
                   1e9), "ns"),
        "boolfn.exact_perf.calls": (per_round(calls["boolfn.exact_perf"]),
                                    "count"),
        "boolfn.exact_perf.ms_per_call": (
            _ratio(incl["boolfn.exact_perf"],
                   calls["boolfn.exact_perf"], 1e3), "ms"),
        "engine.generations": (per_round(generations), "count"),
        "engine.estimates_per_generation": (
            _ratio(calls["perf.empirical_perf"], generations), "count"),
        "engine.self_ms_per_generation": (
            _ratio(layer_self("engine"), generations, 1e3), "ms"),
        "representations.neighborhood_us_per_call": (
            _ratio(incl["representations.conj_neighborhood"],
                   calls["representations.conj_neighborhood"], 1e6), "us"),
        "experiments.trials": (per_round(len(trial_s)), "count"),
        "experiments.trial_s_p50": (
            statistics.median(trial_s) if trial_s else 0.0, "s"),
        "experiments.trial_s_max": (max(trial_s, default=0.0), "s"),
        "cli.write_ms": (_ratio(incl["cli.write_outputs"],
                                calls["cli.write_outputs"], 1e3), "ms"),
        "cli.bytes_written": (_ratio(Counter(t["bytes"])["cli.write_outputs"],
                                     calls["cli.write_outputs"]), "bytes"),
        "process.import_s": (result["import_s"], "s"),
        "process.user_s": (statistics.median(r["user_s"]
                                             for r in result["rounds"]), "s"),
        "process.sys_s": (statistics.median(r["sys_s"]
                                            for r in result["rounds"]), "s"),
        "trace.overhead_pct": (100 * (traced / untraced - 1), "%"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in m.items()}


def check_trace(result: dict, metrics: dict) -> list[str]:
    """The stream drew exactly the samples the outputs account for."""
    want = result["traced_rounds"][0]["samples"]
    got = metrics["rng.samples"]["value"]
    if got != want:
        return [f"traced stream drew {got} samples per round, the outputs "
                f"account for {want}"]
    return []


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = perf_counter() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "evoforge" / "__init__.py").is_file():
        print(f"no evoforge source tree under {root / 'src'}; run from the "
              "root of an evoforge checkout", file=sys.stderr)
        return 2
    out = root / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, EVOFORGE_THREADS="1")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out)]
    def probes():
        return [spawn(argv + ["--setup-only"], env, deadline)[0]
                for _ in range(SETUP_PROBES)]

    try:
        setups = probes()
        setup_s, result = spawn(argv, env, deadline)
        setups += [setup_s] + probes()
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    result["seed"] = args.seed

    fails = checks.check(args.workload, out, result)
    if args.trace:
        metrics = per_layer(result)
        fails += check_trace(result, metrics)
    else:
        metrics = end_to_end(result, setups)
    for msg in fails[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    rounds = result["rounds"] + result.get("traced_rounds", [])
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    record = {k: result[k] for k in ("backend", "python", "numpy", "numba",
                                     "cpu_count", "evoforge_threads")}
    record.update(
        workload=args.workload, seed=args.seed, setup_s=setups,
        rounds=[{k: r[k] for k in ("wall_s", "user_s", "sys_s", "ops",
                                   "failed", "samples")}
                for r in result["rounds"]],
        traced_rounds=[{k: r[k] for k in ("wall_s", "user_s", "sys_s")}
                       for r in result.get("traced_rounds", [])],
        attempted=attempted, failed=failed, checks_failed=len(fails))
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
