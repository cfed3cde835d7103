"""One workload in a fresh process: set up, then rounds of fixed work.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                --trace 0|1 --out DIR [--setup-only]

Run from the root of an evoforge checkout; it imports the package from
./src.  It prints one JSON line when set-up is done, holding the
perf_counter reading then, and with --setup-only stops there.  Otherwise
it starts rounds of the same work until S seconds have passed, and
prints one more JSON line with each round's wall, user and system time.
With --trace 1 the first half of the time runs untraced and the second
half traced, and the line also holds the tracer's totals.  The program is
driven through evoforge.cli.main, as a user of the command line drives
it; its outputs stay in DIR for the checks of run.py.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """evoforge.cli.main(argv) with its stdout and stderr captured."""
    from evoforge import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except Exception:  # one failed operation; the round goes on
            traceback.print_exc(file=sys.__stderr__)
            rc = -1
    if rc != 0:
        print(f"evoforge {' '.join(argv)} exited {rc}:\n{buf.getvalue()}",
              file=sys.__stderr__)
    return rc, buf.getvalue()


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.read_bytes())
    return h.hexdigest()


class EvolutionWorkload:
    """Rounds of `evoforge run`: one run with every trial, or single-trial
    runs, one per seed, up to a sample budget.  An operation is a trial."""

    def __init__(self, name: str, seed: int, out: Path):
        self.out = out
        self.cfg = out / "run.cfg"
        self.cfg.write_text(inputs.CONFIGS[name])
        self.seeds = inputs.run_seeds(name, seed)
        self.trials_per_run = inputs.RUN_TRIALS[name]
        self.budget = inputs.SAMPLE_BUDGET.get(name)
        self.plan = []            # run seeds of one round, fixed by round 1

    def _run(self, i: int, seed: int) -> tuple[int, int, int]:
        """(trials, failed trials, samples drawn) of one `evoforge run`."""
        out = self.out / f"run{i:02d}"
        rc, _ = _quiet_cli(["run", "--config", str(self.cfg), "--out",
                            str(out), "--seed", str(seed)])
        if rc != 0:
            return self.trials_per_run, self.trials_per_run, 0
        report = json.loads((out / "report.json").read_text())
        return (len(report["trials"]), 0,
                sum(t["samples_drawn"] for t in report["trials"]))

    def round(self) -> dict:
        ops = failed = samples = 0
        if not self.plan:
            while True:
                seed = next(self.seeds)
                self.plan.append(seed)
                o, f, s = self._run(len(self.plan) - 1, seed)
                ops, failed, samples = ops + o, failed + f, samples + s
                if (self.budget is None or failed
                        or samples >= self.budget):
                    break
        else:
            for i, seed in enumerate(self.plan):
                o, f, s = self._run(i, seed)
                ops, failed, samples = ops + o, failed + f, samples + s
        return {"ops": ops, "failed": failed, "samples": samples}

    def outputs(self) -> dict:
        return {"run_seeds": self.plan}

    def digest(self) -> str:
        return _digest(p for p in self.out.rglob("*") if p.is_file()
                       and p.parent != self.out)


class OracleWorkload:
    """Rounds of `evoforge perf` queries and one `evoforge run` of the
    counterexample.  An operation is a query; the run counts as one."""

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.queries = inputs.oracle_queries(seed)
        self.cfg = out / "counterexample.cfg"
        self.cfg.write_text(inputs.CONFIGS["counterexample"])
        self.answers = []

    def round(self) -> dict:
        answers, failed, samples = [], 0, 0
        for q in self.queries:
            argv = ["perf", "--r", q["r"], "--f", q["f"], "--n", str(q["n"])]
            if q["s"] is not None:
                argv += ["--samples", str(q["s"]), "--seed", str(q["seed"])]
                samples += q["s"]
            rc, text = _quiet_cli(argv)
            failed += rc != 0
            answers.append(text.strip() if rc == 0 else None)
        rc, _ = _quiet_cli(["run", "--config", str(self.cfg), "--out",
                            str(self.out / "counterexample")])
        failed += rc != 0
        self.answers = answers
        return {"ops": len(self.queries) + 1, "failed": failed,
                "samples": samples}

    def outputs(self) -> dict:
        return {"answers": self.answers}

    def digest(self) -> str:
        h = hashlib.sha256(json.dumps(self.answers).encode())
        h.update(_digest((self.out / "counterexample").glob("*")).encode())
        return h.hexdigest()


def warm_up(workload: str) -> None:
    """One call of the workload's hot path at the workload's sizes."""
    from evoforge import (SampleSpec, default_neigh_cap, default_params,
                          empirical_perf, exact_perf)
    from evoforge.funcspec import parse_function as fn

    def stock_s(n, eps):
        return default_params(n, eps, default_neigh_cap(n)).s

    if workload == "conj_evolve":
        empirical_perf(fn("x1&x2"), fn("x1&x2&x3"), 10,
                       SampleSpec(stock_s(10, 0.1), 1))
    elif workload == "parity_flat":
        empirical_perf(fn("x1&x2"), fn("parity(x1,x2,x3,x4)"), 10,
                       SampleSpec(stock_s(10, 0.5), 1))
    elif workload == "dnf_best_any":
        empirical_perf(fn("x1&x4"), fn("x1&x4&x5"), 8,
                       SampleSpec(stock_s(8, 0.1), 1))
    else:
        hyp = fn(inputs.COUNTEREXAMPLE_HYPOTHESIS)
        tgt = fn(inputs.COUNTEREXAMPLE_TARGET)
        exact_perf(hyp, tgt, inputs.ORACLE_N)
        empirical_perf(hyp, tgt, inputs.ORACLE_N,
                       SampleSpec(inputs.ORACLE_LARGE_S, 1))


def measure(work, seconds: float) -> list[dict]:
    """Rounds of work for at most `seconds`, at least one round.

    A round starts only if a round as long as the last one would end
    within the time.
    """
    rounds = []
    start = perf_counter()
    while not rounds or (perf_counter() - start + rounds[-1]["wall_s"]
                         <= seconds):
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        info = work.round()
        wall = perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        info.update(wall_s=wall, user_s=r1.ru_utime - r0.ru_utime,
                    sys_s=r1.ru_stime - r0.ru_stime, digest=work.digest())
        rounds.append(info)
    return rounds


def environment() -> dict:
    from evoforge import _kernels
    import numpy
    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = None
    return {"backend": "numba" if _kernels.HAVE_NUMBA else "numpy",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba": numba, "cpu_count": os.cpu_count(),
            "evoforge_threads": os.environ.get("EVOFORGE_THREADS")}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import evoforge
    import evoforge.cli  # noqa: F401
    import_s = perf_counter() - t0
    if Path(evoforge.__file__).resolve().parent != (src / "evoforge").resolve():
        print(f"imported evoforge from {evoforge.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    warm_up(args.workload)
    print(json.dumps({"setup_done": perf_counter()}), flush=True)
    if args.setup_only:
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    work = (OracleWorkload(args.seed, out) if args.workload == "oracle"
            else EvolutionWorkload(args.workload, args.seed, out))
    result = {"import_s": import_s, **environment()}
    if args.trace:
        from tracer import Tracer
        result["rounds"] = measure(work, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_rounds"] = measure(work, args.seconds / 2)
        finally:
            tracer.uninstall()
        result["trace"] = tracer.totals()
    else:
        result["rounds"] = measure(work, args.seconds)
    result["outputs"] = work.outputs()
    result["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
