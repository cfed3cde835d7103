"""Command-line front end: `evoforge run|perf|list|info`.

run executes a configured experiment and writes report.json, trace.csv,
and summary.txt into the output directory; before the first trial it
names the count backend on stderr, with the loop it bound or why it fell
back to numpy.  Exit codes: 0 all golden checks passed, 1 golden-check
failure, 2 configuration problem.  info prints which count backend and
loop run, what it was built with, and why it fell back to numpy if it did.

main(argv) may be called many times in one process: the parser is built
on the first call and reused, and each call looks its command's handler
up afresh.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import __version__, _kernels
from .boolfn import OutputConvention, exact_perf
from .config import RunConfig, parse_config
from .errors import (ConfigError, EnumerationBudgetError, KMismatchError,
                     ParameterError, check_range)
from .experiments import REGISTRY, ExperimentReport
from .funcspec import parse_function
from .perf import SampleSpec, empirical_perf

_CSV_COLUMNS = ("trial", "generation", "representation", "emp_perf",
                "exact_perf", "n_beneficial", "n_neutral", "chose")


def _fmt(v) -> str:
    return "%.17g" % v


def experiment_kwargs(cfg: RunConfig) -> dict:
    """The keyword arguments of a parsed config's run_* function: its
    options less 'k', which parse_config has checked against the target.
    An option the config leaves out takes its run_* default."""
    return {key: val for key, val in cfg.options.items() if key != "k"}


def report_json_text(report: ExperimentReport) -> str:
    return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"


def trace_csv_text(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for trial, gen, rep, emp, exact, nb, nn, chose in report.trace_rows:
        writer.writerow([trial, gen, rep, _fmt(emp),
                         "" if exact is None else _fmt(exact), nb, nn, chose])
    return buf.getvalue()


def summary_text(report: ExperimentReport) -> str:
    lines = [f"experiment: {report.name}", "", "parameters:"]
    for key, val in report.params.items():
        lines.append(f"  {key} = {val}")
    lines.append("")
    lines.append("aggregates:")
    for key, val in report.aggregates.items():
        if isinstance(val, float):
            lines.append(f"  {key} = {_fmt(val)}")
        elif val is None or isinstance(val, (int, bool, str)):
            lines.append(f"  {key} = {val}")
        elif isinstance(val, dict) and all(
                v is None or isinstance(v, (int, float, bool, str))
                for v in val.values()):
            lines.append(f"  {key} = {json.dumps(val)}")
        else:
            lines.append(f"  {key} = [{len(val)} entries, see report.json]")
    lines.append("")
    if report.golden_checks:
        lines.append("golden checks:")
        for c in report.golden_checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  {status} {c.label}: expected {_fmt(c.expected)}, "
                         f"got {_fmt(c.actual)} (tolerance {_fmt(c.tolerance)})")
        n_pass = sum(c.passed for c in report.golden_checks)
        lines.append("")
        if n_pass == len(report.golden_checks):
            lines.append(f"result: all {n_pass} golden checks passed")
        else:
            lines.append(f"result: {len(report.golden_checks) - n_pass} of "
                         f"{len(report.golden_checks)} golden checks FAILED")
    else:
        lines.append("result: no golden checks defined for this experiment")
    return "\n".join(lines) + "\n"


def write_outputs(report: ExperimentReport, out_dir: Path) -> list[Path]:
    """Write report.json, trace.csv and summary.txt; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, render in (("report.json", report_json_text),
                         ("trace.csv", trace_csv_text),
                         ("summary.txt", summary_text)):
        path = out_dir / name
        path.write_text(render(report))
        written.append(path)
    return written


_CONFIG_ERRORS = (ConfigError, ParameterError, KMismatchError,
                  EnumerationBudgetError)


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, {key: getattr(args, key)
                                  for key in ("seed", "trials")
                                  if getattr(args, key) is not None})
        kwargs = experiment_kwargs(cfg)
        why = _kernels.FALLBACK
        print(f"backend: {_kernels.BACKEND}"
              + (f" (fallback: {why})" if why else f", loop: {_kernels.LOOP}"),
              file=sys.stderr)
        report = REGISTRY[cfg.experiment](**kwargs)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out if args.out is not None
                   else (cfg.out or "evoforge_out"))
    try:
        written = write_outputs(report, out_dir)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    if report.golden_checks and not report.all_golden_pass:
        failed = [c.label for c in report.golden_checks if not c.passed]
        print(f"golden check failures: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"{report.name}: ok")
    return 0


def cmd_perf(args) -> int:
    try:
        r = parse_function(args.r)
        f = parse_function(args.f)
        conv = OutputConvention(args.conv)
        seed = args.seed or 0
        check_range("seed", seed)  # in exact mode too, where it goes unused
        if args.samples is not None:
            spec = SampleSpec(args.samples, seed)
            val = empirical_perf(r, f, args.n, spec, conv)
            print(f"sampled perf ({conv.value}, s={spec.s}, seed={spec.seed}) "
                  f"= {_fmt(val)}")
        else:
            val = exact_perf(r, f, args.n, conv)
            print(f"exact perf ({conv.value}, n={args.n}) = {_fmt(float(val))}"
                  f" [{val}]")
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_list(_args) -> int:
    for name in sorted(REGISTRY):
        doc = (REGISTRY[name].__doc__ or "").strip().splitlines()
        first = doc[0] if doc else ""
        print(f"{name}: {first}")
    return 0


def cmd_info(_args) -> int:
    import platform

    import numpy as np  # the one command that loads it on the c backend

    rows = [("evoforge", __version__),
            ("backend", _kernels.BACKEND),
            ("loop", _kernels.LOOP),
            ("compiler", _kernels._compiler() or "none"),
            ("library", _kernels.LIBRARY or "none"),
            ("fallback", _kernels.FALLBACK or "none"),
            ("python", platform.python_version()),
            ("numpy", np.__version__),
            ("cpus", os.cpu_count()),
            ("EVOFORGE_THREADS", os.environ.get("EVOFORGE_THREADS", "unset"))]
    for key, val in rows:
        print(f"{key}: {val}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and reused:
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="evoforge",
        description="Mutation-and-selection learnability experiments on "
                    "Boolean functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="path to a key=value "
                       "config file")
    p_run.add_argument("--out", help="output directory (default from config, "
                       "else evoforge_out)")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--trials", type=int, help="override the trial count")

    p_perf = sub.add_parser("perf", help="one-shot performance query")
    p_perf.add_argument("--r", required=True, help="hypothesis, e.g. "
                        "'x1&x2 | x3' or 'parity(x1,x2)'")
    p_perf.add_argument("--f", required=True, help="target function")
    p_perf.add_argument("--n", required=True, type=int, help="cube dimension")
    p_perf.add_argument("--conv", choices=["signed", "binary"],
                        default="signed")
    mode = p_perf.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact rational value (default)")
    mode.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    p_perf.add_argument("--seed", type=int, help="sampling seed (default 0)")

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("info", help="show the count backend, its build and the "
                   "environment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a handler replaced after the first call runs
    handler = {"run": cmd_run, "perf": cmd_perf, "list": cmd_list,
               "info": cmd_info}[args.command]
    return handler(args)
