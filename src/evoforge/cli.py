"""Command-line front end: `evoforge run|perf|list|info`.

run executes a configured experiment and writes report.json, trace.csv,
and summary.txt into the output directory.  Exit codes: 0 all golden
checks passed, 1 golden-check failure, 2 configuration problem.  info
prints which count backend runs and what it was built with.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
from pathlib import Path

from . import __version__, _kernels
from .boolfn import OutputConvention, exact_perf
from .config import RunConfig, check_range, parse_config
from .errors import (ConfigError, DimensionMismatchError,
                     EnumerationBudgetError, KMismatchError, ParameterError)
from .experiments import REGISTRY, ExperimentReport
from .funcspec import parse_function
from .perf import SampleSpec, empirical_perf

_CSV_COLUMNS = ("trial", "generation", "representation", "emp_perf",
                "exact_perf", "n_beneficial", "n_neutral", "chose")


def _fmt(v) -> str:
    return "%.17g" % v


def experiment_kwargs(cfg: RunConfig) -> dict:
    """Turn a parsed config into keyword arguments for its experiment.

    An experiment accepts the parameters of its run_* function, plus 'k'
    wherever it takes a target; parse_config has checked 'k' against that
    target, so it is dropped here.  An option the config leaves out takes
    its run_* default.
    """
    if cfg.experiment not in REGISTRY:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; choose "
                          f"from {', '.join(sorted(REGISTRY))}")
    params = inspect.signature(REGISTRY[cfg.experiment]).parameters
    for key in cfg.options:
        if key not in params and not (key == "k" and "target" in params):
            raise ConfigError(
                f"key {key!r} does not apply to experiment "
                f"{cfg.experiment!r}")
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
                  DimensionMismatchError, EnumerationBudgetError)


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        for key in ("seed", "trials"):
            val = getattr(args, key)
            if val is not None:
                check_range(key, val)
                cfg.options[key] = val
        kwargs = experiment_kwargs(cfg)
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
        if args.n < 1:
            raise ConfigError(f"--n must be >= 1, got {args.n}")
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
            ("compiler", _kernels._compiler() or "none"),
            ("library", _kernels.LIBRARY or "none"),
            ("python", platform.python_version()),
            ("numpy", np.__version__),
            ("cpus", os.cpu_count()),
            ("EVOFORGE_THREADS", os.environ.get("EVOFORGE_THREADS", "unset"))]
    for key, val in rows:
        print(f"{key}: {val}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_run.set_defaults(func=cmd_run)

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
    p_perf.set_defaults(func=cmd_perf)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=cmd_list)

    p_info = sub.add_parser("info", help="show the count backend, its build "
                            "and the environment")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
