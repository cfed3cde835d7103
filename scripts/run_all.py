#!/usr/bin/env python3
"""Run every experiment config in configs/ through the CLI.

Writes each report under its config's `out` directory (default
results/<name>).  --quick cuts trial counts to 5 for a fast smoke pass.
After each run it prints the sha256 of its report.json and trace.csv, as
`<digest>  <name>/<file>` lines; at the stock trial counts, with no
option, those lines are results.sha256, which the acceptance tests
check the full runs against.  Each `out` is relative to the working
directory, so run it from outside the checkout to leave the committed
results/ as it is; from the checkout's root:

    (cd "$(mktemp -d)" && python3 "$OLDPWD/scripts/run_all.py") |
        grep -E '^[0-9a-f]{64}  ' > results.sha256

Exits nonzero if any run fails a golden check or misconfigures.
"""
import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout, uninstalled

from evoforge.cli import main as evoforge_main  # noqa: E402
from evoforge.config import parse_config  # noqa: E402

CONFIG_DIR = ROOT / "configs"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="override trials to 5 everywhere")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--only", help="run just this experiment name")
    args = parser.parse_args(argv)

    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    if args.only:
        configs = [c for c in configs if c.stem == args.only]
        if not configs:
            print(f"no config named {args.only!r} in {CONFIG_DIR}",
                  file=sys.stderr)
            return 2

    worst = 0
    for cfg in configs:
        cli_args = ["run", "--config", str(cfg)]
        # the counterexample accepts no knobs, overrides would be rejected
        if cfg.stem != "counterexample":
            if args.quick:
                cli_args += ["--trials", "5"]
            if args.seed is not None:
                cli_args += ["--seed", str(args.seed)]
        print(f"=== {cfg.stem} ===")
        start = time.monotonic()
        code = evoforge_main(cli_args)
        if code in (0, 1):  # the outputs were written
            out = Path(parse_config(cfg.read_text()).out or "evoforge_out")
            for fname in ("report.json", "trace.csv"):
                digest = hashlib.sha256((out / fname).read_bytes())
                print(f"{digest.hexdigest()}  {cfg.stem}/{fname}")
        print(f"=== {cfg.stem}: exit {code} ({time.monotonic() - start:.1f}s) ===\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
