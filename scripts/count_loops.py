#!/usr/bin/env python3
"""Time one compiled count loop on six fixed pairs, in ns per sample.

For a library built from _count.c (by default the one this checkout's
import loaded) and one of its loops (count, the portable one, or
count_avx512, the hand loop), prints a JSON object: for each pair, the
best of 15 calls of s = 2*10^6 points at seed 12345, in ns per sample,
and the (both, a, b) counts the loop returned.  Two libraries or loops
give the same counts; only their times differ.

Examples:
    python3 scripts/count_loops.py
    python3 scripts/count_loops.py --symbol count
    python3 scripts/count_loops.py --library ~/.cache/evoforge/count-<hash>.so
"""
import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

# run from a checkout, uninstalled
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evoforge import _kernels  # noqa: E402
from evoforge.funcspec import parse_function  # noqa: E402

SEED, S, CALLS = 12345, 2_000_000, 15
# name: (a, b, n): a pair for each of the three shapes with a loop of
# their own, the three DNF pairs in the padded 4x4 clause-list shape.  In
# count_avx512 the masks choose the loop: the pairs marked 16-bit (every
# mask below 2^16) run 32 points a step in 16-bit lanes, the others 8 a
# step in 64-bit lanes, with the mixer's second multiply IFMA's where
# every mask is below 2^21 and in full above.  conj_conj_n17 is conj_conj's
# pair at n = 17, and dnf3_dnf3_n30, with a literal on x30, times the arm
# without IFMA.
PAIRS = {
    "conj_dnf3": ("x1&x2", "x1&x4&x5 | x2&x4&x6 | x3&x7&x8", 8),  # 16-bit
    "dnf3_dnf3": ("x1&x5&x9 | x2&x14 | x3&x17&x20",
                  "x4&x8 | x6&x11&x19 | x7&x12&x13&x16", 20),  # 64-bit, IFMA
    "dnf3_dnf3_n30": ("x1&x5&x9 | x2&x14 | x3&x17&x30",
                      "x4&x8 | x6&x11&x19 | x7&x12&x13&x16", 30),  # 64-bit
    "conj_conj": ("x1&x2&x4", "x2&x3", 10),  # 16-bit
    "conj_conj_n17": ("x1&x2&x4", "x2&x3", 17),  # 16-bit
    "conj_parity": ("x1&x2&x4", "parity(x1,x2,x3,x4)", 10),  # 16-bit
}


def measure(library: str, symbol: str) -> dict:
    """{pair: {"ns_per_sample", "counts"}} for the loop `symbol` of the
    library at `library`."""
    _kernels._count_c = _kernels._bind(library, symbol)
    out = {}
    for name, (a, b, n) in PAIRS.items():
        fa, fb = parse_function(a), parse_function(b)
        args = (SEED, S, fa.masks, fa.is_parity, fb.masks, fb.is_parity, n)
        best = None
        for _ in range(CALLS):
            start = time.perf_counter_ns()
            counts = _kernels._count_compiled(*args)
            took = time.perf_counter_ns() - start
            best = took if best is None else min(best, took)
        out[name] = {"ns_per_sample": round(best / S, 3),
                     "counts": list(counts)}
    return out


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--library", default=_kernels.LIBRARY,
                        help="a library built from _count.c (default: the "
                             "one the import loaded)")
    parser.add_argument("--symbol", choices=("count", "count_avx512"),
                        default="count_avx512")
    args = parser.parse_args(argv)
    if args.library is None:
        print(f"error: no compiled library loaded ({_kernels.FALLBACK})",
              file=sys.stderr)
        return 2
    try:
        lib = ctypes.CDLL(args.library)
        if args.symbol == "count_avx512" and lib.avx512() != 1:
            print("error: avx512() says this CPU does not run count_avx512",
                  file=sys.stderr)
            return 2
        pairs = measure(args.library, args.symbol)
    except (OSError, AttributeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"library": args.library, "symbol": args.symbol,
                      "seed": SEED, "s": S, "calls": CALLS,
                      "pairs": pairs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(run())
