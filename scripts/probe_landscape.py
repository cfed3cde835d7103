#!/usr/bin/env python3
"""Print one evolution trace with exact scores, generation by generation.

Conjunction targets run in exact mode (no sampling noise), so the output
shows the raw fitness landscape the selection rule sees.  Parity targets
fall back to sampled estimates plus exact per-generation diagnostics,
which is the quickest way to watch a flat landscape refuse to climb.

Examples:
    python3 scripts/probe_landscape.py --target x1&x2&x3 --n 8
    python3 scripts/probe_landscape.py --target "parity(x1,x2,x3)" --n 8 --g 12
"""
import argparse
import sys
from pathlib import Path

# run from a checkout, uninstalled
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evoforge.boolfn import MonotoneConjunction  # noqa: E402
from evoforge.engine import CorrelationFitness, default_params  # noqa: E402
from evoforge.errors import EvoforgeError  # noqa: E402
from evoforge.funcspec import parse_function  # noqa: E402
from evoforge.representations import (  # noqa: E402
    default_neigh_cap, evolve_conjunction)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--target", default="x1&x2&x3")
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--g", type=int, help="generation budget override")
    parser.add_argument("--s", type=int, help="sample count override")
    args = parser.parse_args(argv)

    try:
        target = parse_function(args.target)
        params = default_params(args.n, args.epsilon,
                                default_neigh_cap(args.n), seed=args.seed,
                                g=args.g, s=args.s)
        if isinstance(target, MonotoneConjunction):
            fitness, mode = CorrelationFitness(target, exact_mode=True), "exact"
        else:
            fitness, mode = None, f"sampled (s={params.s})"
        trace = evolve_conjunction(target, params, fitness=fitness)
    except EvoforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"target {target.canonical()}  n={params.n}  eps={params.epsilon}  "
          f"t={params.t}  mode={mode}")
    print(f"{'gen':>5}  {'incumbent':<24} {'perf':>10}  {'exact':>10}  "
          f"{'#benef':>6} {'#neut':>6}  chose")
    for rec in trace.records:
        exact = "" if rec.exact_perf is None else f"{rec.exact_perf:10.6f}"
        print(f"{rec.gen:>5}  {rec.rep.canonical():<24} "
              f"{rec.emp_perf:>10.6f}  {exact:>10}  "
              f"{rec.n_beneficial:>6} {rec.n_neutral:>6}  {rec.chose}")
    if trace.succeeded:
        print(f"succeeded at generation {trace.success_gen}: "
              f"{trace.final_rep.canonical()}")
    else:
        print(f"no success within g={params.g} generations "
              f"(final {trace.final_rep.canonical()})")
    print(f"perf evals {trace.perf_evals}, samples drawn {trace.samples_drawn}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
