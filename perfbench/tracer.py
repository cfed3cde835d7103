"""Per-layer timing of evoforge from outside the package.

Tracer.install() replaces chosen functions of the layers by timing
wrappers wherever their callers look them up: in every loaded evoforge
module that holds the function under some name, in experiments.REGISTRY,
and on the class for methods.  Nothing under src/ changes, and
uninstall() puts the originals back.

A wrapped call is a span.  Its self time is its duration minus the
durations of the wrapped calls made inside it, so the time of an
unwrapped helper (rng.derive_seed, the engine's private _advance) counts
toward the wrapped function that called it.  The small
helpers stay unwrapped because a wrapper costs about a microsecond, more
than they do.  rng.sample_blocks is a generator: each block it yields is
one span, timed inside the consumer's span.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function or Class.method) per layer.
WRAPPED = {
    "rng": ("sample_blocks", "sample_assignments"),
    "_kernels": ("counts_conj_conj", "counts_conj_parity"),
    "perf": ("empirical_perf", "term_perf_matrix", "gen_perf"),
    "boolfn": ("exact_perf", "truth_table", "conj_perf_closed_form",
               "MonotoneConjunction.truth_batch", "MonotoneDnf.truth_batch",
               "ParityFunction.truth_batch"),
    "engine": ("evolve", "default_params", "classify_neighborhood",
               "CorrelationFitness.estimate", "CorrelationFitness.exact_value"),
    "representations": ("conj_neighborhood", "conj_mutation_weights",
                        "evolve_conjunction", "evolve_kdnf",
                        "BestClauseFitness.estimate",
                        "BestClauseFitness.exact_value"),
    # Trials are closures inside the run_* functions; _map_trials is the
    # one place that sees each of them, so it is wrapped to time them.
    "experiments": ("run_conjunction_evolvability",
                    "run_structural_vs_functional", "run_parity",
                    "run_counterexample", "evolve_conjunction_vs",
                    "_map_trials"),
    "cli": ("main", "cmd_run", "cmd_perf", "experiment_kwargs",
            "write_outputs"),
}

KERNELS = ("_kernels.counts_conj_conj", "_kernels.counts_conj_parity")
STREAM = "rng.sample_blocks"


class Tracer:
    """Spans and counts of one process.

    The benchmark runs evoforge on one thread (EVOFORGE_THREADS=1), so
    there is one span stack; the tracer is not meant for trials on threads.
    """

    def __init__(self):
        self.stack = []         # per open span: [children's time, kernel-served]
        self.calls = Counter()
        self.incl = Counter()   # seconds, children included
        self.own = Counter()    # seconds, wrapped children excluded
        self.samples = Counter()
        self.bytes = Counter()
        self.trial_s = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, key, fn, on_exit=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.calls[key] += 1
                self.incl[key] += dur
                self.own[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if on_exit is not None:
                    on_exit(frame, dur, args, kwargs)
        return wrapper

    def _stream(self, key, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            self.calls[key] += 1

            def blocks():
                try:
                    while True:
                        t0 = perf_counter()
                        try:
                            block = next(inner)
                        except StopIteration:
                            return
                        finally:
                            dur = perf_counter() - t0
                            self.incl[key] += dur
                            self.own[key] += dur
                            if stack:
                                stack[-1][0] += dur
                        self.samples[key] += len(block)
                        yield block
                finally:
                    inner.close()
            return blocks()
        return wrapper

    def _make(self, module, name, fn):
        key = f"{module}.{name}"
        if key == STREAM:
            return self._stream(key, fn)
        if key in KERNELS:
            def on_kernel(frame, dur, args, kwargs):
                self.samples[key] += args[1]
                if self.stack:
                    self.stack[-1][1] = True
            return self._span(key, fn, on_kernel)
        if key == "perf.empirical_perf":
            def on_estimate(frame, dur, args, kwargs):
                if not frame[1]:   # no kernel served it
                    spec = args[3] if len(args) > 3 else kwargs["spec"]
                    self.calls["perf.generic"] += 1
                    self.incl["perf.generic"] += dur
                    self.samples["perf.generic"] += spec.s
            return self._span(key, fn, on_estimate)
        if key == "cli.write_outputs":
            span = self._span(key, fn)

            def write_outputs(*args, **kwargs):
                paths = span(*args, **kwargs)
                self.bytes[key] += sum(p.stat().st_size for p in paths)
                return paths
            return functools.wraps(fn)(write_outputs)
        if key == "experiments._map_trials":
            def on_trial(frame, dur, args, kwargs):
                self.trial_s.append(dur)
            span = self._span(key, fn)

            def map_trials(trial_fn, count):
                return span(self._span("experiments.trial", trial_fn, on_trial),
                            count)
            return functools.wraps(fn)(map_trials)
        return self._span(key, fn)

    # -- install ------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "evoforge" or name.startswith("evoforge.")]
        registry = sys.modules["evoforge.experiments"].REGISTRY
        for layer, names in WRAPPED.items():
            home = sys.modules[f"evoforge.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._make(layer, name, orig))
                    continue
                orig = getattr(home, name)
                wrapper = self._make(layer, name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, wrapper)
                for k, v in registry.items():
                    if v is orig:
                        self._set_item(registry, k, wrapper)

    def _set(self, obj, attr, value):
        self._undo.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            put, obj, attr, value = self._undo.pop()
            put(obj, attr, value)

    def totals(self) -> dict:
        return {"calls": self.calls, "incl": self.incl, "own": self.own,
                "samples": self.samples, "bytes": self.bytes,
                "trial_s": sorted(self.trial_s)}
