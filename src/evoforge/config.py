"""Flat `key = value` run configuration with # comments.

Example:

    experiment = structural_vs_functional
    n = 8
    target = x1&x4&x5 | x2&x4&x6 | x3&x7&x8
    epsilon = 0.1
    trials = 50
    seed = 7

Unknown and duplicate keys are rejected with their line number, as are
type and range violations.  Values never contain '#'.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import get_args, get_type_hints

from .errors import ConfigError
from .funcspec import parse_function
from .perf import Aggregator
from .rng import MASK64

FORMATS = ("json", "csv", "txt")


@dataclass
class RunConfig:
    """Validated run configuration; None means "use the experiment default"."""

    experiment: str
    n: int | None = None
    k: int | None = None
    epsilon: float | None = None
    target: str | None = None
    target_fn: object = None
    target_size: int | None = None
    parity_size: int | None = None
    aggregator: Aggregator | None = None
    term_fitness: str | None = None
    t: float | None = None
    s: int | None = None
    g: int | None = None
    q: int | None = None
    trials: int | None = None
    seed: int | None = None
    out: str | None = None
    formats: tuple = FORMATS


# Every field but target_fn, which is parsed from target, is a config key;
# its annotation, less the None, gives the type its text converts to.
_KEY_TYPES = {key: (get_args(hint) or (hint,))[0]
              for key, hint in get_type_hints(RunConfig).items()
              if key != "target_fn"}
KNOWN_KEYS = tuple(_KEY_TYPES)


def _convert(key: str, value: str, line: int):
    if _KEY_TYPES[key] is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", line)
    if _KEY_TYPES[key] is float:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}", line)
    return value


def parse_config(text: str) -> RunConfig:
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        values[key] = _convert(key, value, lineno)
        lines[key] = lineno

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    cfg = RunConfig(experiment=values["experiment"])

    def fail(key, msg):
        raise ConfigError(msg, lines[key])

    for key, val in values.items():
        if key == "experiment":
            continue
        if key == "epsilon" and not 0 < val < 1:
            fail(key, f"epsilon must be in (0,1), got {val}")
        if key == "t" and val <= 0:
            fail(key, f"t must be > 0, got {val}")
        if key in ("n", "k", "s", "q") and val < 1:
            fail(key, f"{key} must be >= 1, got {val}")
        if key in ("g", "trials", "target_size", "parity_size") and val < 0:
            fail(key, f"{key} must be >= 0, got {val}")
        if key == "seed" and not 0 <= val <= MASK64:
            fail(key, f"seed must fit in 64 bits, got {val}")
        if key == "aggregator":
            try:
                val = Aggregator(val)
            except ValueError:
                fail(key, f"unknown aggregator {val!r}; choose from "
                          f"{', '.join(a.value for a in Aggregator)}")
        if key == "term_fitness" and val not in ("paired", "best_any"):
            fail(key, f"term_fitness must be paired or best_any, got {val!r}")
        if key == "formats":
            parts = tuple(p.strip() for p in val.split(","))
            bad = [p for p in parts if p not in FORMATS]
            if bad:
                fail(key, f"unknown output format(s) {', '.join(bad)}; "
                          f"choose from {', '.join(FORMATS)}")
            val = parts
        if key == "target":
            try:
                cfg.target_fn = parse_function(val)
            except ConfigError as exc:
                fail(key, str(exc))
        setattr(cfg, key, val)

    if cfg.target_fn is not None and cfg.n is not None:
        top = cfg.target_fn.max_literal
        if top > cfg.n:
            fail("target", f"target references x{top} but n = {cfg.n}")
    if cfg.k is not None and cfg.target_fn is not None:
        k_actual = getattr(cfg.target_fn, "k", 1)
        if k_actual != cfg.k:
            fail("k", f"k = {cfg.k} but target has {k_actual} clause(s)")
    return cfg
