"""Flat `key = value` run configuration with # comments.

Example:

    experiment = structural_vs_functional
    n = 8
    target = x1&x4&x5 | x2&x4&x6 | x3&x7&x8
    epsilon = 0.1
    trials = 50
    seed = 7

The keys are `experiment`, `out` (the output directory), `k` (a
clause-count assertion on the target) and the parameters of the
experiments' run_* functions, whose annotations give each value's type.
Unknown and duplicate keys are rejected with their line number, as are
type and range violations; `n` must be in 1..63, the range the sampler
draws.  Values never contain '#'.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from enum import Enum
from typing import get_args, get_type_hints

from .boolfn import MonotoneConjunction, MonotoneDnf
from .errors import ConfigError
from .experiments import REGISTRY
from .funcspec import parse_function
from .rng import MASK64


@dataclass
class RunConfig:
    """A parsed config: the experiment, the options the file sets for it,
    and where its outputs go.  An option left out takes its run_* default."""

    experiment: str
    options: dict = field(default_factory=dict)
    out: str | None = None


def _key_types() -> dict:
    """Each key's type: a run_* parameter's annotation, less the None of
    an optional one."""
    types = {"experiment": str, "out": str, "k": int}
    for fn in REGISTRY.values():
        hints = get_type_hints(fn)
        del hints["return"]
        for key, hint in hints.items():
            args = get_args(hint)
            types[key] = args[0] if type(None) in args else hint
    return types


_TYPES = _key_types()
KNOWN_KEYS = tuple(_TYPES)


def _convert(key: str, text: str, line: int):
    kind = _TYPES[key]
    if kind is str:
        return text
    if kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {text!r}", line)
    if kind is MonotoneDnf:
        try:
            fn = parse_function(text)
        except ConfigError as exc:
            raise ConfigError(str(exc), line)
        if isinstance(fn, MonotoneConjunction):
            fn = MonotoneDnf((fn,))  # a lone clause
        if not isinstance(fn, MonotoneDnf):
            raise ConfigError(f"{key} must be a monotone DNF, got {text!r}",
                              line)
        return fn
    # an Enum or a Literal of strings
    is_enum = isinstance(kind, type) and issubclass(kind, Enum)
    choices = [c.value for c in kind] if is_enum else list(get_args(kind))
    if text not in choices:
        raise ConfigError(f"unknown {key} {text!r}; choose from "
                          f"{', '.join(choices[:-1])} or {choices[-1]}", line)
    return kind(text) if is_enum else text


def check_range(key: str, val, line: int | None = None) -> None:
    """Raise ConfigError when val is outside the legal range of key."""
    if key == "epsilon" and not 0 < val < 1:
        msg = f"epsilon must be in (0,1), got {val}"
    elif key == "t" and val <= 0:
        msg = f"t must be > 0, got {val}"
    elif key in ("n", "k", "s", "q") and val < 1:
        msg = f"{key} must be >= 1, got {val}"
    elif key == "n" and val > 63:  # rng.check_dim's range
        msg = f"n must be <= 63, got {val}"
    elif key in ("g", "trials", "target_size", "parity_size") and val < 0:
        msg = f"{key} must be >= 0, got {val}"
    elif key == "seed" and not 0 <= val <= MASK64:
        msg = f"seed must fit in 64 bits, got {val}"
    else:
        return
    raise ConfigError(msg, line)


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
        check_range(key, values[key], lineno)
        lines[key] = lineno

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    cfg = RunConfig(values.pop("experiment"), out=values.pop("out", None),
                    options=values)

    # n and k are checked against the target the run will use: the
    # configured one, else the experiment's default.
    run = REGISTRY.get(cfg.experiment)
    param = inspect.signature(run).parameters.get("target") if run else None
    target = values.get("target", param.default if param else None)
    if target is not None:
        if "n" in values and target.max_literal > values["n"]:
            raise ConfigError(f"target references x{target.max_literal} but "
                              f"n = {values['n']}", lines["n"])
        if "k" in values and values["k"] != target.k:
            raise ConfigError(f"k = {values['k']} but target has {target.k} "
                              "clause(s)", lines["k"])
    return cfg
