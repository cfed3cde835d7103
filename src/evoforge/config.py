"""Flat `key = value` run configuration with # comments.

Example:

    experiment = structural_vs_functional
    n = 8
    target = x1&x4&x5 | x2&x4&x6 | x3&x7&x8
    epsilon = 0.1
    trials = 50
    seed = 7

`experiment` names a run_* function in experiments.REGISTRY.  The other
keys are `out` (the output directory), `k` (a clause-count assertion,
wherever the experiment takes a target) and the parameters of that one
function, whose annotations give each value's type.  Each key is read
once, against that function: an unknown experiment, a key it does not
take, a duplicate, a value of the wrong type, a value outside the range
errors.check_range gives its key, a target that uses a variable past
x_n (boolfn._check_dim) and a k the target does not have are each
rejected with their line number.  Ranges that depend on the experiment
are left to the run_* function, which refuses them before any trial: q
at most n and at least the target's largest clause, target_size at most
n, parity_size in 3..n.  Values never contain '#'.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import Enum
from typing import get_args, get_type_hints

from .boolfn import MonotoneConjunction, MonotoneDnf, _check_dim
from .errors import ConfigError, ParameterError, check_range
from .experiments import REGISTRY
from .funcspec import parse_function


@dataclass
class RunConfig:
    """A parsed config: the experiment, the options the file sets for it,
    and where its outputs go.  An option left out takes its run_* default."""

    experiment: str
    options: dict
    out: str | None


def _convert(key: str, kind, text: str):
    """text as the type kind: a run_* annotation, less the None of an
    optional parameter.  parse_config adds the line to an error."""
    args = get_args(kind)
    if type(None) in args:
        kind = args[0]
    if kind is str:
        return text
    if kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {text!r}")
    if kind is MonotoneDnf:
        fn = parse_function(text)
        if isinstance(fn, MonotoneConjunction):
            fn = MonotoneDnf((fn,))  # a lone clause
        if not isinstance(fn, MonotoneDnf):
            raise ConfigError(f"{key} must be a monotone DNF, got {text!r}")
        return fn
    # an Enum or a Literal of strings
    is_enum = isinstance(kind, type) and issubclass(kind, Enum)
    choices = [c.value for c in kind] if is_enum else list(get_args(kind))
    if text not in choices:
        raise ConfigError(f"unknown {key} {text!r}; choose from "
                          f"{', '.join(choices[:-1])} or {choices[-1]}")
    return kind(text) if is_enum else text


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Read config text against its experiment's run_* signature.

    overrides (the command line's --seed and --trials) replace the
    file's values and get the same checks, with no line number."""
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[key] = (value, lineno)

    if "experiment" not in entries:
        raise ConfigError("missing required key 'experiment'")
    name, line = entries.pop("experiment")
    run = REGISTRY.get(name)
    if run is None:
        raise ConfigError(f"unknown experiment {name!r}; choose from "
                          f"{', '.join(sorted(REGISTRY))}", line)
    out = entries.pop("out", (None, None))[0]
    kinds = get_type_hints(run)
    kinds.pop("return", None)
    if "target" in kinds:
        kinds["k"] = int
    options, lines = {}, {}
    extra = [(key, (val, None)) for key, val in (overrides or {}).items()]
    for key, (value, line) in [*entries.items(), *extra]:
        if key not in kinds:
            raise ConfigError(f"key {key!r} does not apply to experiment "
                              f"{name!r}", line)
        try:
            if isinstance(value, str):  # an override comes typed
                value = _convert(key, kinds[key], value)
            check_range(key, value)
        except (ConfigError, ParameterError) as exc:
            raise ConfigError(str(exc), line)
        options[key] = value
        lines[key] = line

    # n and k are checked against the target the run will use: the
    # configured one, else the experiment's default.
    param = inspect.signature(run).parameters.get("target")
    target = options.get("target", param.default if param else None)
    if target is not None:
        if "n" in options:
            try:
                _check_dim(target, options["n"])
            except ParameterError as exc:
                raise ConfigError(str(exc), lines["n"])
        if "k" in options and options["k"] != target.k:
            raise ConfigError(f"k = {options['k']} but target has {target.k} "
                              "clause(s)", lines["k"])
    return RunConfig(name, options, out)
