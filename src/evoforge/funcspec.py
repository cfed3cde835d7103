"""Text syntax for functions: `x1&x4&x5`, `a | b` DNFs, `parity(x1,x2)`.

The empty conjunction is written `true`.  Whitespace around tokens is
ignored; variables inside a clause are deduplicated by the set semantics
of conjunctions.  canonical() on any function round-trips through here.
"""
from __future__ import annotations

import re

from .boolfn import VAR_MAX, MonotoneConjunction, MonotoneDnf, ParityFunction
from .errors import ConfigError

_VAR = re.compile(r"^x([1-9][0-9]*)$")
_PARITY = re.compile(r"^parity\((.*)\)$")


def _parse_var(token: str) -> int:
    m = _VAR.match(token.strip())
    if not m:
        raise ConfigError(f"expected a variable like x3, got {token.strip()!r}")
    digits = m.group(1)  # checked before int(), which refuses 4300 digits
    if len(digits) > len(str(VAR_MAX)):
        raise ConfigError(f"variable indices must be ints in 1..{VAR_MAX}, "
                          f"got one of {len(digits)} digits")
    return int(digits)


def parse_conjunction(text: str) -> MonotoneConjunction:
    body = text.strip()
    if not body:
        raise ConfigError("empty clause; write 'true' for the empty conjunction")
    if body == "true":
        return MonotoneConjunction(frozenset())
    return MonotoneConjunction(frozenset(_parse_var(t)
                                         for t in body.split("&")))


def parse_dnf(text: str) -> MonotoneDnf:
    """Parse a |-separated clause list; a single clause is a 1-clause DNF."""
    parts = text.split("|")
    return MonotoneDnf(tuple(parse_conjunction(p) for p in parts))


def parse_parity(text: str) -> ParityFunction:
    m = _PARITY.match(text.strip())
    if not m:
        raise ConfigError(f"expected parity(...), got {text.strip()!r}")
    inner = m.group(1).strip()
    if not inner:
        raise ConfigError("parity needs at least one variable")
    return ParityFunction(frozenset(_parse_var(t) for t in inner.split(",")))


def parse_function(text: str):
    """Dispatch on shape: parity call, |-joined DNF, or bare conjunction."""
    body = text.strip()
    if body.startswith("parity"):
        return parse_parity(body)
    if "|" in body:
        return parse_dnf(body)
    return parse_conjunction(body)
