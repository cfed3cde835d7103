"""Exception taxonomy shared across the package, and the one table of
parameter ranges that raises ParameterError.  Every error here is an
EvoforgeError.  A function that uses a variable past x_n raises the
ParameterError DimensionMismatchError, and a config file's failures are
ConfigErrors, which name their line."""


class EvoforgeError(Exception):
    """Base class for all package-specific errors."""


class EnumerationBudgetError(EvoforgeError):
    """Exact enumeration was requested for a dimension too large to enumerate."""


class KMismatchError(EvoforgeError):
    """Two DNFs that must share a clause count do not."""


class ContractError(EvoforgeError):
    """A representation class violated a structural contract mid-run."""


class ParameterError(EvoforgeError):
    """An evolution or experiment parameter is outside its legal range."""


class DimensionMismatchError(ParameterError):
    """A function uses a variable beyond x_n (boolfn._check_dim)."""


# The legal range of every parameter whose range depends on no other one,
# keyed by its config-key name: (the test, what the message says it must).
# n is what the packed uint64 sampler draws, and s what the compiled
# kernel takes as an int64.
_RANGES = {
    "n": (lambda v: 1 <= v <= 63, "be in 1..63"),
    "epsilon": (lambda v: 0 < v < 1, "be in (0,1)"),
    "t": (lambda v: v > 0, "be > 0"),
    "s": (lambda v: 1 <= v < 1 << 63, "be in 1..2^63-1"),
    "seed": (lambda v: 0 <= v < 1 << 64, "fit in 64 bits"),
    **dict.fromkeys(("g", "trials", "target_size", "parity_size"),
                    (lambda v: v >= 0, "be >= 0")),
    **dict.fromkeys(("k", "q", "neigh_cap"), (lambda v: v >= 1, "be >= 1")),
}


def check_range(key: str, value) -> None:
    """Raise ParameterError when value is outside the legal range of the
    parameter key.  A key with no range of its own passes."""
    rule = _RANGES.get(key)
    if rule is not None and not rule[0](value):
        raise ParameterError(f"{key} must {rule[1]}, got {value}")


class ConfigError(EvoforgeError):
    """Configuration text failed to parse or validate.

    `line` is the 1-based line number when the failure is tied to one.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
