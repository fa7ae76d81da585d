"""Exception types shared across the package, and the two argument checks
that every module uses: an integer argument and a finite positive one."""

import math
import operator


class DomainError(ValueError):
    """An argument is outside the domain an operation supports."""


class DivergenceError(ValueError):
    """The requested definite integral does not converge."""


class BranchCutError(ValueError):
    """An evaluation landed on a branch cut and no principal-value fallback was allowed."""


class SingularCombinationError(ValueError):
    """A parameter combination is singular and has no meaningful finite value."""


class UnsupportedPowerError(ValueError):
    """The power parameter is outside the range a closed form supports."""


def check_integer(v, what: str, minimum: int | None = None,
                  error: type = DomainError) -> int:
    """v as a Python int if it is an int or a numpy integer (not a bool of
    either kind) and at least minimum; anything else raises error."""
    if not isinstance(v, bool):
        try:
            i = operator.index(v)
        except TypeError:
            pass
        else:
            if minimum is None or i >= minimum:
                return i
    bound = "" if minimum is None else f" >= {minimum}"
    raise error(f"{what} must be an integer{bound}, got {v!r}")


def check_positive(x) -> float:
    """x as a float if it is finite and > 0, else DomainError."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be > 0, got {x!r}")
    return x
