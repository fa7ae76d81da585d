"""Exception types shared across the package, and the argument checks that
every module uses: an integer argument, a power that must be an integer, a
finite positive argument, and a product of finite arguments that must not
overflow."""

import cmath
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


def check_integer_power(v, message: str) -> int:
    """round(v) if float(v) lies within 1e-12 of that integer, for the
    closed forms that need an integer power; otherwise
    DomainError(message.format(v))."""
    p = float(v)
    i = round(p)
    if abs(p - i) > 1e-12:
        raise DomainError(message.format(v))
    return i


def check_positive(x) -> float:
    """x as a float if it is finite and > 0, else DomainError."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be > 0, got {x!r}")
    return x


def check_product(c, x: float) -> complex:
    """c * x, or OverflowError where that overflows though c and x are
    finite. A non-finite c or x passes on to the kernel that rejects it."""
    z = c * x
    if not cmath.isfinite(z) and cmath.isfinite(c) and math.isfinite(x):
        raise OverflowError(f"{c} * {x} exceeds double-precision range")
    return z
