"""Exponential-type integrals and antiderivatives of x^n e^{cx}.

Real exponential integral Ei and logarithmic integral li, the complex
E_1 / E_n family, sine and cosine integrals, integer-order incomplete gamma
functions, and the closed-form antiderivative of x^n e^{cx} that the triple
product integrals reduce to.

E_n for every order n >= 1, E_1 included, comes from one power series and one
continued fraction, and _series_preferred(n, z) alone chooses between them.
All complex powers and logarithms take the principal branch.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import BranchCutError, DomainError, check_integer, check_positive

# Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061

_SERIES_EPS = 1e-18
_CF_TINY = 1e-300
_CF_MAXITER = 4000


# ---------------------------------------------------------------------------
# E_1 and E_n
# ---------------------------------------------------------------------------

def _series_preferred(n: int, z: complex) -> bool:
    """True where the power series for E_n, n >= 1, beats the continued fraction.

    Inside |z| <= 4 for n = 1 and |z| <= 3 for n >= 2; outside, only near the
    negative real axis where the series cancellation measure |z| - |Re z| is
    small (the continued fraction converges arbitrarily slowly approaching the
    cut, while the series result grows like e^{-Re z}).
    """
    r = abs(z)
    if r <= (4.0 if n == 1 else 3.0):
        return True
    return z.real < 0.0 and (r + z.real) <= 6.0 and r <= 300.0


def _en_cf(n: int, z: complex) -> complex:
    """Modified-Lentz continued fraction for E_n(z), |arg z| < pi.

    E_n(z) = e^{-z} / (z + n - 1*n/(z + n + 2 - 2(n+1)/(z + n + 4 - ...)))
    """
    b = z + n
    c = complex(1.0 / _CF_TINY)
    d = 1.0 / b if b != 0 else complex(1.0 / _CF_TINY)
    h = d
    for i in range(1, _CF_MAXITER):
        a = -i * (n - 1 + i)
        b += 2
        d = a * d + b
        if d == 0:
            d = complex(_CF_TINY)
        c = b + a / c
        if c == 0:
            c = complex(_CF_TINY)
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 5e-16:
            return cmath.exp(-z) * h
    raise ArithmeticError(f"E_{n} continued fraction did not converge at z={z}")


def e1_complex(z: complex) -> complex:
    """Exponential integral E_1(z) for complex z off the negative real axis.

    The n = 1 case of exp_integral_en, which states the domain; ei(-x) is
    the real principal value on the negative real axis.
    """
    return exp_integral_en(1, z)


@functools.lru_cache(maxsize=256)
def _harmonic(n: int) -> float:
    """H_{n-1} = sum_{k=1}^{n-1} 1/k, summed in increasing k."""
    return sum(1.0 / k for k in range(1, n))


def _en_series(n: int, z: complex) -> complex:
    """Small-|z| series for E_n(z), every integer n >= 1 (A&S 5.1.12).

    (-z)^{n-1}/(n-1)! (-Log z - gamma + H_{n-1}) - sum_{m != n-1} (-z)^m / (m! (m-n+1));
    at n = 1 this is -gamma - Log z + sum_{k>=1} (-1)^(k+1) z^k / (k k!).
    """
    mz = -z
    az = abs(z)
    lead = mz ** (n - 1) / math.factorial(n - 1)
    total = lead * (-cmath.log(z) - EULER_GAMMA + _harmonic(n))
    term = complex(1.0)  # (-z)^m / m!
    for m in range(0, int(3 * az) + 160):
        if m > 0:
            term *= mz / m
        if m == n - 1:
            continue
        piece = -term / (m - n + 1)
        total += piece
        if m > az and abs(piece) <= _SERIES_EPS * max(abs(total), 1e-30):
            return total
    raise ArithmeticError(f"E_{n} series did not converge at z={z}")


def exp_integral_en(n: int, z: complex) -> complex:
    """Generalized exponential integral E_n(z) for integer n >= 0.

    E_0(z) = e^{-z}/z; every n >= 1 by the power series or the continued
    fraction, as _series_preferred chooses. z must avoid the negative real
    axis; z = 0 is a pole for n <= 1 and gives 1/(n-1) for n >= 2. Any
    other non-finite z is a DomainError.
    """
    n = check_integer(n, "E_n order", 0)
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        if z == 0:
            if n >= 2:
                return complex(1.0 / (n - 1))
            raise DomainError(f"E_{n} is singular at z = 0")
        raise BranchCutError(f"E_{n} is not defined on the negative real axis (z={z})")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"E_{n} needs a finite argument, got z={z}")
    if n == 0:
        return cmath.exp(-z) / z
    if _series_preferred(n, z):
        return _en_series(n, z)
    return _en_cf(n, z)


# ---------------------------------------------------------------------------
# Ei, li
# ---------------------------------------------------------------------------

def _ei_series(x: float) -> float:
    total = EULER_GAMMA + math.log(abs(x))
    term = 1.0
    for k in range(1, 400):
        term *= x / k
        total += term / k
        if abs(term / k) <= _SERIES_EPS * max(abs(total), 1e-30):
            return total
    raise ArithmeticError("Ei series did not converge")


def _ei_asymptotic(x: float) -> float:
    # e^x/x * sum_k k!/x^k, truncated at the smallest term
    total = 1.0
    term = 1.0
    for k in range(1, int(abs(x)) + 1):
        nxt = term * k / x
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return math.exp(x) / x * total


def ei(x: float) -> float:
    """Exponential integral Ei(x) (principal value), x real, x != 0."""
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        raise DomainError(f"Ei requires finite nonzero x, got {x!r}")
    if 0.0 < x <= 40.0 or -4.0 <= x < 0.0:
        return _ei_series(x)
    if x > 40.0:
        return _ei_asymptotic(x)
    # x < -4: Ei(x) = -E_1(-x), argument is on the positive real axis
    return -exp_integral_en(1, complex(-x)).real


def li(x: float) -> float:
    """Logarithmic integral li(x) = Ei(ln x), x > 0, x != 1."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"li requires x > 0, got {x}")
    if x == 1.0:
        raise DomainError("li is singular at x = 1")
    return ei(math.log(x))


# ---------------------------------------------------------------------------
# Si, Ci
# ---------------------------------------------------------------------------

def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt (odd in x)."""
    x = float(x)
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -si(-x)
    if x <= 4.0:
        total = 0.0
        term = x  # x^(2k+1)/(2k+1)!
        k = 0
        while True:
            total += term / (2 * k + 1)
            k += 1
            term *= -x * x / ((2 * k) * (2 * k + 1))
            if abs(term) <= _SERIES_EPS * max(abs(total), 1e-30):
                return total
    return math.pi / 2 + e1_complex(complex(0.0, x)).imag


def ci(x: float) -> float:
    """Cosine integral Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt, x > 0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"Ci requires x > 0, got {x}")
    if x <= 4.0:
        total = EULER_GAMMA + math.log(x)
        term = 1.0  # x^(2k)/(2k)!
        for k in range(1, 120):
            term *= -x * x / ((2 * k - 1) * (2 * k))
            total += term / (2 * k)
            if abs(term / (2 * k)) <= _SERIES_EPS * max(abs(total), 1e-30):
                return total
        raise ArithmeticError("Ci series did not converge")
    return -e1_complex(complex(0.0, x)).real


# ---------------------------------------------------------------------------
# Incomplete gamma (integer first argument)
# ---------------------------------------------------------------------------

def upper_incomplete_gamma(s: int, z: complex) -> complex:
    """Upper incomplete gamma Gamma(s, z) for integer s >= 1 and complex z.

    Uses the exact finite sum Gamma(s, z) = (s-1)! e^{-z} sum_{k=0}^{s-1} z^k/k!.
    A non-finite z is a DomainError.
    """
    s = check_integer(s, "first argument", 1)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"Gamma({s}, z) needs a finite argument, got z={z}")
    total = complex(1.0)
    term = complex(1.0)
    for k in range(1, s):
        term *= z / k
        total += term
    val = math.factorial(s - 1) * cmath.exp(-z) * total
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise OverflowError(f"Gamma({s}, {z}) exceeds double-precision range")
    return val


def _lower_gamma_int(s: int, z: complex) -> complex:
    """Lower incomplete gamma for integer s >= 1, stable near z = 0.

    Tail series gamma(s,z) = (s-1)! e^{-z} sum_{k>=s} z^k/k! for small |z|,
    complement (s-1)! - Gamma(s,z) otherwise.
    """
    z = complex(z)
    if abs(z) <= 8.0:
        term = complex(1.0)
        for k in range(1, s + 1):
            term *= z / k  # ends as z^s/s!
        total = term
        k = s
        while True:
            k += 1
            term *= z / k
            total += term
            if abs(term) <= _SERIES_EPS * max(abs(total), 1e-300) or k > 200:
                break
        return math.factorial(s - 1) * cmath.exp(-z) * total
    return math.factorial(s - 1) - upper_incomplete_gamma(s, z)


# ---------------------------------------------------------------------------
# Antiderivative of x^n e^{cx}
# ---------------------------------------------------------------------------

def _pv_negative_power_antiderivative(n: int, c: float, x: float) -> float:
    """Real principal value of int x^n e^{cx} dx for n <= -1 and c x > 0.

    Base case int e^{cx}/x dx = Ei(cx); lower powers by integration by parts
    downward: G(p) = (x^{p+1} e^{cx} - c G(p+1)) / (p+1).
    """
    g = ei(c * x)
    if n == -1:
        return g
    ecx = math.exp(c * x)
    for p in range(-2, n - 1, -1):
        g = (x ** (p + 1) * ecx - c * g) / (p + 1)
    return g


def z_antiderivative(n: int, c: complex, x: float, principal_value: bool = True) -> complex:
    """Antiderivative F(x) of x^n e^{cx} for integer n and complex scale c.

    For n >= 0 the value is e^{cx} times a degree-n polynomial (the recursion
    F_n = x^n e^{cx}/c - (n/c) F_{n-1} in closed form,
    F = -(-c)^{-n-1} Gamma(n+1, -cx)), so F_1(x) = (x-1)e^x at c = 1.
    For n <= -1 it reduces to -x^{n+1} E_{-n}(-cx); when c x lands on the
    positive real axis that argument sits on the E_n branch cut and the real
    principal value (Ei-based) is returned unless principal_value=False.
    c = 0 degenerates to the pure power x^{n+1}/(n+1), or log x at n = -1.
    """
    n = check_integer(n, "power")
    x = check_positive(x)
    c = complex(c)
    if c == 0:
        if n == -1:
            return complex(math.log(x))
        return complex(x ** (n + 1) / (n + 1))
    if n >= 0:
        return -((-c) ** (-n - 1)) * upper_incomplete_gamma(n + 1, -c * x)
    z = -c * x
    if z.imag == 0.0 and z.real < 0.0:
        if not principal_value:
            raise BranchCutError(
                f"antiderivative of x^{n} e^({c})x at x={x} lies on the E_n branch cut"
            )
        return complex(_pv_negative_power_antiderivative(n, c.real, x))
    return -(x ** (n + 1)) * exp_integral_en(-n, z)
