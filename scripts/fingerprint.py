"""Print a bit-level fingerprint of tribessel's values, one line per entry point.

Each line holds an entry point's name, the number of calls made on a fixed,
seeded population, and the sha256 of what those calls returned: the hex of
every float, or the type and message of the exception a call raised. Two
trees that print the same line for an entry point compute the same bits
there. tribessel is imported from PYTHONPATH, so the same script runs
against any checkout:

    PYTHONPATH=src python scripts/fingerprint.py

It takes a few seconds. The populations are fixed here; change one only
together with the checkouts it is compared across.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random

import tribessel as tb

FREQ_LO, FREQ_HI = 0.3, 3.0
# gamma = 0 sums, exact and rounded (0.3 + 0.6 - 0.9 is -1.1e-16)
DEGENERATE = ((1.25, 0.5, 1.75), (0.1, 0.2, 0.3), (0.3, 0.6, 0.9))


def _hex(v) -> str:
    if isinstance(v, tb.EvalResult):
        return f"{_hex(v.value)} {v.method} {_hex(v.err_estimate)} {v.converged}"
    if isinstance(v, complex):
        return f"{v.real.hex()},{v.imag.hex()}"
    return float(v).hex()


def _digest(calls) -> tuple:
    """(count, sha256) over one line per call: its value or its exception."""
    sha = hashlib.sha256()
    count = 0
    for fn, *args in calls:
        try:
            line = _hex(fn(*args))
        except Exception as exc:  # a raise is part of the fingerprint
            line = f"{type(exc).__name__}: {exc}"
        sha.update(line.encode() + b"\n")
        count += 1
    return count, sha.hexdigest()


def _freqs(rng) -> tuple:
    if rng.random() < 0.2:
        return rng.choice(DEGENERATE)
    return tuple(rng.uniform(FREQ_LO, FREQ_HI) for _ in range(3))


def _spec(rng, n, m, max_order=8, m_imaginary=False):
    a, b, u = _freqs(rng)
    h, k, l = (rng.randint(0, max_order) for _ in range(3))
    return tb.IntegralSpec(n=n, m=m, h=h, k=k, l=l, alpha=a, beta=b, mu=u,
                           m_imaginary=m_imaginary)


def eval_definite():
    rng = random.Random(1)
    offsets = (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 0.25, -0.25, 0.5)
    for i in range(3000):
        if i % 5 == 4:
            n = rng.uniform(-1.0, -0.75)
        else:
            n = rng.randint(0, 4) + rng.choice(offsets)
        imaginary = i % 97 == 0
        m = 0.0 if imaginary else rng.choice((0.0, 0.5, 1.0, 2.0))
        yield tb.eval_definite, _spec(rng, n, m, m_imaginary=imaginary)


def _x(rng) -> float:
    return math.exp(rng.uniform(math.log(0.05), math.log(20.0)))


def eval_indefinite():
    rng = random.Random(2)
    for i in range(400):
        n = rng.randint(-2, 3) + rng.choice((0.0, 0.0, 0.0, 1e-13, 0.5))
        imaginary = i % 5 == 0
        m = 0.0 if imaginary else rng.choice((0.0, 0.5, 1.0, 2.0))
        yield (tb.eval_indefinite,
               _spec(rng, n, m, max_order=6, m_imaginary=imaginary), _x(rng))


def antiderivative_base():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.choice((0.0, 0.5, 1.0, 2.0))
        spec = _spec(rng, rng.randint(-2, 3), m, max_order=4)
        x = _x(rng)
        for term in tb.reduce_orders(spec):
            yield tb.antiderivative_base, term, m, x
    for p in (0.5, -1.25):
        yield tb.antiderivative_base, tb.BaseTerm(1 + 0j, p, "sin", 1.3), 1.0, 2.0
    yield tb.antiderivative_base, tb.BaseTerm(1 + 0j, 2.0, "cos", 0.7), 0.0, 1.5, True


def special_case_000():
    rng = random.Random(4)
    for n in range(-1, 6):
        for m, imaginary in ((0.0, False), (0.5, False), (2.0, False),
                             (0.0, True)):
            for _ in range(6):
                yield (tb.special_case_000, n, m, *_freqs(rng), _x(rng),
                       imaginary)


def z_antiderivative():
    rng = random.Random(5)
    scales = (1.0, -1.5, 0.3 + 2.0j, 2.0j, -0.7 - 0.2j, 0.0, 3.0,
              -1e308 + 1.0j)
    for n in range(-5, 6):
        for c in scales:
            for x in (_x(rng), _x(rng), 1e308):
                yield tb.z_antiderivative, n, c, x
                yield tb.z_antiderivative, n, c, x, False


def exp_integral_en():
    rng = random.Random(6)
    for n in range(9):
        for _ in range(60):
            r = math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
            yield tb.exp_integral_en, n, r * cmath.exp(1j * rng.uniform(-3.1, 3.1))
        for z in (0.0, -2.0, 1.0, 1e-3j, 50.0 - 1e-9j, -40.0 + 1e-3j):
            yield tb.exp_integral_en, n, z


def _bessel(fn, seed):
    rng = random.Random(seed)
    for l in range(31):
        for _ in range(25):
            yield fn, l, math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))


def sph_bessel_j():
    return _bessel(tb.sph_bessel_j, 7)


def sph_bessel_n():
    return _bessel(tb.sph_bessel_n, 8)


def quad_finite():
    rng = random.Random(9)
    for _ in range(30):
        spec = _spec(rng, rng.randint(0, 2), rng.choice((0.0, 0.5, 1.0)),
                     max_order=3)
        a = _x(rng)
        yield tb.quad_finite, tb.integrand(spec), a, a + rng.uniform(0.1, 5.0)


def quad_semi_infinite():
    rng = random.Random(10)
    for _ in range(8):
        spec = _spec(rng, rng.choice((0.0, 1.0)), rng.choice((0.5, 1.0, 2.0)),
                     max_order=2)
        yield tb.quad_semi_infinite, spec
    # undamped: both tail policies, at a tolerance the exponential bound
    # reaches within a few hundred periods
    for _ in range(6):
        spec = _spec(rng, rng.choice((0.0, 0.5)), 0.0, max_order=1)
        for policy in ("period_summation", "exponential_bound"):
            config = tb.QuadConfig(abs_tol=1e-6, rel_tol=1e-6,
                                   tail_policy=policy)
            yield tb.quad_semi_infinite, spec, config


ENTRY_POINTS = (eval_definite, eval_indefinite, antiderivative_base,
                special_case_000, z_antiderivative, exp_integral_en,
                sph_bessel_j, sph_bessel_n, quad_finite, quad_semi_infinite)


def main() -> None:
    for population in ENTRY_POINTS:
        count, digest = _digest(population())
        print(f"{population.__name__} {count} {digest}")


if __name__ == "__main__":
    main()
