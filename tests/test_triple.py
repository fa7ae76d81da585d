import cmath
import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from tribessel.errors import (
    DivergenceError,
    DomainError,
    SingularCombinationError,
    UnsupportedPowerError,
    check_integer_power,
    check_positive,
)
from tribessel.expint import _harmonic
from tribessel.oracle import QuadConfig, quad_finite, quad_semi_infinite
from tribessel.sphfun import sph_bessel_j
from tribessel.triple import (
    _QUARTER,
    _SHAPE_CACHE_SIZE,
    _cexpm1,
    _j_symbols,
    _reduce_shape,
    BaseTerm,
    IntegralSpec,
    antiderivative_base,
    eval_definite,
    eval_indefinite,
    integrand,
    reduce_orders,
    special_case_000,
    trig_decompose,
)

THREE_PI_8 = 1.1780972450961725
TIGHT = QuadConfig(abs_tol=1e-12, rel_tol=1e-12)


def spec(n, m, h=0, k=0, l=0, a=1.0, b=1.0, u=1.0, m_imaginary=False):
    return IntegralSpec(n=n, m=m, h=h, k=k, l=l, alpha=a, beta=b, mu=u,
                        m_imaginary=m_imaginary)


def deriv5(f, x, h=1e-3):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def random_specs(count, seed, max_order=4, n_lo=-2, n_hi=5,
                 m_choices=(0.0, 0.5, 2.0)):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        out.append(spec(
            n=int(rng.integers(n_lo, n_hi + 1)),
            m=float(rng.choice(m_choices)),
            h=int(rng.integers(0, max_order + 1)),
            k=int(rng.integers(0, max_order + 1)),
            l=int(rng.integers(0, max_order + 1)),
            a=float(rng.uniform(0.3, 3.0)),
            b=float(rng.uniform(0.3, 3.0)),
            u=float(rng.uniform(0.3, 3.0))))
    return out


# --- spec validation ----------------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(DomainError, match="nonzero"):
        spec(0, 1, a=0.0)
    with pytest.raises(DomainError):
        spec(0, 1, h=-1)
    with pytest.raises(DomainError):
        spec(0, 1, h=1.5)
    with pytest.raises(DomainError):
        spec(0, -1.0)
    with pytest.raises(DomainError):
        spec(0, 1.0, m_imaginary=True)  # flag requires m = 0
    with pytest.raises(DomainError):
        spec(math.inf, 1)


# --- product-to-sum -------------------------------------------------------------

def test_trig_decompose_sin_cubed_point():
    terms = trig_decompose(1.0, 1.0, 1.0, ("sin", "sin", "sin"))
    assert len(terms) == 4
    x = math.pi / 2
    total = sum(w * (math.sin if kind == "sin" else math.cos)(g * x)
                for w, kind, g in terms)
    assert math.isclose(total, 1.0, rel_tol=1e-15)


def test_trig_decompose_degenerate_frequency_retained():
    # a + b - c = 0 keeps its term; sin(0 x) contributes nothing
    terms = trig_decompose(1.0, 1.0, 2.0, ("sin", "sin", "sin"))
    assert len(terms) == 4
    assert any(g == 0.0 for _, _, g in terms)
    total = sum(w * (math.sin if kind == "sin" else math.cos)(g * 0.83)
                for w, kind, g in terms)
    want = math.sin(0.83) * math.sin(0.83) * math.sin(2 * 0.83)
    assert math.isclose(total, want, rel_tol=1e-13)


@pytest.mark.parametrize("kinds", [
    ("sin", "sin", "sin"), ("sin", "sin", "cos"),
    ("sin", "cos", "cos"), ("cos", "cos", "cos"),
    ("cos", "sin", "cos"), ("sin", "cos", "sin"),
    ("cos", "cos", "sin"), ("cos", "sin", "sin"),
])
def test_trig_decompose_pointwise_identity(kinds):
    rng = np.random.default_rng(11)
    fn = {"sin": math.sin, "cos": math.cos}
    for _ in range(25):
        a, b, c = rng.uniform(0.2, 3.0, size=3)
        x = rng.uniform(-5.0, 5.0)
        want = fn[kinds[0]](a * x) * fn[kinds[1]](b * x) * fn[kinds[2]](c * x)
        got = sum(w * fn[kind](g * x)
                  for w, kind, g in trig_decompose(a, b, c, kinds))
        assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("kinds", [
    ("sin", "sin"), ("sin", "cos", "cos", "sin"), ("sin", "tan", "cos"),
])
def test_trig_decompose_rejects_bad_kinds(kinds):
    with pytest.raises(DomainError, match="kinds"):
        trig_decompose(1.2, 0.8, 2.0, kinds)


# --- order reduction -------------------------------------------------------------

def test_reduce_orders_term_counts():
    assert len(reduce_orders(spec(0, 1, a=1.1, b=0.7, u=2.0))) == 4
    assert len(reduce_orders(spec(0, 1, h=1, a=1.1, b=0.7, u=2.0))) == 8


def test_reduce_orders_power_window():
    s = spec(1, 0.5, h=2, k=1, l=3, a=1.2, b=0.9, u=0.4)
    terms = reduce_orders(s)
    lo, hi = s.n - 3 - (s.h + s.k + s.l), s.n - 3
    assert all(lo <= t.p <= hi for t in terms)
    assert all(t.gamma >= 0.0 for t in terms)


def test_reduce_orders_reconstruction_210():
    s = spec(0, 1, h=2, k=1, l=0, a=1.0, b=1.0, u=1.0)
    terms = reduce_orders(s)
    for x in (0.3, 1.0, 4.0):
        got = sum(t.coeff * x**t.p
                  * (math.sin if t.kind == "sin" else math.cos)(t.gamma * x)
                  for t in terms)
        want = (x**s.n * sph_bessel_j(2, x) * sph_bessel_j(1, x)
                * sph_bessel_j(0, x))
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_reduce_orders_reconstruction_randomized():
    for s in random_specs(12, seed=3):
        terms = reduce_orders(s)
        for x in (0.4, 1.3, 3.7):
            got = sum(t.coeff * x**t.p
                      * (math.sin if t.kind == "sin" else math.cos)(t.gamma * x)
                      for t in terms)
            want = (x**s.n * sph_bessel_j(s.h, s.alpha * x)
                    * sph_bessel_j(s.k, s.beta * x)
                    * sph_bessel_j(s.l, s.mu * x))
            # conditioning-aware: reduction coefficients can exceed the result
            cond = sum(abs(t.coeff) * x**t.p for t in terms)
            assert abs(got - want) <= 1e-13 * (1.0 + cond)


def _shape_of(terms):
    return [(t.coeff, t.kind, t.gamma) for t in terms]


@pytest.mark.parametrize("n0, n1", [(0, 3), (-2, 0.5), (2.5, -1)])
def test_reduce_orders_n_only_shifts_powers(n0, n1):
    terms0 = reduce_orders(spec(n0, 1, h=2, k=1, l=3, a=1.2, b=0.9, u=0.4))
    terms1 = reduce_orders(spec(n1, 1, h=2, k=1, l=3, a=1.2, b=0.9, u=0.4))
    assert _shape_of(terms1) == _shape_of(terms0)
    assert [t1.p - t0.p for t0, t1 in zip(terms0, terms1)] == \
        [n1 - n0] * len(terms0)


def test_reduce_orders_numpy_scalars_match_plain_types():
    plain = spec(1, 0.5, h=2, k=1, l=3, a=1.2, b=0.9, u=0.4)
    typed = spec(np.float64(1), np.float64(0.5), h=np.int64(2), k=np.int64(1),
                 l=np.int64(3), a=np.float64(1.2), b=np.float64(0.9),
                 u=np.float64(0.4))
    _reduce_shape.cache_clear()
    from_typed = reduce_orders(typed)
    _reduce_shape.cache_clear()
    from_plain = reduce_orders(plain)
    assert from_typed == from_plain
    assert all(type(t.p) is float and type(t.gamma) is float
               for t in from_typed)
    reduce_orders(typed)
    assert _reduce_shape.cache_info().currsize == 1  # one key for both


def test_reduce_orders_returns_a_fresh_list():
    s = spec(0, 1, h=1, k=2, l=0, a=1.1, b=0.7, u=2.0)
    first = reduce_orders(s)
    want = list(first)
    first.clear()
    assert reduce_orders(s) == want


def test_reduce_orders_after_eviction_matches_first_reduction():
    specs = [spec(0, 1, h=h, k=1, l=2, a=1.2, b=0.8, u=2.0)
             for h in range(_SHAPE_CACHE_SIZE + 1)]
    _reduce_shape.cache_clear()
    first = [reduce_orders(s) for s in specs]
    again = reduce_orders(specs[0])
    assert _reduce_shape.cache_info().misses == len(specs) + 1  # evicted
    assert again == first[0]


def _reduce_shape_reference(h, k, l, alpha, beta, mu):
    """_reduce_shape as one trig_decompose call per symbol triple, with the
    sign flip and -0.0 fix applied to every term (the reference for the
    per-pattern table)."""
    sym_a = _j_symbols(h, alpha)
    sym_b = _j_symbols(k, beta)
    sym_c = _j_symbols(l, mu)
    acc: dict = {}
    for (qa, ka), ca in sym_a.items():
        for (qb, kb), cb in sym_b.items():
            for (qc, kc), cc in sym_c.items():
                cprod = ca * cb * cc
                d = qa + qb + qc
                for w, kd, g in trig_decompose(alpha, beta, mu,
                                               kinds=(ka, kb, kc)):
                    coeff = cprod * w
                    if g < 0.0:
                        g = -g
                        if kd == "sin":
                            coeff = -coeff
                    elif g == 0.0:
                        g = 0.0
                    key = (d, kd, g)
                    acc[key] = acc.get(key, 0.0) + coeff
    return tuple((d, kd, g, complex(c))
                 for (d, kd, g), c in sorted(acc.items()) if c != 0.0)


def _with_signs(shape):
    """The reduction with the sign bit of every float, so -0.0 != 0.0."""
    return [(d, kd, g, math.copysign(1.0, g), c, math.copysign(1.0, c.real),
             math.copysign(1.0, c.imag)) for d, kd, g, c in shape]


def _hoist_shapes():
    rng = np.random.default_rng(5150)
    shapes = [(*(int(o) for o in rng.integers(0, 9, size=3)),
               *(float(v) for v in rng.uniform(0.3, 3.0, size=3)))
              for _ in range(160)]
    # gamma = 0 (alpha + beta = mu, exact and rounded), all frequencies
    # equal, and repeated |gamma| with opposite signs (alpha = beta; 2, 1, 1)
    for freqs in ((1.25, 0.5, 1.75), (0.1, 0.2, 0.3), (0.7, 0.7, 0.7),
                  (1.1, 1.1, 0.4), (2.0, 1.0, 1.0)):
        shapes += [(*(int(o) for o in rng.integers(0, 9, size=3)), *freqs)
                   for _ in range(8)]
    # orders 9-16 with frequencies spread over 1e-2...1e2
    shapes += [(*(int(o) for o in rng.integers(9, 17, size=3)),
                *(float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, size=3)))
               for _ in range(24)]
    # gamma = 0 sums of frequencies far apart (exact and rounded), and
    # 0.3 + 0.6 - 0.9, which rounds to -1.1e-16 instead of 0
    for freqs in ((0.015625, 64.0, 64.015625), (0.01, 100.0, 100.01),
                  (50.0, 0.02, 50.02), (0.3, 0.6, 0.9)):
        shapes += [(*(int(o) for o in rng.integers(0, 17, size=3)), *freqs)
                   for _ in range(4)]
    return shapes


def test_reduce_shape_matches_per_triple_reference_bit_for_bit():
    shapes = _hoist_shapes()
    zero_gamma = 0
    for shape in shapes:
        got = _reduce_shape.__wrapped__(*shape)
        want = _reduce_shape_reference(*shape)
        assert got == want, shape
        assert _with_signs(got) == _with_signs(want), shape
        zero_gamma += any(g == 0.0 for _, _, g, _ in got)
    assert len(shapes) == 240
    assert zero_gamma >= 16  # the degenerate shapes reach gamma = 0


# --- base antiderivatives ---------------------------------------------------------

def test_base_antiderivative_elementary():
    # antiderivatives are pinned to F(0) = 0 term conventions, so compare
    # differences against the elementary -cos(g x)/g form
    t = BaseTerm(coeff=1.0 + 0j, p=0.0, kind="sin", gamma=1.7)
    got = antiderivative_base(t, 0.0, 2.0) - antiderivative_base(t, 0.0, 0.5)
    want = (-math.cos(1.7 * 2.0) + math.cos(1.7 * 0.5)) / 1.7
    assert abs(got - want) < 1e-14
    assert abs(antiderivative_base(t, 0.0, 1e-12)) < 1e-11  # F(0+) -> 0


def test_base_antiderivative_si_form():
    from tribessel.expint import si
    t = BaseTerm(coeff=1.0 + 0j, p=-1.0, kind="sin", gamma=1.5)
    got = antiderivative_base(t, 0.0, 2.0) - antiderivative_base(t, 0.0, 0.5)
    assert abs(got - (si(1.5 * 2.0) - si(1.5 * 0.5))) < 1e-12
    d = deriv5(lambda x: antiderivative_base(t, 0.0, x).real, 2.0, 1e-4)
    assert abs(d - math.sin(1.5 * 2.0) / 2.0) < 1e-8


def test_base_antiderivative_damped_derivative():
    t = BaseTerm(coeff=1.0 + 0j, p=2.0, kind="cos", gamma=2.0)
    d = deriv5(lambda x: antiderivative_base(t, 1.0, x).real, 1.0, 1e-4)
    assert abs(d - math.exp(-1.0) * math.cos(2.0)) < 1e-8


def test_base_antiderivative_degenerate_frequency():
    # gamma = 0 falls back to pure powers: cos -> x^p, sin -> 0
    t = BaseTerm(coeff=1.0 + 0j, p=-1.0, kind="cos", gamma=0.0)
    assert abs(antiderivative_base(t, 0.0, 2.0) - math.log(2.0)) < 1e-14
    t = BaseTerm(coeff=1.0 + 0j, p=-1.0, kind="sin", gamma=0.0)
    assert antiderivative_base(t, 0.0, 2.0) == 0.0


def test_base_antiderivative_reality():
    for p, m, g in ((3.0, 0.7, 1.2), (-2.0, 1.5, 0.9), (0.0, 0.0, 2.2)):
        for kind in ("sin", "cos"):
            t = BaseTerm(coeff=1.0 + 0j, p=p, kind=kind, gamma=g)
            v = antiderivative_base(t, m, 1.9)
            assert abs(v.imag) <= 1e-12 * (1.0 + abs(v.real))


# --- indefinite assembly -----------------------------------------------------------

def test_indefinite_interval_matches_quadrature():
    s = spec(3, 1)
    closed = (eval_indefinite(s, 2.0).value - eval_indefinite(s, 1.0).value).real
    oracle = quad_finite(integrand(s), 1.0, 2.0, TIGHT).value.real
    assert abs(closed - oracle) <= 1e-8


def test_indefinite_derivative_is_integrand():
    s = spec(0, 0.0, a=2.0)
    d = deriv5(lambda x: eval_indefinite(s, x).value.real, 1.3)
    want = sph_bessel_j(0, 2.6) * sph_bessel_j(0, 1.3) ** 2
    assert abs(d - want) <= 1e-8


def test_indefinite_higher_orders_vs_quadrature():
    s = spec(5, 2, h=1, k=1, l=0, a=1.1, b=0.9, u=2.0)
    closed = (eval_indefinite(s, 3.0).value - eval_indefinite(s, 0.5).value).real
    oracle = quad_finite(integrand(s), 0.5, 3.0, TIGHT).value.real
    assert abs(closed - oracle) <= 1e-7


def test_indefinite_requires_integer_power():
    with pytest.raises(DomainError, match="integer"):
        eval_indefinite(spec(0.5, 1), 2.0)


def test_indefinite_overflowing_argument_is_an_overflow():
    # every argument is valid; (m - i gamma) x overflows in the term kernels
    s = spec(0, 1e308)
    with pytest.raises(OverflowError):
        eval_indefinite(s, 1e308)
    with pytest.raises(OverflowError):
        eval_indefinite(dataclasses.replace(s, n=4), 1e308)


def test_indefinite_huge_power_returns_at_once():
    # n + 1 = 1e17: the lower-gamma series needs no n!, so it returns at
    # once. At x = 0.5 the value, about 10^(-3e16), underflows to 0; where
    # x^(n+1) overflows, that overflow raises.
    s = spec(1e17, 1.0, a=1.2, b=0.8, u=2.0)
    start = time.perf_counter()
    assert eval_indefinite(s, 0.5).value == 0
    with pytest.raises(OverflowError):
        eval_indefinite(s, 2.0)
    assert time.perf_counter() - start < 1.0


# Frozen references from scripts/gen_reference_values.py (mpmath, dps=40):
# (h, k, l, n, m, alpha, beta, mu, x_lo, x_hi, F(x_hi) - F(x_lo), the
# reference's own relative error estimate), by quadrature with mpmath's
# Bessel functions, so neither closed form nor the oracle enters.
LARGE_POWER_REFS = [
    (0, 0, 0, 45, 1.0, 1.0, 1.0, 1.0, 6.0, 6.5,
     6.3613926394053246e+27, 1.7e-44),
    (0, 0, 0, 30, 1.0, 1.0, 1.0, 1.0, 6.0, 6.5,
     1460019803343050.0, 7.5e-71),
    (1, 1, 1, 60, 1.0, 1.2, 0.8, 2.0, 6.2, 6.4,
     -5.174025764689156e+40, 1.9e-45),
    (2, 3, 1, 40, 0.5, 1.2, 0.8, 2.0, 3.0, 5.0,
     -2.3702520117913415e+22, 4.2e-45),
    (8, 8, 8, 30, 1.0, 1.2, 0.8, 2.0, 4.0, 9.0,
     3.2577020436642277e+20, 3.4e-68),
]


@pytest.mark.parametrize("case", LARGE_POWER_REFS,
                         ids=lambda c: f"{c[0]}{c[1]}{c[2]}-n{c[3]}")
def test_indefinite_interval_at_large_power(case):
    h, k, l, n, m, a, b, u, x_lo, x_hi, want, want_err = case
    s = spec(n, m, h, k, l, a, b, u)
    hi, lo = eval_indefinite(s, x_hi), eval_indefinite(s, x_lo)
    miss = abs(hi.value - lo.value - want)
    assert miss <= 1e-12 * abs(want)
    assert miss <= hi.err_estimate + lo.err_estimate + want_err * abs(want)
    if h == k == l == 0:
        direct = special_case_000(n, m, a, b, u, x_hi) - special_case_000(n, m, a, b, u, x_lo)
        assert abs(direct - want) <= 1e-12 * abs(want)


# inputs whose terms overflow double precision: the reduction's 1/(abg) is
# 1e360 at frequencies of 1e-120, and Gamma(p+1) w^-(p+1) at n = 170.5
TINY_FREQS = dict(h=0, k=0, l=0, a=1e-120, b=1e-120, u=1e-120)


@pytest.mark.parametrize("evaluate,s", [
    (eval_definite, spec(0.5, 1, **TINY_FREQS)),          # NaN
    (lambda s: eval_indefinite(s, 1.0), spec(1, 1, **TINY_FREQS)),  # NaN
    (eval_definite, spec(170.5, 0.5, a=1.0, b=1.2, u=0.7)),  # inf
], ids=["definite_nan", "indefinite_nan", "definite_inf"])
def test_non_finite_closed_form_is_an_overflow(evaluate, s):
    with pytest.raises(OverflowError, match="closed-form terms overflow"):
        evaluate(s)


def test_indefinite_reality():
    for s in random_specs(8, seed=5):
        v = eval_indefinite(s, 2.1).value
        assert abs(v.imag) <= 1e-11 * (1.0 + abs(v.real))


def test_indefinite_antiderivative_property_sample():
    # small randomized version of the master check (full run in acceptance)
    rng = np.random.default_rng(9)
    for s in random_specs(10, seed=9):
        f = integrand(s)
        for x in rng.uniform(0.4, 4.5, size=3):
            d = deriv5(lambda t: eval_indefinite(s, t).value.real, x)
            want = float(f(np.array([x]))[0].real)
            assert abs(d - want) <= 1e-6 * (1.0 + abs(want))


# --- the independent h=k=l=0 path ---------------------------------------------------

# (n, m, x) where eval_indefinite's bar, 5e-15 of sum |term|, is tighter than
# its error there (1.1e-13 and 4.1e-14 of the value against mpmath, bars of
# 4.3e-14 and 7.9e-15). The kernels are within 2e-15 at these points; the
# rest comes from the reduction (ROADMAP item 2).
INDEFINITE_BAR_MISSES = {(45, 0.5, 12.0), (60, 0.5, 12.0)}


@pytest.mark.parametrize("n", [30, 45, 60])
def test_special_case_matches_general_path_at_large_power(n):
    # both paths take every p >= 0 term from the one lower-gamma kernel;
    # special_case_000 gives no bar, so each path is allowed eval_indefinite's
    for m, a, b, u in ((1.0, 1.0, 1.0, 1.0), (0.5, 1.2, 0.8, 2.0), (2.0, 0.7, 1.3, 1.1)):
        for x in (0.5, 3.0, 6.5, 12.0):
            r = eval_indefinite(spec(n, m, a=a, b=b, u=u), x)
            miss = abs(special_case_000(n, m, a, b, u, x) - r.value)
            assert miss <= 1e-12 * abs(r.value)
            if (n, m, x) not in INDEFINITE_BAR_MISSES:
                assert miss <= 2 * r.err_estimate


def test_special_case_matches_general_path_undamped():
    a = special_case_000(3, 0.0, 1.0, 1.0, 1.0, 2.0)
    b = eval_indefinite(spec(3, 0.0), 2.0).value
    assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


def test_special_case_matches_general_path_imaginary_weight():
    a = special_case_000(2, 0.0, 1.1, 0.7, 2.0, 1.3, m_imaginary=True)
    b = eval_indefinite(spec(2, 0.0, a=1.1, b=0.7, u=2.0,
                             m_imaginary=True), 1.3).value
    assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


def test_special_case_derivative():
    d = deriv5(lambda x: special_case_000(0, 1.0, 1.0, 1.0, 1.0, x).real, 1.0,
               1e-4)
    want = math.exp(-1.0) * sph_bessel_j(0, 1.0) ** 3
    assert abs(d - want) <= 1e-8


def test_special_case_rejects_negative_power():
    with pytest.raises(UnsupportedPowerError):
        special_case_000(-1, 1.0, 1.0, 1.0, 1.0, 2.0)


@pytest.mark.parametrize("m", [math.nan, math.inf])
def test_special_case_rejects_non_finite_damping(m):
    with pytest.raises(DomainError, match="damping"):
        special_case_000(1, m, 1.2, 0.8, 2.0, 1.5)


# --- definite integral ----------------------------------------------------------------

def test_definite_sinc_cubed_benchmark():
    r = eval_definite(spec(0, 0.0))
    assert abs(r.value.real - THREE_PI_8) <= 1e-8
    oracle = quad_semi_infinite(spec(0, 0.0))
    assert abs(oracle.value.real - THREE_PI_8) <= 1e-9


def test_definite_damped_integer_vs_oracle():
    r = eval_definite(spec(2, 1.0))
    o = quad_semi_infinite(spec(2, 1.0), TIGHT)
    assert abs(r.value.real - o.value.real) <= 1e-8


def test_definite_noninteger_vs_oracle():
    s = spec(0.5, 1.0, a=1.3, b=0.7, u=2.1)
    r = eval_definite(s)
    o = quad_semi_infinite(s, TIGHT)
    assert abs(r.value.real - o.value.real) <= 1e-7


def test_overall_constant_locked_by_calibration():
    # one-time oracle calibration fixed the product-to-sum prefactor; any
    # drift in it scales the closed form by a visible factor
    assert _QUARTER == 0.25
    r = eval_definite(spec(0, 0.0)).value.real
    assert math.isclose(r, THREE_PI_8, rel_tol=1e-10)


def test_definite_permutation_symmetry():
    pairs = [(1, 1.1), (2, 0.6), (0, 1.9)]
    vals = []
    from itertools import permutations
    for perm in permutations(pairs):
        (h, a), (k, b), (l, u) = perm
        vals.append(eval_definite(spec(1, 0.5, h=h, k=k, l=l,
                                       a=a, b=b, u=u)).value.real)
    scale = max(abs(v) for v in vals)
    assert max(vals) - min(vals) <= 1e-12 * scale


def test_definite_reality():
    for s in random_specs(6, seed=13, max_order=2, n_lo=0, n_hi=3,
                          m_choices=(0.5, 2.0)):
        v = eval_definite(s).value
        assert abs(v.imag) <= 1e-11 * (1.0 + abs(v.real))


@pytest.mark.parametrize("s", [
    spec(0, 0.0),
    spec(1, 0.5, h=1, k=0, l=1, a=1.2, b=0.8, u=1.7),
    spec(2, 2.0, h=2, k=1, l=0, a=0.9, b=1.4, u=0.5),
    spec(3, 1.0, a=1.3, b=0.7, u=2.1),
])
def test_definite_integer_continuity(s):
    exact = eval_definite(s).value.real

    def offset_avg(eps):
        hi = eval_definite(spec(s.n + eps, s.m, h=s.h, k=s.k, l=s.l,
                                a=s.alpha, b=s.beta, u=s.mu)).value.real
        lo = eval_definite(spec(s.n - eps, s.m, h=s.h, k=s.k, l=s.l,
                                a=s.alpha, b=s.beta, u=s.mu)).value.real
        return 0.5 * (hi + lo)

    richardson = (4.0 * offset_avg(5e-5) - offset_avg(1e-4)) / 3.0
    assert abs(exact - richardson) <= 1e-6 * (1.0 + abs(exact))


# (shape, m, n, value) from scripts/gen_reference_values.py: n within 1e-11 to
# 1e-3 of 0, 1 and 2, where Gamma poles cancel, n just inside 0.25 of 1, and
# two genuine poles: n -> 2 at m = 0 where a zero frequency leaves a
# non-oscillating tail (shape c), and n -> -1 at h=k=l=0, with n from 0.2
# down to one ulp above -1 (the poles cancel there for shapes a, b and d)
NEAR_INTEGER_SHAPES = {
    "a": (2, 1, 3, 1.2, 0.8, 2.0),
    "b": (1, 3, 0, 0.7, 1.3, 1.1),
    "c": (0, 0, 1, 1.0, 1.0, 2.0),
    "zero": (0, 0, 0, 1.2, 0.8, 2.0),
    "d": (1, 0, 0, 1.2, 0.8, 2.0),
}
NEAR_INTEGER_REFS = [
    ("a", 0.5, -1e-11, 0.012629343281817231),
    ("a", 0.5, 1e-11, 0.012629343282003554),
    ("a", 0.5, -1e-09, 0.012629343272594245),
    ("a", 0.5, 1e-09, 0.01262934329122654),
    ("a", 0.5, -1e-07, 0.012629342350295689),
    ("a", 0.5, 1e-07, 0.012629344213525172),
    ("a", 0.5, 1e-05, 0.012629436443763405),
    ("a", 0.5, 0.001, 0.012638663219044629),
    ("a", 0.5, 0.99999999999, 0.027070684003329692),
    ("a", 0.5, 1.00000000001, 0.027070684003754275),
    ("a", 0.5, 0.999999999, 0.027070683982312836),
    ("a", 0.5, 1.000000001, 0.027070684024771133),
    ("a", 0.5, 0.9999999, 0.027070681880627241),
    ("a", 0.5, 1.0000001, 0.027070686126456905),
    ("a", 0.5, 1.00001, 0.027070896295908893),
    ("a", 0.5, 1.001, 0.027091921991553195),
    ("a", 0.5, 1.99999999999, 0.060287466055552214),
    ("a", 0.5, 2.00000000001, 0.060287466056534712),
    ("a", 0.5, 1.999999999, 0.060287466006918575),
    ("a", 0.5, 2.000000001, 0.060287466105168351),
    ("a", 0.5, 1.9999999, 0.060287461143555273),
    ("a", 0.5, 2.0000001, 0.060287470968532058),
    ("a", 0.5, 2.00001, 0.060287957306957486),
    ("a", 0.5, 2.001, 0.060336611691150262),
    ("a", 1.0, -1e-11, 0.0044321715257130047),
    ("a", 1.0, 1e-11, 0.004432171525773332),
    ("a", 1.0, -1e-09, 0.0044321715227268052),
    ("a", 1.0, 1e-09, 0.0044321715287595315),
    ("a", 1.0, -1e-07, 0.0044321712241068651),
    ("a", 1.0, 1e-07, 0.0044321718273794953),
    ("a", 1.0, 1e-05, 0.0044322016894932784),
    ("a", 1.0, 0.001, 0.0044351890752270698),
    ("a", 1.0, 0.99999999999, 0.0090450447001396076),
    ("a", 1.0, 1.00000000001, 0.0090450447002740181),
    ("a", 1.0, 0.999999999, 0.0090450446934862856),
    ("a", 1.0, 1.000000001, 0.0090450447069273409),
    ("a", 1.0, 0.9999999, 0.0090450440281540949),
    ("a", 1.0, 1.0000001, 0.0090450453722595863),
    ("a", 1.0, 1.00001, 0.0090451119057552293),
    ("a", 1.0, 1.001, 0.0090517679668878059),
    ("a", 1.0, 1.99999999999, 0.019476455213128082),
    ("a", 1.0, 2.00000000001, 0.019476455213435149),
    ("a", 1.0, 1.999999999, 0.019476455197928273),
    ("a", 1.0, 2.000000001, 0.019476455228634958),
    ("a", 1.0, 1.9999999, 0.019476453677947603),
    ("a", 1.0, 2.0000001, 0.019476456748615753),
    ("a", 1.0, 2.00001, 0.019476608747330838),
    ("a", 1.0, 2.001, 0.019491814971785298),
    ("a", 0.0, -1e-11, 0.03769911184278219),
    ("a", 0.0, 1e-11, 0.037699111843372846),
    ("a", 0.0, -1e-09, 0.037699111813544732),
    ("a", 0.0, 1e-09, 0.037699111872610304),
    ("a", 0.0, -1e-07, 0.03769910888979902),
    ("a", 0.0, 1e-07, 0.037699114796356265),
    ("a", 0.0, 1e-05, 0.037699407172182053),
    ("a", 0.0, 0.001, 0.037728657055880815),
    ("a", 0.0, 0.99999999999, 0.084436416078900952),
    ("a", 0.0, 1.00000000001, 0.084436416080305478),
    ("a", 0.0, 0.999999999, 0.084436416009376902),
    ("a", 0.0, 1.000000001, 0.084436416149829536),
    ("a", 0.0, 0.9999999, 0.084436409056971997),
    ("a", 0.0, 1.0000001, 0.084436423102235077),
    ("a", 0.0, 1.00001, 0.084437118345937093),
    ("a", 0.0, 1.001, 0.084506674205088636),
    ("a", 0.0, 1.99999999999, 0.20453077171607372),
    ("a", 0.0, 1.999999999, 0.20453077151690772),
    ("a", 0.0, 1.9999999, 0.20453075160031069),
    ("a", 0.0, 1.9, 0.18569252830561059),
    ("a", 0.0, 1.99, 0.20253265886632301),
    ("a", 1.0, 1.2499999999999998, 0.010909078098757243),
    ("a", 1.0, 1.2499999999999996, 0.010909078098757241),
    ("b", 0.5, -1e-11, 0.0043040924121149783),
    ("b", 0.5, 1e-11, 0.0043040924121026068),
    ("b", 0.5, -1e-09, 0.0043040924127273663),
    ("b", 0.5, 1e-09, 0.0043040924114902188),
    ("b", 0.5, -1e-07, 0.0043040924739661532),
    ("b", 0.5, 1e-07, 0.0043040923502513978),
    ("b", 0.5, 1e-05, 0.0043040862262001829),
    ("b", 0.5, 0.001, 0.0043034721288960192),
    ("b", 0.5, 0.99999999999, 0.00035907303579429873),
    ("b", 0.5, 1.00000000001, 0.00035907303560176418),
    ("b", 0.5, 0.999999999, 0.00035907304532475822),
    ("b", 0.5, 1.000000001, 0.0003590730260713036),
    ("b", 0.5, 0.9999999, 0.00035907399837064585),
    ("b", 0.5, 1.0000001, 0.00035907207302523583),
    ("b", 0.5, 1.00001, 0.00035897676752673006),
    ("b", 0.5, 1.001, 0.00034943729607765784),
    ("b", 0.5, 1.99999999999, -0.025036324371054629),
    ("b", 0.5, 2.00000000001, -0.025036324372070357),
    ("b", 0.5, 1.999999999, -0.025036324320776113),
    ("b", 0.5, 2.000000001, -0.025036324422348873),
    ("b", 0.5, 1.9999999, -0.025036319292925292),
    ("b", 0.5, 2.0000001, -0.025036329450200457),
    ("b", 0.5, 2.00001, -0.025036832239193451),
    ("b", 0.5, 2.001, -0.025087149489647405),
    ("b", 1.0, -1e-11, 0.0028140550623655744),
    ("b", 1.0, 1e-11, 0.0028140550623814175),
    ("b", 1.0, -1e-09, 0.002814055061581343),
    ("b", 1.0, 1e-09, 0.0028140550631656489),
    ("b", 1.0, -1e-07, 0.0028140549831581995),
    ("b", 1.0, 1e-07, 0.0028140551415887934),
    ("b", 1.0, 1e-05, 0.0028140629839086551),
    ("b", 1.0, 0.001, 0.0028148472698982716),
    ("b", 1.0, 0.99999999999, 0.0034991058151687389),
    ("b", 1.0, 1.00000000001, 0.0034991058151752136),
    ("b", 1.0, 0.999999999, 0.0034991058148482418),
    ("b", 1.0, 1.000000001, 0.0034991058154957108),
    ("b", 1.0, 0.9999999, 0.003499105782798521),
    ("b", 1.0, 1.0000001, 0.0034991058475454168),
    ("b", 1.0, 1.00001, 0.0034991090524426892),
    ("b", 1.0, 1.001, 0.0034994288083430149),
    ("b", 1.0, 1.99999999999, 0.0022346951292502602),
    ("b", 1.0, 2.00000000001, 0.0022346951291681108),
    ("b", 1.0, 1.999999999, 0.0022346951333166589),
    ("b", 1.0, 2.000000001, 0.002234695125101712),
    ("b", 1.0, 1.9999999, 0.0022346955399564514),
    ("b", 1.0, 2.0000001, 0.0022346947184618277),
    ("b", 1.0, 2.00001, 0.0022346540540139807),
    ("b", 1.0, 2.001, 0.0022305830136721592),
    ("b", 0.0, -1e-11, -0.0037321628900309682),
    ("b", 0.0, 1e-11, -0.0037321628904092985),
    ("b", 0.0, -1e-09, -0.0037321628713036201),
    ("b", 0.0, 1e-09, -0.0037321629091366467),
    ("b", 0.0, -1e-07, -0.0037321609985689577),
    ("b", 0.0, 1e-07, -0.003732164781871619),
    ("b", 0.0, 1e-05, -0.0037323520569030734),
    ("b", 0.0, 0.001, -0.0037510949094331329),
    ("b", 0.0, 0.99999999999, -0.048238939551646126),
    ("b", 0.0, 1.00000000001, -0.048238939553320385),
    ("b", 0.0, 0.999999999, -0.048238939468770296),
    ("b", 0.0, 1.000000001, -0.048238939636196224),
    ("b", 0.0, 0.9999999, -0.048238931181187663),
    ("b", 0.0, 1.0000001, -0.048238947923779998),
    ("b", 0.0, 1.00001, -0.048239776687806504),
    ("b", 0.0, 1.001, -0.048322709602003357),
    ("b", 0.0, 1.99999999999, -0.21814873934649597),
    ("b", 0.0, 1.999999999, -0.21814873905778393),
    ("b", 0.0, 1.9999999, -0.21814871018658416),
    ("b", 0.0, 1.9, -0.1905716174205997),
    ("b", 0.0, 1.99, -0.21524872476185113),
    ("b", 1.0, 1.2499999999999998, 0.003524291013499514),
    ("b", 1.0, 1.2499999999999996, 0.003524291013499514),
    ("c", 0.0, 1.8, 0.87373748230794875),
    ("c", 0.0, 1.99, 12.745601452056792),
    ("c", 0.0, 1.99999999999, 12499998965.990887),
    ("c", 0.0, 1.999999999, 124999989.90289323),
    ("c", 0.0, 1.9999999, 1250000.2447089209),
    ("zero", 1.0, -0.8, 4.1698809903739066),
    ("a", 0.5, -0.98, 0.0063169847059441972),
    ("a", 0.5, -0.999, 0.0062368605192603063),
    ("a", 0.5, -0.99999, 0.0062327184204748352),
    ("a", 0.5, -0.9999999, 0.0062326770158003662),
    ("a", 0.5, -0.9999999999999999, 0.0062326765975729793),
    ("a", 0.5, -0.9999999999999998, 0.0062326765975729798),
    ("a", 1.0, -0.98, 0.0023630393748217963),
    ("a", 1.0, -0.999, 0.0023363268731244246),
    ("a", 1.0, -0.99999, 0.0023349455199479538),
    ("a", 1.0, -0.9999999, 0.0023349317116450289),
    ("a", 1.0, -0.9999999999999999, 0.0023349315721677499),
    ("a", 1.0, -0.9999999999999998, 0.0023349315721677501),
    ("a", 0.0, -0.98, 0.017912569253885562),
    ("a", 0.0, -0.999, 0.017665082513947267),
    ("a", 0.0, -0.99999, 0.017652291837147829),
    ("a", 0.0, -0.9999999, 0.017652163982448918),
    ("a", 0.0, -0.9999999999999999, 0.017652162690992573),
    ("a", 0.0, -0.9999999999999998, 0.017652162690992574),
    ("b", 0.5, -0.98, 0.003987125027331933),
    ("b", 0.5, -0.999, 0.0039727216085335633),
    ("b", 0.5, -0.99999, 0.0039719694521504989),
    ("b", 0.5, -0.9999999, 0.0039719619297993228),
    ("b", 0.5, -0.9999999999999999, 0.0039719618538158984),
    ("b", 0.5, -0.9999999999999998, 0.0039719618538158985),
    ("b", 1.0, -0.98, 0.0021479644410987076),
    ("b", 1.0, -0.999, 0.0021379295114046657),
    ("b", 1.0, -0.99999, 0.0021374100471184991),
    ("b", 1.0, -0.9999999, 0.0021374048541825896),
    ("b", 1.0, -0.9999999999999999, 0.002137404801728864),
    ("b", 1.0, -0.9999999999999998, 0.0021374048017288641),
    ("b", 0.0, -0.98, 0.0050221273855613684),
    ("b", 0.0, -0.999, 0.0050734705307196858),
    ("b", 0.0, -0.99999, 0.0050760778577634259),
    ("b", 0.0, -0.9999999, 0.0050761038974397981),
    ("b", 0.0, -0.9999999999999999, 0.0050761041604634399),
    ("b", 0.0, -0.9999999999999998, 0.0050761041604634396),
    ("zero", 0.5, -0.98, 49.29522145645604),
    ("zero", 0.5, -0.999, 999.28290962772258),
    ("zero", 0.5, -0.99999, 99999.282257108958),
    ("zero", 0.5, -0.9999999, 9999999.2875136768),
    ("zero", 0.5, -0.9999999999999999, 9007199254740991.3),
    ("zero", 0.5, -0.9999999999999998, 4503599627370495.3),
    ("zero", 1.0, -0.98, 49.015629018522431),
    ("zero", 1.0, -0.999, 998.99614386547521),
    ("zero", 1.0, -0.99999, 99998.995108968933),
    ("zero", 1.0, -0.9999999, 9999999.0003617086),
    ("zero", 1.0, -0.9999999999999999, 9007199254740991.0),
    ("zero", 1.0, -0.9999999999999998, 4503599627370495.0),
    ("zero", 0.0, -0.98, 49.639717020835193),
    ("zero", 0.0, -0.999, 999.63535932357863),
    ("zero", 0.0, -0.99999, 99999.635130329122),
    ("zero", 0.0, -0.9999999, 9999999.6403911368),
    ("zero", 0.0, -0.9999999999999999, 9007199254740991.6),
    ("zero", 0.0, -0.9999999999999998, 4503599627370495.6),
    ("d", 0.5, -0.98, 0.25104426571410729),
    ("d", 0.5, -0.999, 0.25716815214076457),
    ("d", 0.5, -0.99999, 0.25749430075921778),
    ("d", 0.5, -0.9999999, 0.25749756585236033),
    ("d", 0.5, -0.9999999999999999, 0.25749759883346385),
    ("d", 0.5, -0.9999999999999998, 0.25749759883346381),
    ("d", 1.0, -0.98, 0.20637245702361522),
    ("d", 1.0, -0.999, 0.21189044113260259),
    ("d", 1.0, -0.99999, 0.21218468132547085),
    ("d", 1.0, -0.9999999, 0.21218762716333245),
    ("d", 1.0, -0.9999999999999999, 0.21218765691961787),
    ("d", 1.0, -0.9999999999999998, 0.21218765691961784),
    ("d", 0.0, -0.98, 0.30681576156282972),
    ("d", 0.0, -0.999, 0.31378500156176388),
    ("d", 0.0, -0.99999, 0.31415551895037579),
    ("d", 0.0, -0.9999999, 0.31415922789451584),
    ("d", 0.0, -0.9999999999999999, 0.31415926535897927),
    ("d", 0.0, -0.9999999999999998, 0.31415926535897923),
]


def test_definite_near_integer_power():
    for shape, m, n, want in NEAR_INTEGER_REFS:
        h, k, l, a, b, u = NEAR_INTEGER_SHAPES[shape]
        r = eval_definite(spec(n, m, h=h, k=k, l=l, a=a, b=b, u=u))
        assert r.method == "closed_form"
        assert abs(r.value.real - want) <= 1e-10 * abs(want), (shape, m, n)
        assert abs(r.value.real - want) <= r.err_estimate, (shape, m, n)


def test_definite_a_few_ulps_above_minus_one():
    # n + d rounds onto a Gamma pole for every power d <= -3, so each term
    # takes its r = 0 finite-part limit; at h=k=l=0 the genuine pole 1/(n+1)
    # is put back, elsewhere the poles cancel
    ulps = (math.nextafter(-1.0, 0.0), -0.9999999999999998)
    rows = [row for row in NEAR_INTEGER_REFS if row[2] in ulps]
    assert len(rows) == 24
    for shape, m, n, want in rows:
        assert n - 3.0 == -4.0
        h, k, l, a, b, u = NEAR_INTEGER_SHAPES[shape]
        r = eval_definite(spec(n, m, h=h, k=k, l=l, a=a, b=b, u=u))
        assert abs(r.value.real - want) <= 1e-10 * abs(want), (shape, m, n)
        assert abs(r.value.real - want) <= r.err_estimate, (shape, m, n)


@pytest.mark.parametrize("shape", ["zero", "d", "a"])
def test_oracle_near_minus_one(shape):
    # the oracle integrates f - x^n near the origin at h=k=l=0 and f itself
    # elsewhere; judged against the generator's literals
    h, k, l, a, b, u = NEAR_INTEGER_SHAPES[shape]
    ms = (0.5, 1.0) if shape == "d" else (0.5, 1.0, 0.0)
    rows = [row for row in NEAR_INTEGER_REFS if row[0] == shape
            and row[1] in ms and row[2] in (-0.98, -0.999, -0.99999, -0.9999999)]
    assert len(rows) == 4 * len(ms)
    for _, m, n, want in rows:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = quad_semi_infinite(spec(n, m, h=h, k=k, l=l, a=a, b=b, u=u))
        assert r.converged, (m, n)
        assert abs(r.value.real - want) <= r.err_estimate, (m, n)


def test_definite_degenerate_frequency():
    # alpha + beta = mu collapses one combined frequency to zero
    s = spec(1, 0.5, a=1.0, b=1.0, u=2.0)
    r = eval_definite(s)
    o = quad_semi_infinite(s, TIGHT)
    assert abs(r.value.real - o.value.real) <= 1e-8


def _gamma_power_reference(p1, w, finite_part):
    """_gamma_power computed whole for every term (the reference for the
    per-power and per-frequency split)."""
    logw = cmath.log(w)
    near = round(p1)
    r = p1 - near
    if near >= 1 or not finite_part:
        return math.gamma(p1) * cmath.exp(-p1 * logw)
    q = -int(near)
    k = (-1.0 if q % 2 else 1.0) / math.factorial(q) * w ** q
    if r == 0.0:
        return k * (_harmonic(q + 1) - logw)
    h = complex(-sum(math.log1p(-r / i) for i in range(1, q + 1))) - r * logw
    return math.gamma(1.0 + r) * k * _cexpm1(h) / r


def _definite_term_reference(p, m, gamma, kind, finite_part):
    if gamma == 0.0:
        if kind == "sin":
            return 0.0
        if m == 0.0:
            if p == -1.0:
                raise SingularCombinationError(
                    "pure 1/x term with m = 0 has no finite continuation"
                )
            if finite_part and round(p) == -1:
                r = p + 1.0
                return -math.gamma(1.0 + r) / r
            return 0.0
    val = _gamma_power_reference(p + 1.0, complex(m, -gamma), finite_part)
    return val.imag if kind == "sin" else val.real


def _eval_definite_reference(s):
    """eval_definite as one BaseTerm and one whole Gamma power per term."""
    s.check_convergence()
    n = float(s.n)
    m = float(s.m)
    n0 = round(n)
    finite_part = abs(n - n0) < 0.25
    value = size = 0.0
    for term in reduce_orders(s):
        p = float(term.p)
        t = term.coeff.real * _definite_term_reference(
            p, m, float(term.gamma), term.kind, finite_part
        )
        value += t
        size += (2.0 + abs(p)) * abs(t)
    if finite_part and n0 == -1 and s.h == s.k == s.l == 0:
        r = n + 1.0
        t = math.gamma(1.0 + r) / r
        value += t
        size += 3.0 * abs(t)
    err = max(abs(value) * 5e-14, size * 4.4e-16) + 1e-300
    if not (math.isfinite(value) and math.isfinite(err)):
        raise OverflowError(
            f"closed-form terms overflow: {complex(value)} +- {err}")
    return complex(value), "closed_form", err


def _eval_definite_fields(s):
    r = eval_definite(s)
    return r.value, r.method, r.err_estimate


def _eval_indefinite_reference(s, x):
    """eval_indefinite as a BaseTerm list of the spec re-made at integer n,
    each term through the public antiderivative_base."""
    n = float(s.n)
    n_int = check_integer_power(
        n, "the indefinite closed form requires integer n, got {}")
    x = check_positive(x)
    if n != n_int:  # the terms then carry exact integer powers
        s = dataclasses.replace(s, n=n_int)
    total = 0j
    scale = 0.0
    for term in reduce_orders(s):
        contrib = antiderivative_base(term, float(s.m), x, s.m_imaginary)
        total += contrib
        scale += abs(contrib)
    return total, "closed_form", scale * 5e-15 + 1e-300


def _eval_indefinite_fields(s, x):
    r = eval_indefinite(s, x)
    return r.value, r.method, r.err_estimate


def _outcome(f, *args):
    """Hex of value and err_estimate, or the exception type and message."""
    try:
        value, method, err = f(*args)
    except Exception as exc:  # the reference and eval_definite must agree
        return type(exc), str(exc)
    return value.real.hex(), value.imag.hex(), method, err.hex()


def _definite_guard_specs():
    rng = np.random.default_rng(2021)
    # gamma = 0 sums, exact and rounded (0.3 + 0.6 - 0.9 is -1.1e-16)
    degenerate = ((1.25, 0.5, 1.75), (0.1, 0.2, 0.3), (0.3, 0.6, 0.9),
                  (0.01, 100.0, 100.01))
    offsets = (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 0.25, -0.25)
    out = []
    for i in range(720):
        if i % 6 == 5:
            n = float(rng.uniform(-1.0, -0.75))
        else:
            n = int(rng.integers(0, 5)) + offsets[i % 7]
        freqs = (degenerate[i % 4] if i % 3 == 0
                 else tuple(float(v) for v in rng.uniform(0.3, 3.0, size=3)))
        h, k, l = (int(o) for o in rng.integers(0, 10, size=3))
        out.append(IntegralSpec(n=n, m=(0.0, 0.5, 1.0, 2.0)[i % 4], h=h,
                                k=k, l=l, alpha=freqs[0], beta=freqs[1],
                                mu=freqs[2]))
    # large n: finite values, the non-finite raise and math.gamma's overflow
    for i in range(120):
        h, k, l = (int(o) for o in rng.integers(0, 9, size=3))
        freqs = (float(v) for v in rng.uniform(0.3, 3.0, size=3))
        out.append(IntegralSpec(n=float(rng.uniform(165.0, 200.0)),
                                m=(0.5, 1.0, 2.0)[i % 3], h=h, k=k, l=l,
                                alpha=next(freqs), beta=next(freqs),
                                mu=next(freqs)))
    return out


def test_definite_matches_per_term_reference_bit_for_bit():
    specs = _definite_guard_specs()
    outcomes = []
    for s in specs:
        want = _outcome(_eval_definite_reference, s)
        assert _outcome(_eval_definite_fields, s) == want, s
        outcomes.append(want)
    # the population reaches the near-pole, gamma = 0 and divergent paths
    assert len(specs) == 840
    assert sum(o[0] is DivergenceError for o in outcomes) >= 20
    large = outcomes[720:]
    assert sum(isinstance(o[0], str) for o in large) >= 5
    for message in ("closed-form terms overflow", "math range error"):
        assert sum(o[0] is OverflowError and o[1].startswith(message)
                   for o in large) >= 5, message
    assert sum(0.0 < abs(s.n - round(s.n)) < 1e-6 for s in specs) >= 300
    assert sum(-1.0 < s.n < -0.75 for s in specs) >= 100
    zero_gamma = [s for s in specs if any(g == 0.0 for _, _, g, _ in
                  _reduce_shape(s.h, s.k, s.l, s.alpha, s.beta, s.mu))]
    assert len(zero_gamma) >= 100
    # the m = 0 pole at n = 2 that eval_definite puts back
    assert sum(s.m == 0.0 and 1.75 < s.n < 2.0 for s in zero_gamma) >= 3


def _indefinite_guard_cases():
    rng = np.random.default_rng(15)
    degenerate = ((1.25, 0.5, 1.75), (0.1, 0.2, 0.3), (0.3, 0.6, 0.9),
                  (0.01, 100.0, 100.01))
    # integer n, n within 1e-13 of an integer, and n 1e-9 off (rejected)
    offsets = (0.0, 0.0, 5e-14, -5e-14, 1e-9, -1e-9)
    out = []
    for i in range(480):
        n = int(rng.integers(-2, 5)) + offsets[i % 6]
        imaginary = i % 5 == 4
        freqs = (degenerate[i % 4] if i % 3 == 0
                 else tuple(float(v) for v in rng.uniform(0.3, 3.0, size=3)))
        h, k, l = (int(o) for o in rng.integers(0, 10, size=3))
        x = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        out.append((IntegralSpec(
            n=n, m=0.0 if imaginary else (0.0, 0.5, 1.0, 2.0)[i % 4],
            h=h, k=k, l=l, alpha=freqs[0], beta=freqs[1], mu=freqs[2],
            m_imaginary=imaginary), x))
    # every argument valid, (m - i gamma) x overflows in the term kernels
    out += [(spec(0, 1e308), 1e308), (spec(4, 1e308, h=2, l=1), 1e308)]
    return out


def test_indefinite_matches_per_term_reference_bit_for_bit():
    cases = _indefinite_guard_cases()
    outcomes = []
    for s, x in cases:
        want = _outcome(_eval_indefinite_reference, s, x)
        assert _outcome(_eval_indefinite_fields, s, x) == want, (s, x)
        outcomes.append(want)
    # the population reaches the rejected, near-integer, imaginary,
    # gamma = 0, high-order and overflow paths
    assert len(cases) == 482
    assert sum(o[0] is DomainError for o in outcomes) >= 100
    assert sum(o[0] is OverflowError for o in outcomes) == 2
    assert sum(0.0 < abs(s.n - round(s.n)) < 1e-13 for s, _ in cases) >= 100
    assert sum(s.m_imaginary for s, _ in cases) >= 60
    zero_gamma = [s for s, _ in cases if any(g == 0.0 for _, _, g, _ in
                  _reduce_shape(s.h, s.k, s.l, s.alpha, s.beta, s.mu))]
    assert len(zero_gamma) >= 60
    assert sum(max(s.h, s.k, s.l) == 9 for s, _ in cases) >= 60
    assert min(x for _, x in cases) < 2e-3 and max(x for _, x in cases[:-2]) > 30


def test_definite_divergence_preconditions():
    with pytest.raises(DivergenceError):
        eval_definite(spec(-1, 1.0))
    with pytest.raises(DivergenceError):
        eval_definite(spec(2, 0.0))
    with pytest.raises(DivergenceError):
        eval_definite(spec(0, 0.0, m_imaginary=True))
