"""Closed forms for integrals of x^n e^{-mx} j_h(ax) j_k(bx) j_l(cx).

The product of three spherical Bessel functions is reduced symbolically to a
sum of elementary base terms coeff * x^p * {sin,cos}(gamma x) with combined
frequencies gamma = +-alpha +- beta +- mu. Each base term has an exact
antiderivative through incomplete-gamma / exponential-integral functions
(eval_indefinite), and an exact semi-infinite value through
Gamma(p+1) (m - i gamma)^{-(p+1)} for any real n (eval_definite), where a
Gamma pole that cancels across the terms contributes its finite part. The
all-orders-zero case also has a direct hard-coded assembly (special_case_000)
kept as an independent code path for cross-validation.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    UnsupportedPowerError,
    check_integer,
    check_integer_power,
    check_positive,
)
from .expint import _harmonic, _lower_gamma_int, exp_integral_en, z_antiderivative
from .sphfun import _jl_vec


def _damping(m: float, m_imaginary: bool) -> complex:
    """The damping w of the weight e^{-wx}: a finite real m >= 0, or exactly
    i when m_imaginary is set (m must then be 0)."""
    w = float(m)
    if m_imaginary:
        if w != 0.0:
            raise DomainError("set m=0 when m_imaginary=True; the damping is exactly i")
        return 1j
    if not math.isfinite(w) or w < 0.0:
        raise DomainError(f"damping m must be >= 0, got {m!r}")
    return complex(w)


@dataclass(frozen=True)
class IntegralSpec:
    """Parameters of integral x^n e^{-mx} j_h(alpha x) j_k(beta x) j_l(mu x) dx.

    n may be any real for the definite integral; the indefinite closed form
    requires integer n. m >= 0 is the real damping; m_imaginary=True selects
    the undamped e^{-ix} weight instead (m must then be 0).
    """

    n: float
    m: float
    h: int
    k: int
    l: int
    alpha: float
    beta: float
    mu: float
    m_imaginary: bool = False

    def __post_init__(self):
        for name in ("h", "k", "l"):
            check_integer(getattr(self, name), f"order {name}", 0)
        for name in ("alpha", "beta", "mu"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(
                    f"frequency {name} must be nonzero (a finite positive real), got {v!r}"
                )
        if not math.isfinite(float(self.n)):
            raise DomainError(f"power n must be finite, got {self.n!r}")
        _damping(self.m, self.m_imaginary)

    @property
    def damping(self) -> complex:
        return _damping(self.m, self.m_imaginary)

    def check_convergence(self) -> None:
        """Raise DivergenceError unless the integral over [0, inf) converges:
        it needs real damping, n > -1 at the origin and, at infinity, m > 0
        or n < 2. This is the one statement of that rule."""
        if self.m_imaginary:
            raise DivergenceError(
                "the e^{-ix} weight does not damp the integrand; the semi-infinite "
                "integral is only defined for real m"
            )
        n = float(self.n)
        if n <= -1.0:
            raise DivergenceError(f"needs n > -1 at the origin, got n={n}")
        if float(self.m) == 0.0 and n >= 2.0:
            raise DivergenceError(f"m = 0 needs n < 2 at infinity, got n={n}")


@dataclass(frozen=True)
class BaseTerm:
    """One reduced term coeff * x^p * kind(gamma * x)."""

    coeff: complex
    p: float
    kind: str  # "sin" or "cos"
    gamma: float


@dataclass
class EvalResult:
    value: complex
    method: str
    err_estimate: float
    converged: bool = True


# ---------------------------------------------------------------------------
# Product-to-sum reduction
# ---------------------------------------------------------------------------

# The product-to-sum rule for three sines/cosines: kinds -> (output kind,
# weights of kind(A+B+C), kind(A+B-C), kind(A-B+C), kind(A-B-C)). The
# three-sine row is the corrected identity
# 4 sinA sinB sinC = sin(A+B-C) + sin(B+C-A) + sin(C+A-B) - sin(A+B+C).
_PRODUCT_TO_SUM = {
    ("sin", "sin", "sin"): ("sin", (-0.25, 0.25, 0.25, -0.25)),
    ("sin", "sin", "cos"): ("cos", (-0.25, -0.25, 0.25, 0.25)),
    ("sin", "cos", "sin"): ("cos", (-0.25, 0.25, -0.25, 0.25)),
    ("sin", "cos", "cos"): ("sin", (0.25, 0.25, 0.25, 0.25)),
    ("cos", "sin", "sin"): ("cos", (-0.25, 0.25, 0.25, -0.25)),
    ("cos", "sin", "cos"): ("sin", (0.25, 0.25, -0.25, -0.25)),
    ("cos", "cos", "sin"): ("sin", (0.25, -0.25, 0.25, -0.25)),
    ("cos", "cos", "cos"): ("cos", (0.25, 0.25, 0.25, 0.25)),
}


def _frequency_sums(a: float, b: float, c: float) -> tuple:
    """a+b+c, a+b-c, a-b+c and a-b-c, in _PRODUCT_TO_SUM's weight order."""
    return (a + b + c, a + b - c, a - b + c, a - b - c)


def trig_decompose(a: float, b: float, c: float,
                   kinds: tuple[str, str, str] = ("sin", "sin", "sin")):
    """Expand a product of three sines/cosines into 4 signed-frequency terms.

    Returns [(weight, kind, frequency)] with frequencies a+b+c, a+b-c, a-b+c,
    a-b-c (possibly negative), by the rule in _PRODUCT_TO_SUM. Any kinds
    other than three of "sin"/"cos" raise DomainError.
    """
    rule = _PRODUCT_TO_SUM.get(tuple(kinds))
    if rule is None:
        raise DomainError(f"kinds must be three of 'sin'/'cos', got {kinds!r}")
    out_kind, weights = rule
    return [(w, out_kind, g) for w, g in zip(weights, _frequency_sums(a, b, c))]


def _j_symbols(l: int, gamma: float):
    """j_l(gamma x) as {(q, kind): coeff} meaning sum coeff * x^q * kind(gamma x)."""
    prev = {(-1, "cos"): 1.0 / gamma}   # j_{-1}(gamma x) = cos(gamma x)/(gamma x)
    cur = {(-1, "sin"): 1.0 / gamma}    # j_0
    for lam in range(l):
        nxt: dict = {}
        f = (2 * lam + 1) / gamma
        for (q, kd), cf in cur.items():
            key = (q - 1, kd)
            nxt[key] = nxt.get(key, 0.0) + f * cf
        for (q, kd), cf in prev.items():
            key = (q, kd)
            nxt[key] = nxt.get(key, 0.0) - cf
        prev, cur = cur, nxt
    return cur


# Reductions kept by _reduce_shape: a family's shapes repeat across its n and m
# values, and an interval op reduces its spec once per endpoint.
_SHAPE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _reduce_shape(h: int, k: int, l: int, alpha: float, beta: float,
                  mu: float) -> tuple:
    """The n-free reduction of j_h(alpha x) j_k(beta x) j_l(mu x).

    Returns an immutable tuple of (d, kind, gamma, coeff) sorted by
    (d, kind, gamma): the product is sum coeff * x^d * kind(gamma x).
    """
    sym_a = _j_symbols(h, alpha)
    sym_b = _j_symbols(k, beta)
    sym_c = _j_symbols(l, mu)
    kinds_a = {kd for _, kd in sym_a}
    kinds_b = {kd for _, kd in sym_b}
    # The four frequency sums are formed once, as |gamma| and sign: cos is
    # even, and a sine's sign goes into its weight (-(c*w) == c*(-w)
    # exactly). Each occurring kind pattern reads its weights from the rule.
    sums = [(-g, -1.0) if g < 0.0 else (g, 1.0)
            for g in _frequency_sums(alpha, beta, mu)]
    expanded = {}
    for kinds in itertools.product(kinds_a, kinds_b, {kd for _, kd in sym_c}):
        out_kind, weights = _PRODUCT_TO_SUM[kinds]
        expanded[kinds] = [(w * sign if out_kind == "sin" else w, (out_kind, g))
                           for w, (g, sign) in zip(weights, sums)]
    # Each distinct (kind, gamma) is a column j, in sorted order, and the key
    # (d, kind, gamma) has the flat slot (d - d_min) * width + j, so slot
    # order is key order. j_l's powers run from -1-l to -1, so d - d_min
    # splits into (qa+1+h) + (qb+1+k) + (qc+1+l).
    cols = sorted({key for terms in expanded.values() for _, key in terms})
    width = len(cols)
    col = {key: j for j, key in enumerate(cols)}
    # per (ka, kb), each c factor as cc and the (slot, weight) of its
    # pattern's 4 terms, so the inner loop is unrolled
    rows_c = {}
    for ka in kinds_a:
        for kb in kinds_b:
            rows = rows_c[ka, kb] = []
            for (qc, kc), cc in sym_c.items():
                off = (qc + l + 1) * width
                (w0, c0), (w1, c1), (w2, c2), (w3, c3) = expanded[ka, kb, kc]
                rows.append((cc, off + col[c0], w0, off + col[c1], w1,
                             off + col[c2], w2, off + col[c3], w3))
    # Each slot gets its additions in the order the (a, b, c, term) loop
    # visits them, starting from 0.0, so the sums are bit for bit those of
    # a per-key dict; ca * cb * cc groups as (ca * cb) * cc.
    acc = [0.0] * ((h + k + l + 1) * width)
    for (qa, ka), ca in sym_a.items():
        for (qb, kb), cb in sym_b.items():
            cab = ca * cb
            base = (qa + qb + h + k + 2) * width
            for cc, s0, w0, s1, w1, s2, w2, s3, w3 in rows_c[ka, kb]:
                cprod = cab * cc
                acc[base + s0] += cprod * w0
                acc[base + s1] += cprod * w1
                acc[base + s2] += cprod * w2
                acc[base + s3] += cprod * w3
    d_min = -3 - h - k - l
    return tuple((d_min + s // width, *cols[s % width], complex(c))
                 for s, c in enumerate(acc) if c != 0.0)


def _spec_shape(spec: IntegralSpec) -> tuple:
    """_reduce_shape of spec's orders and frequencies, as plain ints and
    floats so that numpy scalars share the cache entry."""
    return _reduce_shape(int(spec.h), int(spec.k), int(spec.l),
                         float(spec.alpha), float(spec.beta), float(spec.mu))


def reduce_orders(spec: IntegralSpec) -> list[BaseTerm]:
    """Reduce x^n j_h(alpha x) j_k(beta x) j_l(mu x) to a list of BaseTerms.

    Powers p span [n - 3 - h - k - l, n - 3]; frequencies are canonicalized to
    gamma >= 0 (sign absorbed into the coefficient for sine terms). The
    n-free part is computed once per (h, k, l, alpha, beta, mu) and the last
    _SHAPE_CACHE_SIZE shapes are kept; each call returns a fresh list.
    """
    n = float(spec.n)
    return [BaseTerm(coeff=c, p=n + d, kind=kd, gamma=g)
            for d, kd, g, c in _spec_shape(spec)]


def integrand(spec: IntegralSpec):
    """The integrand x^n e^{-mx} j_h j_k j_l as a vectorized callable on x > 0."""
    n = float(spec.n)
    damping = spec.damping

    def f(x):
        x = np.asarray(x, dtype=float)
        jjj = (
            _jl_vec(spec.h, spec.alpha * x)
            * _jl_vec(spec.k, spec.beta * x)
            * _jl_vec(spec.l, spec.mu * x)
        )
        if spec.m_imaginary:
            weight = np.exp(-1j * x)
        elif damping.real == 0.0:
            weight = 1.0
        else:
            weight = np.exp(-damping.real * x)
        return x ** n * weight * jjj

    return f


# ---------------------------------------------------------------------------
# Indefinite integration
# ---------------------------------------------------------------------------

def _power_exp_antiderivative(p: int, c: complex, x: float) -> complex:
    """Antiderivative of x^p e^{cx}, normalized to vanish at x = 0 for p >= 0.

    For p >= 0 this is the integral from 0 by the lower-incomplete-gamma
    kernel (stable for small |c| where the upper form hides the value behind
    a huge constant); p <= -1 coincides with z_antiderivative's convention.
    """
    if p >= 0:
        return _lower_gamma_int(p + 1, c, x)
    return z_antiderivative(p, c, x)


def _base_antiderivative(p: int, kind: str, gamma: float, coeff: complex,
                         damping: complex, x: float) -> complex:
    """antiderivative_base of checked arguments: integer p, damping w, x > 0."""
    if gamma == 0.0:
        if kind == "sin":
            return 0j
        return coeff * _power_exp_antiderivative(p, -damping, x)
    c_plus = -damping + 1j * gamma
    c_minus = -damping - 1j * gamma
    j_plus = _power_exp_antiderivative(p, c_plus, x)
    j_minus = _power_exp_antiderivative(p, c_minus, x)
    if kind == "sin":
        return coeff * (j_plus - j_minus) / 2j
    return coeff * (j_plus + j_minus) / 2.0


def antiderivative_base(term: BaseTerm, m: float, x: float,
                        m_imaginary: bool = False) -> complex:
    """Antiderivative at x of coeff * t^p e^{-mt} kind(gamma t) dt.

    Degenerate gamma = 0 terms route to the pure-exponential form
    (sin contributes 0; cos drops to x^p e^{-mt}). m and m_imaginary obey
    IntegralSpec's damping rule.
    """
    x = check_positive(x)
    p_int = check_integer_power(
        term.p, "base antiderivatives need an integer power, got p={!r}")
    damping = _damping(m, m_imaginary)
    return _base_antiderivative(p_int, term.kind, float(term.gamma),
                                term.coeff, damping, x)


def _closed_form_result(value: complex, err: float) -> EvalResult:
    """Both closed forms' result: an inf or NaN value or bar is an overflow."""
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise OverflowError(f"closed-form terms overflow: {value} +- {err}")
    return EvalResult(value=value, method="closed_form", err_estimate=err)


def eval_indefinite(spec: IntegralSpec, x: float) -> EvalResult:
    """Closed-form antiderivative F(x) of the spec integrand (integer n).

    F is unique up to an additive constant; this implementation fixes the
    constant by the term-level convention that every p >= 0 base
    antiderivative vanishes at x = 0.
    """
    n_int = check_integer_power(
        float(spec.n), "the indefinite closed form requires integer n, got {}")
    x = check_positive(x)
    damping = spec.damping
    total = 0j
    scale = 0.0
    for d, kind, gamma, coeff in _spec_shape(spec):
        contrib = _base_antiderivative(n_int + d, kind, gamma, coeff, damping, x)
        total += contrib
        scale += abs(contrib)
    return _closed_form_result(total, scale * 5e-15 + 1e-300)


# ---------------------------------------------------------------------------
# All-orders-zero direct assembly
# ---------------------------------------------------------------------------

# Analytic product-to-sum constant for the three-sine reduction. Locked by a
# calibration test against the quadrature oracle; do not tune.
_QUARTER = 0.25


def _gamma_conv(s: int, z: complex) -> complex:
    """Incomplete-gamma factor used by the direct assembly.

    s >= 1 uses the negated lower function gamma(s, z) =
    z^s _lower_gamma_int(s, -z, 1) (same additive convention as
    eval_indefinite); s <= 0 continues to z^s E_{1-s}(z).
    """
    if s >= 1:
        return -(z ** s) * _lower_gamma_int(s, -z, 1.0)
    return z ** s * exp_integral_en(1 - s, z)


def special_case_000(n: int, m: float, alpha: float, beta: float, mu: float,
                     x: float, m_imaginary: bool = False) -> complex:
    """Antiderivative of x^n e^{-mx} j_0(alpha x) j_0(beta x) j_0(mu x).

    Direct four-frequency incomplete-gamma assembly (independent of the
    reduce_orders machinery): with p = n - 3 and W_-+ = m -+ i gamma,

        F(x) = 1/(4 a b u) * sum_gamma w_gamma * (i/2) *
               [W_-^{-p-1} G(p+1, W_- x) - W_+^{-p-1} G(p+1, W_+ x)]

    over the corrected signed frequencies (alpha-beta+mu, beta+mu-alpha,
    alpha+beta-mu) with weight +1 and (alpha+beta+mu) with weight -1.
    """
    n = check_integer(n, "n", 0, UnsupportedPowerError)
    x = check_positive(x)
    # the orders-zero spec checks m, m_imaginary and the frequencies
    damping = IntegralSpec(n=n, m=m, h=0, k=0, l=0, alpha=alpha, beta=beta,
                           mu=mu, m_imaginary=m_imaginary).damping
    p = n - 3
    freqs = (
        (alpha - beta + mu, 1.0),
        (beta + mu - alpha, 1.0),
        (alpha + beta - mu, 1.0),
        (alpha + beta + mu, -1.0),
    )
    total = 0j
    for gamma, w in freqs:
        if gamma == 0.0:
            continue  # sin(0 * x) contributes nothing
        w_minus = damping - 1j * gamma
        w_plus = damping + 1j * gamma
        bracket = (
            w_minus ** (-p - 1) * _gamma_conv(p + 1, w_minus * x)
            - w_plus ** (-p - 1) * _gamma_conv(p + 1, w_plus * x)
        )
        total += w * 0.5j * bracket
    return _QUARTER * total / (alpha * beta * mu)


# ---------------------------------------------------------------------------
# Definite integration over [0, inf)
# ---------------------------------------------------------------------------

def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z|."""
    em = math.expm1(z.real)
    cy = math.cos(z.imag)
    return complex(em * cy - 2.0 * math.sin(0.5 * z.imag) ** 2,
                   (em + 1.0) * math.sin(z.imag))


def _gamma_power(p1: float, finite_part: bool):
    """Gamma(p1) * w^(-p1), or its finite part near a Gamma pole, as a
    function of (w, principal log w). The w-free part is computed here,
    once per power, and math.gamma's overflow raises here.

    Outside finite_part, or where p1 rounds to >= 1, this is math.gamma
    times the principal power. Near a pole -q, math.gamma's reflection
    formula loses ~|p1| * 1e-16 / |r| relative digits, so with r = p1 + q
    and K = (-1)^q w^q / q! the product form is used:

        Gamma(-q+r) w^(q-r) = Gamma(1+r) K expm1(h)/r + Gamma(1+r) K/r,
        h(r) = -sum_{i<=q} log1p(-r/i) - r log w.

    The pole part Gamma(1+r) K/r is dropped; at r = 0 the rest has the
    limit K (H_q - log w). The caller sets finite_part once for a sum whose
    terms share r, and puts back what the dropped parts add up to. Every
    term of that sum takes the product form, even where rounding p1 has
    put its r on +-0.25.
    """
    near = round(p1)
    r = p1 - near
    if near >= 1 or not finite_part:
        g, s = math.gamma(p1), -p1
        return lambda w, logw: g * cmath.exp(s * logw)
    q = -int(near)
    f = (-1.0 if q % 2 else 1.0) / math.factorial(q)
    if r == 0.0:
        h_q = _harmonic(q + 1)
        return lambda w, logw: f * w ** q * (h_q - logw)
    s = complex(-sum(math.log1p(-r / i) for i in range(1, q + 1)))
    g = math.gamma(1.0 + r)
    return lambda w, logw: g * (f * w ** q) * _cexpm1(s - r * logw) / r


def eval_definite(spec: IntegralSpec) -> EvalResult:
    """Definite integral int_0^inf x^n e^{-mx} j_h j_k j_l dx in closed form.

    Where spec.check_convergence admits the integral, one walk over the
    cached n-free reduction (_spec_shape), sorted by power, adds
    coeff * Gamma(p+1) Im/Re[(m - i gamma)^{-(p+1)}] per term. Each power's
    _gamma_power is made at the first of its terms that needs one, where
    its raise falls, and each frequency's (w, log w) is formed once.

    Within 0.25 of an integer n0 the terms near Gamma poles contribute
    their finite parts. The dropped pole parts add up to Gamma(1+r)/r,
    r = n - n0, times sum coeff * K, the x^-1 coefficient of the
    integrand's small-x expansion at n0. That is zero with m > 0 unless
    n0 = -1 and h = k = l = 0, where x^-1 e^{-mx} j_0^3 starts with x^-1:
    that genuine pole is put back after the loop. With m = 0 the scaleless
    gamma = 0 cosine term continues to 0 (the m -> 0+ limit of
    Gamma(p+1) m^{-p-1} for the p < -1 that occur), but its
    non-oscillating x^(n-3) tail makes n = 2 a genuine pole: there the
    term takes -Gamma(1+r)/r, r = p + 1, in its sorted place, the parts
    the other terms dropped, whose K add up to minus its K = 1.
    """
    spec.check_convergence()
    n = float(spec.n)
    m = float(spec.m)
    n0 = round(n)
    finite_part = abs(n - n0) < 0.25
    logs = {}
    p_power = None
    value = size = 0.0
    for d, kind, gamma, coeff in _spec_shape(spec):
        p = n + d
        if gamma == 0.0 and kind == "sin":
            val = 0.0
        elif gamma == 0.0 and m == 0.0:
            r = p + 1.0
            val = (-math.gamma(1.0 + r) / r
                   if finite_part and round(p) == -1 else 0.0)
        else:
            if p != p_power:
                p_power, power = p, _gamma_power(p + 1.0, finite_part)
            wlog = logs.get(gamma)
            if wlog is None:
                w = complex(m, -gamma)
                wlog = logs[gamma] = (w, cmath.log(w))
            z = power(*wlog)
            val = z.imag if kind == "sin" else z.real
        t = coeff.real * val
        value += t
        size += (2.0 + abs(p)) * abs(t)
    if finite_part and n0 == -1 and spec.h == spec.k == spec.l == 0:
        r = n + 1.0
        t = math.gamma(1.0 + r) / r
        value += t
        size += 3.0 * abs(t)
    # Gamma(p+1) w^{-(p+1)} carries ~(2 + |p|) roundings, so cancellation
    # across the terms shows in size rather than in |value|
    err = max(abs(value) * 5e-14, size * 4.4e-16) + 1e-300
    return _closed_form_result(complex(value), err)
