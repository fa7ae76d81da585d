"""Closed forms for integrals of x^n e^{-mx} j_h(ax) j_k(bx) j_l(cx).

The product of three spherical Bessel functions is reduced symbolically to a
sum of elementary base terms coeff * x^p * {sin,cos}(gamma x) with combined
frequencies gamma = +-alpha +- beta +- mu. Each base term has an exact
antiderivative through incomplete-gamma / exponential-integral functions
(eval_indefinite), and an exact semi-infinite value through
Gamma(p+1) (m - i gamma)^{-(p+1)} (eval_definite). The all-orders-zero case
also has a direct hard-coded assembly (special_case_000) kept as an
independent code path for cross-validation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    SingularCombinationError,
    UnsupportedPowerError,
)
from .expint import _lower_gamma_int, exp_integral_en, upper_incomplete_gamma, z_antiderivative
from .sphfun import _jl_vec

_EPS_OFFSET = 1e-4  # symmetric offset around integer n in eval_definite


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
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
                raise DomainError(f"order {name} must be an integer >= 0, got {v!r}")
        for name in ("alpha", "beta", "mu"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(
                    f"frequency {name} must be nonzero (a finite positive real), got {v!r}"
                )
        if not math.isfinite(float(self.n)):
            raise DomainError(f"power n must be finite, got {self.n!r}")
        if self.m_imaginary:
            if float(self.m) != 0.0:
                raise DomainError("set m=0 when m_imaginary=True; the damping is exactly i")
        elif not math.isfinite(float(self.m)) or float(self.m) < 0.0:
            raise DomainError(f"damping m must be >= 0, got {self.m!r}")

    @property
    def damping(self) -> complex:
        return 1j if self.m_imaginary else complex(float(self.m))


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

def trig_decompose(a: float, b: float, c: float,
                   kinds: tuple[str, str, str] = ("sin", "sin", "sin")):
    """Expand a product of three sines/cosines into 4 signed-frequency terms.

    Returns [(weight, kind, frequency)] with frequencies a+b+c, a+b-c, a-b+c,
    a-b-c (possibly negative). The all-sin case is the corrected identity
    4 sinA sinB sinC = sin(A+B-C) + sin(B+C-A) + sin(C+A-B) - sin(A+B+C).
    """
    for kd in kinds:
        if kd not in ("sin", "cos"):
            raise DomainError(f"kinds must be 'sin' or 'cos', got {kd!r}")
    sin_idx = [i for i, kd in enumerate(kinds) if kd == "sin"]
    n_sin = len(sin_idx)
    out_kind = "sin" if n_sin % 2 == 1 else "cos"
    if n_sin % 2 == 1:
        base = 0.25 if n_sin == 1 else -0.25
    else:
        base = 0.25 if n_sin == 0 else -0.25
    terms = []
    for s2 in (1.0, -1.0):
        for s3 in (1.0, -1.0):
            sigma = (1.0, s2, s3)
            parity = 1.0
            for i in sin_idx:
                parity *= sigma[i]
            terms.append((base * parity, out_kind, a + s2 * b + s3 * c))
    return terms


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
                        g = 0.0  # normalize -0.0
                    key = (d, kd, g)
                    acc[key] = acc.get(key, 0.0) + coeff
    return tuple((d, kd, g, complex(c))
                 for (d, kd, g), c in sorted(acc.items()) if c != 0.0)


def reduce_orders(spec: IntegralSpec) -> list[BaseTerm]:
    """Reduce x^n j_h(alpha x) j_k(beta x) j_l(mu x) to a list of BaseTerms.

    Powers p span [n - 3 - h - k - l, n - 3]; frequencies are canonicalized to
    gamma >= 0 (sign absorbed into the coefficient for sine terms). The
    n-free part is computed once per (h, k, l, alpha, beta, mu) and the last
    _SHAPE_CACHE_SIZE shapes are kept; each call returns a fresh list.
    """
    shape = _reduce_shape(int(spec.h), int(spec.k), int(spec.l),
                          float(spec.alpha), float(spec.beta), float(spec.mu))
    n = float(spec.n)
    return [BaseTerm(coeff=c, p=n + d, kind=kd, gamma=g)
            for d, kd, g, c in shape]


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

    For p >= 0 this is the lower-incomplete-gamma form (stable for small |c|
    where the upper form hides the value behind a huge constant); p <= -1 and
    c = 0 coincide with z_antiderivative's conventions.
    """
    if p >= 0 and c != 0:
        return (-c) ** (-p - 1) * _lower_gamma_int(p + 1, -c * x)
    return z_antiderivative(p, c, x)


def antiderivative_base(term: BaseTerm, m: float, x: float,
                        m_imaginary: bool = False) -> complex:
    """Antiderivative at x of coeff * t^p e^{-mt} kind(gamma t) dt.

    Degenerate gamma = 0 terms route to the pure-exponential form
    (sin contributes 0; cos drops to x^p e^{-mt}).
    """
    x = float(x)
    if x <= 0.0 or not math.isfinite(x):
        raise DomainError(f"argument must be > 0, got {x!r}")
    p_int = int(round(float(term.p)))
    if abs(float(term.p) - p_int) > 1e-9:
        raise DomainError(
            f"base antiderivatives need an integer power, got p={term.p!r}"
        )
    damping = 1j if m_imaginary else complex(float(m))
    gamma = float(term.gamma)
    if gamma == 0.0:
        if term.kind == "sin":
            return 0j
        return term.coeff * _power_exp_antiderivative(p_int, -damping, x)
    c_plus = -damping + 1j * gamma
    c_minus = -damping - 1j * gamma
    j_plus = _power_exp_antiderivative(p_int, c_plus, x)
    j_minus = _power_exp_antiderivative(p_int, c_minus, x)
    if term.kind == "sin":
        return term.coeff * (j_plus - j_minus) / 2j
    return term.coeff * (j_plus + j_minus) / 2.0


def eval_indefinite(spec: IntegralSpec, x: float) -> EvalResult:
    """Closed-form antiderivative F(x) of the spec integrand (integer n).

    F is unique up to an additive constant; this implementation fixes the
    constant by the term-level convention that every p >= 0 base
    antiderivative vanishes at x = 0.
    """
    n = float(spec.n)
    if abs(n - round(n)) > 1e-12:
        raise DomainError(f"the indefinite closed form requires integer n, got {n}")
    x = float(x)
    if x <= 0.0 or not math.isfinite(x):
        raise DomainError(f"argument must be > 0, got {x!r}")
    total = 0j
    scale = 0.0
    for term in reduce_orders(spec):
        contrib = antiderivative_base(term, float(spec.m), x, spec.m_imaginary)
        total += contrib
        scale += abs(contrib)
    err = scale * 5e-15 + 1e-300
    return EvalResult(value=total, method="closed_form", err_estimate=err)


# ---------------------------------------------------------------------------
# All-orders-zero direct assembly
# ---------------------------------------------------------------------------

# Analytic product-to-sum constant for the three-sine reduction. Locked by a
# calibration test against the quadrature oracle; do not tune.
_QUARTER = 0.25


def _gamma_conv(s: int, z: complex) -> complex:
    """Incomplete-gamma factor used by the direct assembly.

    s >= 1 uses the negated lower function (same additive convention as
    eval_indefinite); s <= 0 continues to z^s E_{1-s}(z).
    """
    if s >= 1:
        return -_lower_gamma_int(s, z)
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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise UnsupportedPowerError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise UnsupportedPowerError(f"the direct assembly needs n >= 0, got {n}")
    x = float(x)
    if x <= 0.0 or not math.isfinite(x):
        raise DomainError(f"argument must be > 0, got {x!r}")
    for name, v in (("alpha", alpha), ("beta", beta), ("mu", mu)):
        if not math.isfinite(float(v)) or float(v) <= 0.0:
            raise DomainError(f"frequency {name} must be nonzero positive, got {v!r}")
    if m_imaginary:
        if float(m) != 0.0:
            raise DomainError("set m=0 when m_imaginary=True")
        damping = 1j
    else:
        if float(m) < 0.0:
            raise DomainError(f"damping must be >= 0, got {m}")
        damping = complex(float(m))
    p = int(n) - 3
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


def _gamma_power(p1: float, w: complex) -> complex:
    """Gamma(p1) * w^(-p1), stable near the Gamma poles.

    math.gamma's reflection formula loses ~|p1| * 1e-16 / |p1 - round(p1)|
    relative digits near negative integers (sin(pi p1) argument rounding);
    within 0.25 of a pole the product form Gamma(1+r) / (r q! prod(1 - r/i))
    is used instead.
    """
    logw = cmath.log(w)
    near = round(p1)
    r = p1 - near
    if near >= 1 or abs(r) >= 0.25:
        return math.gamma(p1) * cmath.exp(-p1 * logw)
    if r == 0.0:
        raise SingularCombinationError(f"Gamma pole at p+1 = {p1}")
    q = -int(near)
    lg = complex(
        math.lgamma(1.0 + r) - sum(math.log1p(-r / i) for i in range(1, q + 1))
    ) - r * logw
    sign = -1.0 if q % 2 else 1.0
    return sign / math.factorial(q) * w ** q * cmath.exp(lg) / r


def _pole_pair_avg(q: int, w: complex, eps: float) -> complex:
    """[M(eps) + M(-eps)] / 2 for M(r) = Gamma(-q+r) * w^(q-r).

    The 1/r poles cancel analytically: M(r) = (-1)^q/q! w^q exp(g(r))/r with
    g(0) = 0, so the pair average is (-1)^q/q! w^q [expm1(g) - expm1(g-)]/2eps.
    """
    logw = cmath.log(w)

    def g(r: float) -> complex:
        s = math.lgamma(1.0 + r) - sum(
            math.log1p(-r / i) for i in range(1, q + 1)
        )
        return complex(s) - r * logw

    d = (_cexpm1(g(eps)) - _cexpm1(g(-eps))) / (2.0 * eps)
    sign = -1.0 if q % 2 else 1.0
    return sign / math.factorial(q) * w ** q * d


def _definite_term(p: float, m: float, gamma: float, kind: str) -> float:
    """Analytic continuation of int_0^inf x^p e^{-mx} kind(gamma x) dx.

    Gamma(p+1) * Im/Re[(m - i gamma)^{-(p+1)}]; the degenerate gamma = 0
    cosine term with m = 0 takes the scaleless continuation 0 (the genuine
    m -> 0+ limit of Gamma(p+1) m^{-p-1} for the p < -1 powers that occur).
    """
    if gamma == 0.0:
        if kind == "sin":
            return 0.0
        if m == 0.0:
            if p == -1.0:
                raise SingularCombinationError(
                    "pure 1/x term with m = 0 has no finite continuation"
                )
            return 0.0
    val = _gamma_power(p + 1.0, complex(m, -gamma))
    return val.imag if kind == "sin" else val.real


def _definite_sym_avg(terms: list[BaseTerm], m: float, eps: float) -> float:
    """[F(n+eps) + F(n-eps)] / 2 with per-term pole cancellation.

    Shifting n by r only shifts each power p by r, so the symmetric pair is
    combined term by term; terms whose Gamma(p+1) sits on a pole use the
    analytically cancelled form.
    """
    total = 0.0
    for t in terms:
        gamma = float(t.gamma)
        if gamma == 0.0:
            if t.kind == "sin" or m == 0.0:
                continue
        w = complex(m, -gamma)
        p1 = float(t.p) + 1.0  # integer-valued
        if p1 >= 1.0:
            logw = cmath.log(w)
            val = 0.5 * (
                math.gamma(p1 + eps) * cmath.exp(-(p1 + eps) * logw)
                + math.gamma(p1 - eps) * cmath.exp(-(p1 - eps) * logw)
            )
        else:
            val = _pole_pair_avg(int(round(-p1)), w, eps)
        total += t.coeff.real * (val.imag if t.kind == "sin" else val.real)
    return total


def eval_definite(spec: IntegralSpec) -> EvalResult:
    """Definite integral int_0^inf x^n e^{-mx} j_h j_k j_l dx in closed form.

    Convergence needs n > -1 at the origin and (m > 0) or (m = 0 with n < 2)
    at infinity. The Gamma(p+1) prefactors have poles at integer n, so
    integer n is evaluated by a symmetric offset n +- eps (eps = 1e-4) with
    Richardson extrapolation; non-integer n evaluates the prefactors
    directly.
    """
    if spec.m_imaginary:
        raise DivergenceError(
            "the e^{-ix} weight does not damp the integrand; the semi-infinite "
            "integral is only defined for real m"
        )
    n = float(spec.n)
    m = float(spec.m)
    if n <= -1.0:
        raise DivergenceError(f"needs n > -1 at the origin, got n={n}")
    if m == 0.0 and n >= 2.0:
        raise DivergenceError(f"m = 0 needs n < 2 at infinity, got n={n}")
    if abs(n - round(n)) > 1e-12:
        value = 0.0
        for term in reduce_orders(spec):
            value += term.coeff.real * _definite_term(
                float(term.p), m, float(term.gamma), term.kind
            )
        err = abs(value) * 5e-14 + 1e-300
        return EvalResult(value=complex(value), method="closed_form", err_estimate=err)
    terms = reduce_orders(spec)
    eps = _EPS_OFFSET
    a1 = _definite_sym_avg(terms, m, eps)
    a2 = _definite_sym_avg(terms, m, eps / 2)
    value = (4.0 * a2 - a1) / 3.0
    err = abs(a2 - a1) * 1e-7 + abs(value) * 1e-13 + 1e-300
    return EvalResult(
        value=complex(value), method="closed_form_richardson", err_estimate=err
    )
