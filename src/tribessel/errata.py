"""Catalog of defects found in the source text's printed formulas.

Every entry pairs the formula as printed with its corrected form and a
numerical demonstration at a reference point: the corrected form matches an
independently computed reference value, the printed form does not. Entries
are returned in a fixed order so reports are reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .expint import ei, upper_incomplete_gamma
from .oracle import (
    QuadConfig,
    finite_diff_derivative,
    quad_finite,
    quad_semi_infinite,
)
from .sphfun import (
    legendre_p,
    plane_wave_partial_sum,
    sph_bessel_j,
    sph_bessel_n,
    sph_hankel1,
)
from .triple import (
    IntegralSpec,
    eval_definite,
    integrand,
    special_case_000,
    trig_decompose,
)


@dataclass(frozen=True)
class ErrataEntry:
    ident: str
    context: str       # what the formula is for
    printed: str       # formula as printed
    corrected: str     # corrected formula
    point: str         # reference point of the demonstration
    printed_value: complex
    corrected_value: complex
    reference_value: complex
    demo_tol: float    # corrected must match reference this tightly

    @property
    def printed_abs_err(self) -> float:
        return abs(self.printed_value - self.reference_value)

    @property
    def corrected_abs_err(self) -> float:
        return abs(self.corrected_value - self.reference_value)


def _fd2(f, x, h=1e-3):
    """Second derivative by central differences."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def _entry_ode_sign() -> ErrataEntry:
    l, x = 2, 1.7
    f = lambda t: sph_bessel_j(l, t)
    y, yp, ypp = f(x), finite_diff_derivative(f, x, 1e-4), _fd2(f, x)
    cf = l * (l + 1) / x ** 2
    printed = ypp + 2.0 / x * yp + (1.0 + cf) * y
    corrected = ypp + 2.0 / x * yp + (1.0 - cf) * y
    return ErrataEntry(
        ident="ode-centrifugal-sign",
        context="second-order equation satisfied by j_l and n_l",
        printed="y'' + (2/x) y' + [1 + l(l+1)/x^2] y = 0",
        corrected="y'' + (2/x) y' + [1 - l(l+1)/x^2] y = 0",
        point=f"residual for y = j_{l} at x = {x}",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=0.0,
        demo_tol=1e-6,
    )


def _entry_recurrence_missing_factor() -> ErrataEntry:
    l, x = 2, 1.3
    lhs = sph_bessel_j(l - 1, x) + sph_bessel_j(l + 1, x)
    return ErrataEntry(
        ident="recurrence-missing-term",
        context="three-term recurrence connecting contiguous orders",
        printed="y_{l-1} + y_{l+1} = (2l+1)/x",
        corrected="y_{l-1} + y_{l+1} = ((2l+1)/x) y_l",
        point=f"y = j, l = {l}, x = {x}",
        printed_value=(2 * l + 1) / x,
        corrected_value=(2 * l + 1) / x * sph_bessel_j(l, x),
        reference_value=lhs,
        demo_tol=1e-12,
    )


def _entry_derivative_identity_index() -> ErrataEntry:
    l, x = 3, 1.9
    lhs = l * sph_bessel_j(l - 1, x) - (l + 1) * sph_bessel_j(l + 1, x)
    d1 = finite_diff_derivative(lambda t: sph_bessel_j(1, t), x, 1e-4)
    dl = finite_diff_derivative(lambda t: sph_bessel_j(l, t), x, 1e-4)
    return ErrataEntry(
        ident="derivative-identity-index",
        context="derivative identity l y_{l-1} - (l+1) y_{l+1}",
        printed="l y_{l-1} - (l+1) y_{l+1} = (2l+1) dy_1/dx",
        corrected="l y_{l-1} - (l+1) y_{l+1} = (2l+1) dy_l/dx",
        point=f"y = j, l = {l}, x = {x}",
        printed_value=(2 * l + 1) * d1,
        corrected_value=(2 * l + 1) * dl,
        reference_value=lhs,
        demo_tol=1e-9,
    )


def _entry_rayleigh_power() -> ErrataEntry:
    l, x = 2, 1.7
    # (x^-1 d/dx)^1 (sin x / x) and (x^-1 d/dx)^2 (sin x / x), closed forms
    op1 = (x * math.cos(x) - math.sin(x)) / x ** 3
    op2 = (3.0 * math.sin(x) - 3.0 * x * math.cos(x)
           - x ** 2 * math.sin(x)) / x ** 5
    printed = -((-x) ** l) * op1
    corrected = (-x) ** l * op2
    return ErrataEntry(
        ident="rayleigh-operator-power",
        context="differential formula generating j_l from sin(x)/x",
        printed="j_l = (-1)(-x)^l (x^-1 d/dx) sin(x)/x",
        corrected="j_l = (-x)^l (x^-1 d/dx)^l sin(x)/x",
        point=f"l = {l}, x = {x}",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=sph_bessel_j(l, x),
        demo_tol=1e-12,
    )


def _entry_rayleigh_sign() -> ErrataEntry:
    l, x = 0, 1.7
    base = math.sin(x) / x
    return ErrataEntry(
        ident="rayleigh-prefactor-sign",
        context="leading factor of the j_l differential formula",
        printed="j_l = (-1)(-x)^l (x^-1 d/dx)^l sin(x)/x  [power corrected]",
        corrected="j_l = (-x)^l (x^-1 d/dx)^l sin(x)/x",
        point=f"l = {l}, x = {x} (operator applied zero times)",
        printed_value=-base,
        corrected_value=base,
        reference_value=sph_bessel_j(l, x),
        demo_tol=1e-15,
    )


def _entry_neumann_zero_sign() -> ErrataEntry:
    x = 1.7
    return ErrataEntry(
        ident="neumann-zero-sign",
        context="explicit form of the order-zero second solution",
        printed="n_0 = cos(x)/x",
        corrected="n_0 = -cos(x)/x",
        point=f"x = {x}",
        printed_value=math.cos(x) / x,
        corrected_value=-math.cos(x) / x,
        reference_value=sph_bessel_n(0, x),
        demo_tol=1e-15,
    )


def _entry_neumann_mislabel() -> ErrataEntry:
    x = 1.7
    expr = -math.cos(x) / x ** 2 - math.sin(x) / x
    return ErrataEntry(
        ident="neumann-one-mislabeled",
        context="explicit low-order forms of the second solution",
        printed="j_1 = -cos(x)/x^2 - sin(x)/x",
        corrected="n_1 = -cos(x)/x^2 - sin(x)/x",
        point=f"x = {x}; reference is the printed right side, compared against "
              "the function each label names",
        printed_value=sph_bessel_j(1, x),
        corrected_value=sph_bessel_n(1, x),
        reference_value=expr,
        demo_tol=1e-15,
    )


def _entry_neumann_two_sign() -> ErrataEntry:
    x = 1.7
    printed = (3.0 / x ** 3 - 1.0 / x) * math.cos(x) - 3.0 / x ** 2 * math.sin(x)
    corrected = (1.0 / x - 3.0 / x ** 3) * math.cos(x) - 3.0 / x ** 2 * math.sin(x)
    return ErrataEntry(
        ident="neumann-two-cos-sign",
        context="explicit order-two form of the second solution",
        printed="n_2 = (3/x^3 - 1/x) cos(x) - (3/x^2) sin(x)  [also mislabeled j_2]",
        corrected="n_2 = (1/x - 3/x^3) cos(x) - (3/x^2) sin(x)",
        point=f"x = {x}",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=sph_bessel_n(2, x),
        demo_tol=1e-15,
    )


def _entry_hankel_one_sign() -> ErrataEntry:
    x = 1.7
    printed = cmath.exp(1j * x) * (1.0 / x - 1j / x ** 2)
    corrected = cmath.exp(1j * x) * (-1.0 / x - 1j / x ** 2)
    return ErrataEntry(
        ident="hankel-plus-order-one-sign",
        context="explicit order-one outgoing combination j_1 + i n_1",
        printed="h1_1 = e^{ix} (1/x - i/x^2)",
        corrected="h1_1 = e^{ix} (-1/x - i/x^2)",
        point=f"x = {x}",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=sph_hankel1(1, x),
        demo_tol=1e-15,
    )


def _entry_hankel_asymptotic() -> ErrataEntry:
    l, x = 1, 60.0
    printed = (-1.0) ** (l + 1) * cmath.exp(1j * x) / x
    corrected = (-1j) ** (l + 1) * cmath.exp(1j * x) / x
    return ErrataEntry(
        ident="hankel-asymptotic-phase",
        context="large-argument behavior of the outgoing combination",
        printed="h1_l ~ (-1)^{l+1} e^{ix}/x",
        corrected="h1_l ~ (-i)^{l+1} e^{ix}/x",
        point=f"l = {l}, x = {x}",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=sph_hankel1(l, x),
        demo_tol=5.0 / x ** 2,  # O(1/x) truncation of the asymptote itself
    )


def _entry_planewave_fixed_order() -> ErrataEntry:
    kr, u, l_max = 5.0, 0.6, 40
    printed = 0j
    for l in range(l_max + 1):
        printed += (2 * l + 1) * 1j ** l * sph_bessel_j(1, kr) * legendre_p(l, u)
    return ErrataEntry(
        ident="planewave-fixed-order",
        context="expansion of e^{i k r u} over Legendre polynomials",
        printed="sum (2l+1) i^l j_1(kr) P_l(u)",
        corrected="sum (2l+1) i^l j_l(kr) P_l(u)",
        point=f"kr = {kr}, u = {u}, summed through l = {l_max}",
        printed_value=printed,
        corrected_value=plane_wave_partial_sum(kr, u, l_max),
        reference_value=cmath.exp(1j * kr * u),
        demo_tol=1e-10,
    )


def _entry_triple_sine() -> ErrataEntry:
    a, b, c = 1.0, 1.0, 1.0
    x = math.pi / 2
    A, B, C = a * x, b * x, c * x
    lhs = math.sin(A) * math.sin(B) * math.sin(C)
    printed = -math.sin(A + B + C) + math.sin(A - B + C) + math.sin(A + B - C)
    # the three-sine row of the product-to-sum rule the reduction uses
    corrected = sum(w * math.sin(g * x) for w, _, g in trig_decompose(a, b, c))
    return ErrataEntry(
        ident="triple-sine-identity",
        context="product-to-sum identity for three sines",
        printed="sinA sinB sinC = -sin(A+B+C) + sin(A-B+C) + sin(A+B-C)",
        corrected="sinA sinB sinC = (1/4)[sin(A+B-C) + sin(B+C-A) + sin(C+A-B)"
                  " - sin(A+B+C)]",
        point=f"A = B = C = pi/2 (x = {x:.6f}, unit frequencies)",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=lhs,
        demo_tol=1e-15,
    )


def _semi_infinite_000(n, m, alpha, beta, mu, second_arctan_arg, quarter):
    """Closed form of the all-orders-zero integral over [0, inf).

    Gamma(n-2) written in the reflected form pi / (Gamma(3-n) sin(pi n)),
    with per-frequency brackets [m^2 + g^2]^{(2-n)/2} sin[(n-2) arctan(g/m)].
    The two flags reproduce the printed defects.
    """
    pref = math.pi / (alpha * beta * mu * math.gamma(3.0 - n) * math.sin(math.pi * n))
    if quarter:
        pref *= 0.25

    def bracket(g, arct_g):
        return (m * m + g * g) ** (0.5 * (2.0 - n)) * math.sin(
            (n - 2.0) * math.atan2(arct_g, m)
        )

    g1 = alpha + beta + mu
    g2 = mu + beta - alpha
    g3 = mu + alpha - beta
    g4 = alpha + beta - mu
    return pref * (
        -bracket(g1, g1)
        + bracket(g2, second_arctan_arg)
        + bracket(g3, g3)
        + bracket(g4, g4)
    )


def _entry_arctan_argument() -> ErrataEntry:
    n, m, a, b, u = 0.5, 1.0, 1.3, 0.7, 2.1
    spec = IntegralSpec(n=n, m=m, h=0, k=0, l=0, alpha=a, beta=b, mu=u)
    ref = quad_semi_infinite(spec).value.real
    printed = _semi_infinite_000(n, m, a, b, u,
                                 second_arctan_arg=(u + b + a), quarter=True)
    corrected = _semi_infinite_000(n, m, a, b, u,
                                   second_arctan_arg=(u + b - a), quarter=True)
    return ErrataEntry(
        ident="semi-infinite-arctan-argument",
        context="second frequency term of the semi-infinite closed form",
        printed="[m^2+(mu+beta-alpha)^2]^{(2-n)/2} sin[(n-2) arctan((mu+beta+alpha)/m)]",
        corrected="[m^2+(mu+beta-alpha)^2]^{(2-n)/2} sin[(n-2) arctan((mu+beta-alpha)/m)]",
        point=f"n = {n}, m = {m}, alpha = {a}, beta = {b}, mu = {u}, quarter restored",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=ref,
        demo_tol=1e-7,
    )


def _entry_missing_quarter() -> ErrataEntry:
    n, m, a, b, u = 0.5, 1.0, 1.3, 0.7, 2.1
    spec = IntegralSpec(n=n, m=m, h=0, k=0, l=0, alpha=a, beta=b, mu=u)
    ref = quad_semi_infinite(spec).value.real
    printed = _semi_infinite_000(n, m, a, b, u,
                                 second_arctan_arg=(u + b - a), quarter=False)
    corrected = _semi_infinite_000(n, m, a, b, u,
                                   second_arctan_arg=(u + b - a), quarter=True)
    return ErrataEntry(
        ident="semi-infinite-missing-quarter",
        context="overall constant of the semi-infinite closed form",
        printed="pi/(alpha beta mu Gamma(3-n) sin(pi n)) {...}",
        corrected="pi/(4 alpha beta mu Gamma(3-n) sin(pi n)) {...}",
        point=f"n = {n}, m = {m}, alpha = {a}, beta = {b}, mu = {u}, arctan restored",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=ref,
        demo_tol=1e-7,
    )


def _entry_general_no_orders() -> ErrataEntry:
    n, m, a, b, u = 0.5, 1.0, 1.3, 0.7, 2.1
    spec = IntegralSpec(n=n, m=m, h=1, k=1, l=0, alpha=a, beta=b, mu=u)
    ref = quad_semi_infinite(spec).value.real
    printed = _semi_infinite_000(n, m, a, b, u,
                                 second_arctan_arg=(u + b - a), quarter=True)
    corrected = eval_definite(spec).value.real
    return ErrataEntry(
        ident="general-solution-ignores-orders",
        context="the formula labeled as the general solution for any h, k, l",
        printed="I_{hkl} given by the order-independent four-frequency formula",
        corrected="reduce j_h j_k j_l to base terms first; the four-frequency "
                  "formula is the h=k=l=0 case",
        point=f"n = {n}, m = {m}, orders (1,1,0), alpha = {a}, beta = {b}, mu = {u}",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=ref,
        demo_tol=1e-7,
    )


def _entry_allzero_assembly() -> ErrataEntry:
    n, m, a, b, u = 1, 0.5, 1.3, 0.7, 2.1
    x1, x2 = 0.8, 2.4
    spec = IntegralSpec(n=n, m=m, h=0, k=0, l=0, alpha=a, beta=b, mu=u)
    ref = quad_finite(integrand(spec), x1, x2).value.real

    def printed_f(x):
        # as printed: -i/(2 a b u) * [A + B + C], three frequencies, power n,
        # upper incomplete gamma of order n+1 (x^{n+1} [xW]^{-n-1} = W^{-n-1})
        total = 0j
        for g, sign in ((a - b + u, 1.0), (a + b - u, 1.0), (a + b + u, -1.0)):
            wp = m + 1j * g
            wm = m - 1j * g
            total += sign * (
                wp ** (-n - 1) * upper_incomplete_gamma(n + 1, wp * x)
                - wm ** (-n - 1) * upper_incomplete_gamma(n + 1, wm * x)
            )
        return -0.5j / (a * b * u) * total

    printed = (printed_f(x2) - printed_f(x1)).real
    corrected = (special_case_000(n, m, a, b, u, x2)
                 - special_case_000(n, m, a, b, u, x1)).real
    return ErrataEntry(
        ident="allzero-assembly",
        context="direct incomplete-gamma assembly of the all-orders-zero "
                "antiderivative",
        printed="-i/(2 a b u) [A + B + C] with Gamma(n+1, Wx) and three "
                "frequencies",
        corrected="1/(4 a b u) sum over four frequencies of (i/2)[W-^{-(n-2)} "
                  "G(n-2, W-x) - W+^{-(n-2)} G(n-2, W+x)]",
        point=f"F({x2}) - F({x1}) at n = {n}, m = {m}, alpha = {a}, beta = {b}, "
              f"mu = {u}",
        printed_value=printed,
        corrected_value=corrected,
        reference_value=ref,
        demo_tol=1e-9,
    )


def _entry_ei_sign() -> ErrataEntry:
    x = 0.2
    return ErrataEntry(
        ident="ei-sign-near-origin",
        context="qualitative description of the exponential integral",
        printed="Ei(x) is positive on x > 0",
        corrected="Ei(x) < 0 on (0, x0) and > 0 on (x0, inf), x0 ~ 0.3725074",
        point=f"x = {x}: sign of Ei",
        printed_value=1.0,
        corrected_value=math.copysign(1.0, ei(x)),
        reference_value=math.copysign(1.0, ei(x)),
        demo_tol=1e-15,
    )


_BUILDERS = (
    _entry_ode_sign,
    _entry_recurrence_missing_factor,
    _entry_derivative_identity_index,
    _entry_rayleigh_power,
    _entry_rayleigh_sign,
    _entry_neumann_zero_sign,
    _entry_neumann_mislabel,
    _entry_neumann_two_sign,
    _entry_hankel_one_sign,
    _entry_hankel_asymptotic,
    _entry_planewave_fixed_order,
    _entry_triple_sine,
    _entry_arctan_argument,
    _entry_missing_quarter,
    _entry_general_no_orders,
    _entry_allzero_assembly,
    _entry_ei_sign,
)


def build_errata() -> list[ErrataEntry]:
    """All catalogued discrepancies, demonstrations evaluated fresh."""
    return [build() for build in _BUILDERS]
