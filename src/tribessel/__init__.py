"""Closed-form triple spherical-Bessel integrals with a quadrature cross-check."""

from .errors import (
    BranchCutError,
    DivergenceError,
    DomainError,
    SingularCombinationError,
    UnsupportedPowerError,
)
from .expint import (
    ci,
    e1_complex,
    ei,
    exp_integral_en,
    li,
    si,
    upper_incomplete_gamma,
    z_antiderivative,
)
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
    sph_bessel_j_at_zero,
    sph_bessel_n,
    sph_hankel1,
    sph_hankel2,
)
from .triple import (
    BaseTerm,
    EvalResult,
    IntegralSpec,
    antiderivative_base,
    eval_definite,
    eval_indefinite,
    integrand,
    reduce_orders,
    special_case_000,
    trig_decompose,
)

__version__ = "0.1.0"


def __getattr__(name):
    # Only the errata report needs these, so its module loads on first use.
    if name in ("ErrataEntry", "build_errata"):
        from . import errata

        return getattr(errata, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BaseTerm",
    "BranchCutError",
    "DivergenceError",
    "DomainError",
    "ErrataEntry",
    "EvalResult",
    "IntegralSpec",
    "QuadConfig",
    "SingularCombinationError",
    "UnsupportedPowerError",
    "antiderivative_base",
    "build_errata",
    "ci",
    "e1_complex",
    "ei",
    "eval_definite",
    "eval_indefinite",
    "exp_integral_en",
    "finite_diff_derivative",
    "integrand",
    "legendre_p",
    "li",
    "plane_wave_partial_sum",
    "quad_finite",
    "quad_semi_infinite",
    "reduce_orders",
    "si",
    "special_case_000",
    "sph_bessel_j",
    "sph_bessel_j_at_zero",
    "sph_bessel_n",
    "sph_hankel1",
    "sph_hankel2",
    "trig_decompose",
    "upper_incomplete_gamma",
    "z_antiderivative",
]
