"""Each argument rule is stated once; every entry point of a rule obeys it
the same way: positive argument, integer argument, damping, and convergence
of the integral over [0, inf)."""

import math

import numpy as np
import pytest

from tribessel.errors import DivergenceError, DomainError, UnsupportedPowerError
from tribessel.expint import exp_integral_en, upper_incomplete_gamma, z_antiderivative
from tribessel.oracle import quad_semi_infinite
from tribessel.sphfun import (
    legendre_p,
    plane_wave_partial_sum,
    sph_bessel_j,
    sph_bessel_j_at_zero,
    sph_bessel_n,
)
from tribessel.triple import (
    BaseTerm,
    IntegralSpec,
    antiderivative_base,
    eval_definite,
    eval_indefinite,
    special_case_000,
)

TERM = BaseTerm(coeff=1.0 + 0j, p=1.0, kind="sin", gamma=1.0)


def _spec(**kw):
    args = dict(n=1, m=1.0, h=1, k=0, l=2, alpha=1.2, beta=0.8, mu=2.0)
    args.update(kw)
    return IntegralSpec(**args)


POSITIVE_ENTRIES = {
    "sph_bessel_j": lambda x: sph_bessel_j(2, x),
    "sph_bessel_n": lambda x: sph_bessel_n(2, x),
    "antiderivative_base": lambda x: antiderivative_base(TERM, 1.0, x),
    "eval_indefinite": lambda x: eval_indefinite(_spec(), x),
    "special_case_000": lambda x: special_case_000(1, 1.0, 1.2, 0.8, 2.0, x),
    "z_antiderivative": lambda x: z_antiderivative(1, 1j, x),
}


@pytest.mark.parametrize("name", sorted(POSITIVE_ENTRIES))
@pytest.mark.parametrize("x", [0, -1, math.nan, math.inf],
                         ids=["0", "-1", "nan", "inf"])
def test_positive_argument_rule(name, x):
    with pytest.raises(DomainError, match="argument must be > 0"):
        POSITIVE_ENTRIES[name](x)


# entry point -> (call with the integer argument, error for a non-integer)
INTEGER_ENTRIES = {
    "IntegralSpec": (lambda v: eval_definite(_spec(h=v)).value, DomainError),
    "sph_bessel_j": (lambda v: sph_bessel_j(v, 1.3), DomainError),
    "sph_bessel_n": (lambda v: sph_bessel_n(v, 1.3), DomainError),
    "sph_bessel_j_at_zero": (sph_bessel_j_at_zero, DomainError),
    "legendre_p": (lambda v: legendre_p(v, 0.3), DomainError),
    "plane_wave_partial_sum": (lambda v: plane_wave_partial_sum(1.0, 0.3, v),
                               DomainError),
    "special_case_000": (lambda v: special_case_000(v, 1.0, 1.2, 0.8, 2.0, 1.5),
                         UnsupportedPowerError),
    "exp_integral_en": (lambda v: exp_integral_en(v, 1 + 1j), DomainError),
    "upper_incomplete_gamma": (lambda v: upper_incomplete_gamma(v, 1.0),
                               DomainError),
    "z_antiderivative": (lambda v: z_antiderivative(v, 1j, 1.0), DomainError),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRIES))
@pytest.mark.parametrize("v", [True, np.True_, 2.0],
                         ids=["True", "np.True_", "2.0"])
def test_integer_argument_rule(name, v):
    call, error = INTEGER_ENTRIES[name]
    with pytest.raises(error, match="integer"):
        call(v)


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRIES))
def test_integer_argument_rule_accepts_numpy_integers(name):
    call, _ = INTEGER_ENTRIES[name]
    assert repr(call(np.int64(2))) == repr(call(2))


DAMPING_ENTRIES = {
    "IntegralSpec": lambda m, imag: _spec(m=m, m_imaginary=imag),
    "IntegralSpec.damping": lambda m, imag: _spec(m=m, m_imaginary=imag).damping,
    "antiderivative_base": lambda m, imag: antiderivative_base(TERM, m, 1.5, imag),
    "special_case_000": lambda m, imag: special_case_000(
        1, m, 1.2, 0.8, 2.0, 1.5, m_imaginary=imag),
}


@pytest.mark.parametrize("name", sorted(DAMPING_ENTRIES))
@pytest.mark.parametrize("m,imag", [(-1.0, False), (math.nan, False),
                                    (math.inf, False), (0.5, True),
                                    (math.nan, True)],
                         ids=["-1", "nan", "inf", "0.5-imaginary",
                              "nan-imaginary"])
def test_damping_rule(name, m, imag):
    with pytest.raises(DomainError, match="m must be >= 0|set m=0"):
        DAMPING_ENTRIES[name](m, imag)


@pytest.mark.parametrize("name", sorted(DAMPING_ENTRIES))
@pytest.mark.parametrize("m,imag", [(0.0, False), (0.5, False), (0.0, True)])
def test_damping_rule_admits_valid_damping(name, m, imag):
    DAMPING_ENTRIES[name](m, imag)


@pytest.mark.parametrize("kw", [
    dict(m=0.0, m_imaginary=True),
    dict(n=-1.0),
    dict(n=-1.5, m=0.0),
    dict(n=2.0, m=0.0),
    dict(n=2.5, m=0.0),
], ids=["imaginary", "n=-1", "n=-1.5", "n=2,m=0", "n=2.5,m=0"])
def test_convergence_rule(kw):
    """eval_definite and quad_semi_infinite refuse the same integrals with
    the same message."""
    spec = _spec(**kw)
    messages = []
    for evaluate in (eval_definite, quad_semi_infinite):
        with pytest.raises(DivergenceError) as info:
            evaluate(spec)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
