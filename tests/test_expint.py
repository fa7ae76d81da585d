import cmath
import math
import time

import numpy as np
import pytest

from tribessel.errors import BranchCutError, DomainError
from tribessel.expint import (
    EULER_GAMMA,
    _SERIES_EPS,
    _ei_asymptotic,
    _ei_series,
    _en_series,
    _lower_gamma_int,
    ci,
    e1_complex,
    ei,
    exp_integral_en,
    li,
    si,
    upper_incomplete_gamma,
    z_antiderivative,
)
from tribessel.oracle import QuadConfig, quad_finite

# Frozen references from scripts/gen_reference_values.py (mpmath, dps=40).
EI_1 = 1.8951178163559368
EI_M1 = -0.21938393439552027
EI_2 = 4.9542343560018902
EI_ROOT = 0.37250741078136663
LI_2 = 1.0451637801174928
CI_1 = 0.33740392290096813
E1_1 = 0.21938393439552027
E1_2 = 0.04890051070806112
SI_40PI = 1.5628395867363207
SI_1E4 = 1.5708915453859619


def central_diff(f, x, h):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


# --- ei / li ---------------------------------------------------------------

def test_ei_reference_values():
    assert math.isclose(ei(1.0), EI_1, rel_tol=1e-12)
    assert math.isclose(ei(-1.0), EI_M1, rel_tol=1e-12)
    assert math.isclose(ei(2.0), EI_2, rel_tol=1e-12)


def test_ei_root_by_bisection():
    lo, hi = 0.3, 0.45
    assert ei(lo) < 0 < ei(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ei(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - EI_ROOT) <= 1e-6
    assert abs(ei(root)) <= 1e-10


def test_ei_wide_range_against_e1():
    # Ei(-x) = -E_1(x): for x <= 4 it ties _ei_series to the E_1 series;
    # for x > 4 both sides run the same E_1 continued fraction
    for x in (0.3, 1.0, 3.9, 4.1, 12.0, 35.0, 50.0):
        lhs = ei(-x)
        rhs = -e1_complex(complex(x, 0.0)).real
        assert math.isclose(lhs, rhs, rel_tol=1e-11)


def test_ei_switchover_overlap():
    # series and asymptotic branches agree where the split occurs
    for x in (38.0, 40.0, 42.0):
        assert math.isclose(_ei_series(x), _ei_asymptotic(x), rel_tol=1e-11)


def test_ei_domain_error_at_zero():
    with pytest.raises(DomainError):
        ei(0.0)


def test_li_is_ei_of_log():
    assert math.isclose(li(math.e), EI_1, rel_tol=1e-12)
    assert math.isclose(li(2.0), LI_2, rel_tol=1e-12)
    assert math.isclose(li(math.e**2), EI_2, rel_tol=1e-11)


def test_li_domain_errors():
    for bad in (0.0, -2.0, 1.0):
        with pytest.raises(DomainError):
            li(bad)


def test_fig1_qualitative_grid():
    xs = [x for x in np.linspace(-4.0, 4.0, 401) if x != 0.0]
    vals = [ei(x) for x in xs]
    neg = [(x, v) for x, v in zip(xs, vals) if x < 0]
    pos = [(x, v) for x, v in zip(xs, vals) if x > 0]
    # negative on x < 0
    assert all(v < 0 for _, v in neg)
    # exactly one sign change on (0, 1)
    unit = [v for x, v in pos if x < 1.0]
    flips = sum(1 for a, b in zip(unit, unit[1:]) if (a < 0) != (b < 0))
    assert flips == 1
    # increasing on (0, inf)
    pv = [v for _, v in pos]
    assert all(b > a for a, b in zip(pv, pv[1:]))
    # concave on (-4, 0): second difference negative
    nv = [v for _, v in neg]
    second = [a - 2 * b + c for a, b, c in zip(nv, nv[1:], nv[2:])]
    assert all(s < 0 for s in second)


# --- z_antiderivative ------------------------------------------------------

def test_z_antiderivative_elementary_cases():
    # n >= 0 integrates from 0: e^x - 1 and (x-1)e^x + 1 at x = 1
    assert abs(z_antiderivative(0, 1.0, 1.0) - (math.e - 1.0)) < 1e-14
    assert abs(z_antiderivative(1, 1.0, 1.0) - 1.0) < 1e-14
    assert abs(z_antiderivative(-1, 1.0, 2.0) - EI_2) < 1e-12


def test_z_antiderivative_zero_scale_branches():
    assert abs(z_antiderivative(-1, 0.0, 2.0) - math.log(2.0)) < 1e-15
    assert abs(z_antiderivative(2, 0.0, 3.0) - 9.0) < 1e-13
    assert abs(z_antiderivative(-3, 0.0, 2.0) - (-1.0 / 8.0)) < 1e-15


def test_z_antiderivative_recursion_identity():
    # Z_n = x^n e^x - n Z_{n-1}
    for x in (0.5, 1.0, 3.0):
        for n in range(1, 11):
            lhs = z_antiderivative(n, 1.0, x)
            rhs = x**n * math.exp(x) - n * z_antiderivative(n - 1, 1.0, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("c", [1.0, -1.0 + 2.0j, -2.0])
@pytest.mark.parametrize("x", [0.7, 1.5, 4.0])
def test_z_antiderivative_is_an_antiderivative(c, x):
    for n in range(-3, 6):
        f = lambda t: z_antiderivative(n, c, t)
        want = x**n * cmath.exp(c * x)
        got = central_diff(f, x, 1e-4)
        assert abs(got - want) <= 1e-7 * (1.0 + abs(want))


def test_z_antiderivative_branch_cut_flag():
    # c x on the positive axis puts the E_n argument on its cut: the real
    # principal value -e^x/x + Ei(x) of int x^-2 e^x dx is returned
    val = z_antiderivative(-2, 1.0, 2.0)
    assert val.imag == 0.0
    assert abs(val - (-math.exp(2.0) / 2.0 + EI_2)) < 1e-12
    # off the cut the E_n form is finite
    val = z_antiderivative(-2, -1.5, 2.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


# Frozen references from scripts/gen_reference_values.py (mpmath, dps=40):
# (n, Re c, Im c, a, b, Re, Im) of int_a^b t^n e^(ct) dt = F(b) - F(a) with
# F = z_antiderivative(n, c, .) and F(0) = 0 for n >= 0.
Z_ANTIDERIVATIVE_REFS = [
    (5, 0.001, 0.0, 1.0, 2.0, 10.518158804110084, 0.0),
    (8, -0.0001, 0.0001, 0.5, 1.5, 4.2706907204897149, 0.00057656199490377409),
    (12, 0.0, 0.01, 1.0, 1.1, 0.18862565653315048, 0.0019981756495989853),
    (3, -1e-06, 0.0, 1.0, 2.0, 3.74999380000525, 0.0),
    (19, 0.0, 1.0, 0.0, 12.0, 7.6687766984352342e+19, -1.4895246362782822e+20),
    (24, -0.01, -1.5, 0.0, 10.0, -1.0235241756671925e+23, -2.9907065447876076e+23),
    (29, 0.0, 2.0, 0.0, 12.5, 1.4282856883756469e+31, -1.5431594501013812e+31),
    (34, -0.02, 1.0, 0.0, 30.0, -3.2404641841035931e+49, -5.1719267344449953e+49),
    (39, 0.0, -3.0, 0.0, 11.0, 5.5134823524056077e+39, -6.903458405062635e+39),
    (44, -0.01, 2.5, 0.0, 4.0, -2.4208335814667257e+25, -9.1286905413723262e+24),
    (49, 0.0, 1.0, 0.0, 12.0, 1.2381586115746786e+52, -1.2695087942928143e+52),
    (54, -0.05, -2.0, 0.0, 7.0, 1.417454577614995e+44, -3.5074338152722239e+44),
    (58, 0.0, 4.0, 0.0, 4.0, -5.4447612240736653e+33, -1.6831420587263113e+32),
    (58, -0.02, 1.0, 0.0, 15.0, -1.7355189197779297e+67, 2.4503508565614814e+67),
]


@pytest.mark.parametrize("n,c_re,c_im,a,b,re,im", Z_ANTIDERIVATIVE_REFS)
def test_z_antiderivative_against_mpmath(n, c_re, c_im, a, b, re, im):
    c = complex(c_re, c_im)
    got = z_antiderivative(n, c, b)
    if a > 0.0:
        got -= z_antiderivative(n, c, a)
    want = complex(re, im)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_z_antiderivative_overflows_only_with_its_value():
    # x^171 overflows at x = 87, x^171 e^{-174} does not (LOWER_GAMMA_REFS
    # holds the value); at n = 10**17 the value itself leaves double range
    want = 1.4549875709251195e+255
    assert abs(z_antiderivative(170, -2.0, 87.0) - want) <= 1e-13 * want
    with pytest.raises(OverflowError):
        z_antiderivative(10**17, -1.0, 2.0)


# --- incomplete gamma / E_n ------------------------------------------------

def test_upper_gamma_explicit_values():
    assert abs(upper_incomplete_gamma(1, 0.0) - 1.0) < 1e-15
    assert abs(upper_incomplete_gamma(3, 0.0) - 2.0) < 1e-15
    z = 1.0 + 1.0j
    want = cmath.exp(-z) * (1 + z)  # (s-1)! e^{-z} sum z^k/k! at s = 2
    assert abs(upper_incomplete_gamma(2, z) - want) < 1e-14
    assert abs(upper_incomplete_gamma(1, 0.3 - 2j) - cmath.exp(-0.3 + 2j)) < 1e-14


def test_upper_gamma_recurrence_on_complex_grid():
    # Gamma(s+1, z) = s Gamma(s, z) + z^s e^{-z}
    res = [r * 1.0 for r in (-2, -1, 0.5, 1, 3)]
    ims = [r * 1.0 for r in (-3, -1, 0, 1, 2)]
    for s in range(1, 11):
        for re in res:
            for im in ims:
                z = complex(re, im)
                lhs = upper_incomplete_gamma(s + 1, z)
                rhs = s * upper_incomplete_gamma(s, z) + z**s * cmath.exp(-z)
                assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_e1_reference_values():
    assert abs(e1_complex(1.0 + 0j) - E1_1) < 1e-12
    assert abs(e1_complex(2.0 + 0j) - E1_2) < 1e-12
    # leading asymptotic term: z e^z E_1(z) -> 1
    z = 100.0 + 0j
    assert abs(z * cmath.exp(z) * e1_complex(z) - 1.0) < 0.02


def test_e1_branch_cut_rejected():
    with pytest.raises(BranchCutError):
        e1_complex(-2.0 + 0j)
    with pytest.raises(DomainError):
        e1_complex(0.0 + 0j)
    # z = 0 is a pole of E_0 and E_1, not a point of the cut
    for n in (0, 1):
        with pytest.raises(DomainError, match="singular"):
            exp_integral_en(n, 0)


NON_FINITE_CALLS = {
    "E_1(inf)": lambda: exp_integral_en(1, math.inf),
    "E_2(nan)": lambda: exp_integral_en(2, math.nan),
    "E_1(1+inf j)": lambda: exp_integral_en(1, complex(1.0, math.inf)),
    "E_0(inf)": lambda: exp_integral_en(0, math.inf),
    "Gamma(3, nan)": lambda: upper_incomplete_gamma(3, math.nan),
    "Gamma(3, inf)": lambda: upper_incomplete_gamma(3, math.inf),
    "si(inf)": lambda: si(math.inf),
    "si(nan)": lambda: si(math.nan),
    "ci(inf)": lambda: ci(math.inf),
    "e1_complex(inf)": lambda: e1_complex(math.inf),
    "z_antiderivative(c=inf)": lambda: z_antiderivative(2, math.inf, 1.0),
    "z_antiderivative(c=nan)": lambda: z_antiderivative(-2, complex(math.nan, 1.0), 1.0),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_argument_is_a_domain_error(name):
    # raised up front: no continued fraction runs to its iteration cap
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE_CALLS[name]()


@pytest.mark.parametrize("n", [-3, -1, 0, 2])
@pytest.mark.parametrize("c", [-1e308 + 1j, 1e308 - 1j, 1e200j, 1e308])
def test_z_antiderivative_overflowing_scale_is_an_overflow(n, c):
    # c and x are finite and valid; only the argument -c*x overflows
    with pytest.raises(OverflowError, match="double-precision range"):
        z_antiderivative(n, c, 1e308)


def _lower_gamma_tail(s, z, terms):
    """K(s, -z, 1) = e^-z sum_j z^j / (s (s+1) ... (s+j)), to a fixed length."""
    return cmath.exp(-z) * sum(z ** j / math.prod(range(s, s + j + 1))
                               for j in range(terms))


@pytest.mark.parametrize("z", [0.5, 3 + 1j, 6.0, 20.0])
def test_incomplete_gamma_at_the_last_finite_factorial(z):
    # 170! is the largest factorial below 1.8e308: s = 171 still computes
    upper = upper_incomplete_gamma(171, z)
    want = math.factorial(170) * cmath.exp(-z) * sum(
        z ** k / math.factorial(k) for k in range(171))
    assert abs(upper - want) <= 1e-13 * abs(want)
    # the lower kernel forms no z^s/s!, which underflows at z = 0.5, and no
    # (s-1)! - Gamma(s, z), which cancels at z = 20
    want = _lower_gamma_tail(171, z, 60)
    assert abs(_lower_gamma_int(171, -z, 1.0) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("s", [172, 10**17])
def test_incomplete_gamma_past_the_factorial_range_raises_up_front(s):
    # (s-1)! overflows for s >= 172; the raise comes before the s-term sum,
    # so s = 10**17 does not loop 10**17 times first. The lower kernel needs
    # (s-1)! only in its complement, |z| >= s + 8; below that its series
    # returns at once.
    for z in (0.5, 3 + 1j, 20.0):
        with pytest.raises(OverflowError, match="double-precision range"):
            upper_incomplete_gamma(s, z)
        start = time.perf_counter()
        # at s = 10**17 three terms reach double precision
        want = _lower_gamma_tail(s, z, 60 if s == 172 else 3)
        assert abs(_lower_gamma_int(s, -z, 1.0) - want) <= 1e-13 * abs(want)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(OverflowError, match="double-precision range"):
        _lower_gamma_int(s, -2.0 * s - 8.0, 1.0)


@pytest.mark.parametrize("s", [10**12, 10**17])
def test_lower_gamma_underflowed_series_returns_at_once(s):
    # x^s e^{cx} = e^{-s} underflows to 0 and the series would need about
    # sqrt(83 s) steps to settle at |cx| = s: the zero returns at once
    start = time.perf_counter()
    value = _lower_gamma_int(s, -float(s), 1.0)
    assert time.perf_counter() - start < 1.0
    assert (value.real.hex(), value.imag.hex()) == ("0x0.0p+0", "0x0.0p+0")


# Frozen references from scripts/gen_reference_values.py (mpmath, dps=40):
# (s, m, g, x, Re K, Im K) for K(s, c, x) = int_0^x t^(s-1) e^(ct) dt at
# c = -m + i g, on both sides of the series/complement line |cx| = s + 8.
LOWER_GAMMA_REFS = [
    (1, 0.0, 2.5, 1.08, 0.17095195209353191, 0.76162885680682449),
    (1, 0.0, 2.5, 3.492, 0.25608595427742864, 0.70727834941925005),
    (1, 0.0, 2.5, 3.708, 0.061664287266891779, 0.79521831394289694),
    (1, 0.0, 2.5, 5.76, 0.38626311061971108, 0.50392694248550199),
    (2, 0.5, -2.5, 1.177, -0.11382092469320804, -0.34337611012858731),
    (2, 0.5, -2.5, 3.805, -0.13951970132052458, -0.28743714029002259),
    (2, 0.5, -2.5, 4.04, -0.25828745343512114, -0.2401873588486986),
    (2, 0.5, -2.5, 6.276, -0.12530923938559465, -0.16614225873041048),
    (3, 1.0, 2.5, 1.226, -0.11549439533199433, 0.16772225791088588),
    (3, 1.0, 2.5, 3.963, -0.12563929934297173, 0.071806284694095792),
    (3, 1.0, 2.5, 4.208, -0.17365832344141849, 0.024059760040592437),
    (3, 1.0, 2.5, 6.536, -0.10154914356387008, -0.020150153666787552),
    (5, 2.0, -2.5, 1.218, -0.04754689802364341, -0.045568105983755603),
    (5, 2.0, -2.5, 3.939, -0.01709954018647659, 0.03483214050451068),
    (5, 2.0, -2.5, 4.182, -0.031741085712920458, 0.047517376646021029),
    (5, 2.0, -2.5, 6.497, -0.016440071637365959, 0.068013410870144521),
    (9, 0.0, 2.5, 2.04, -6.0695407351299688, -61.117562747877394),
    (9, 0.0, 2.5, 6.596, -1246538.2743335798, 409758.32135363308),
    (9, 0.0, 2.5, 7.004, -1670257.5256828618, -1341135.457888583),
    (9, 0.0, 2.5, 10.88, 53644448.886902393, 53880462.530596393),
    (17, 0.5, -2.5, 9.512, -11051771633186.294, 8911623465907.3617),
    (17, 0.5, -2.5, 10.1, 14469179194070.453, 24001872096466.577),
    (30, 1.0, 2.5, 13.69, -3.9503450491588208e+25, 3.7732646946651586e+26),
    (30, 1.0, 2.5, 14.54, -7.7406391836470281e+26, -5.4545028211441749e+26),
    (46, 2.0, -2.5, 16.36, -3.5984894677473732e+39, -9.4079258626005464e+39),
    (46, 2.0, -2.5, 17.37, -6.2281143393212391e+39, 1.9118285239082325e+40),
    (61, 0.0, 8.0, 8.366, -2.0749309391031101e+54, -2.5470025088844725e+53),
    (61, 0.0, 8.0, 8.884, 3.6194075629605766e+55, 7.0111960388651468e+55),
    (100, 0.5, -8.0, 13.07, -4.4099472153584302e+106, 2.022686387705184e+105),
    (100, 0.5, -8.0, 21.56, -4.1518510830460901e+125, -2.4578191112719494e+126),
    (140, 1.0, 8.0, 17.81, -1.1835128823562121e+165, -2.9756387205365899e+164),
    (140, 1.0, 0.0, 152.4, 8.1958856846211159e+238, 0.0),
    (171, 2.0, -8.0, 21.06, -2.4263048256003702e+205, 4.3066609121721438e+205),
    (171, 2.0, 0.0, 92.19, 2.0533198066698705e+255, 0.0),
    (172, 0.0, 8.0, 4.5, -4.197808543752021e+109, -1.2114064222001135e+110),
    (240, 0.5, -8.0, 2.785, -5.825551276984507e+103, 1.1574479305163685e+103),
    (300, 1.0, 8.0, 2.101, -1.1017181765741011e+93, -1.8936269064224574e+93),
    (300, 2.0, 0.0, 0.5082, 7.8222017780025433e-92, 0.0),
    (171, 0.5, 0.0, 1.0, 0.0035573037473033534, 0.0),
    (171, 2.0, 0.0, 87.0, 1.4549875709251195e+255, 0.0),
]


@pytest.mark.parametrize("s,m,g,x,re,im", LOWER_GAMMA_REFS)
def test_lower_gamma_kernel_against_mpmath(s, m, g, x, re, im):
    want = complex(re, im)
    assert abs(_lower_gamma_int(s, complex(-m, g), x) - want) <= 1e-13 * abs(want)


def _lower_gamma_complement_reference(s, c, x):
    """(-c)^-s ((s-1)! - Gamma(s, -cx)): the integral as the kernel formed it
    wherever |cx| > 8 before it had a series for |cx| < s + 8."""
    z = complex(-c * x)
    return (-c) ** (-s) * (math.factorial(s - 1) - upper_incomplete_gamma(s, z))


def test_lower_gamma_complement_is_bit_for_bit():
    # every point with |cx| >= s + 8 keeps the complement's operations
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(4000):
        s = int(rng.integers(1, 172))
        c = complex(-float(rng.choice([0.0, 0.5, 1.0, 2.0])), rng.uniform(-9, 9))
        x = float(rng.uniform(0.05, 40.0))
        if abs(c * x) < s + 8:
            continue
        try:
            want = _lower_gamma_complement_reference(s, c, x)
        except OverflowError:
            with pytest.raises(OverflowError):
                _lower_gamma_int(s, c, x)
            continue
        got = _lower_gamma_int(s, c, x)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        checked += 1
    assert checked > 500


def test_minus_infinity_stays_on_the_branch_cut():
    with pytest.raises(BranchCutError):
        exp_integral_en(1, -math.inf)


@pytest.mark.parametrize("z", [1.0 + 0j, 2.0 + 1.0j])
def test_e1_matches_integral_representation(z):
    # E_1(z) = int_1^inf e^{-zt}/t dt, mapped to [0,1] by t = 1/u
    f = lambda u: np.exp(-z / u) / u
    got = quad_finite(f, 1e-9, 1.0, QuadConfig(abs_tol=1e-12, rel_tol=1e-12))
    assert abs(got.value - e1_complex(z)) <= 1e-8


def test_en_series_cf_consistency():
    # both regimes must agree with the recurrence E_{n+1} = (e^{-z} - z E_n)/n
    for z in (0.5 + 0.5j, 3.0 - 2.0j, 8.0 + 1.0j, -2.0 + 0.4j):
        for n in range(1, 6):
            lhs = exp_integral_en(n + 1, z)
            rhs = (cmath.exp(-z) - z * exp_integral_en(n, z)) / n
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _e1_series_reference(z):
    """-gamma - Log z + sum_{k>=1} (-1)^(k+1) z^k / (k k!), the E_1 series
    written for n = 1 alone (the reference for _en_series at n = 1)."""
    total = -EULER_GAMMA - cmath.log(z)
    term = complex(1.0)
    for k in range(1, int(3 * abs(z)) + 160):
        term *= -z / k
        piece = -term / k
        total += piece
        if k > abs(z) and abs(piece) <= _SERIES_EPS * max(abs(total), 1e-30):
            return total
    raise ArithmeticError


def _en_series_reference(n, z):
    """_en_series with H_{n-1}, -z and |z| recomputed inline (the reference
    for the per-n harmonic cache and the per-call constants), and
    _e1_series_reference at n = 1."""
    if n == 1:
        return _e1_series_reference(z)
    harm = sum(1.0 / k for k in range(1, n))
    lead = (-z) ** (n - 1) / math.factorial(n - 1)
    total = lead * (-cmath.log(z) - EULER_GAMMA + harm)
    term = complex(1.0)
    for m in range(0, int(3 * abs(z)) + 160):
        if m > 0:
            term *= -z / m
        if m == n - 1:
            continue
        piece = -term / (m - n + 1)
        total += piece
        if m > abs(z) and abs(piece) <= _SERIES_EPS * max(abs(total), 1e-30):
            return total
    raise ArithmeticError


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_en_series_matches_inline_reference_bit_for_bit():
    # |z| <= 4 on 16 rays between the axes, four per quadrant, the positive
    # real axis (the negative one is the branch cut) and the near-axis points
    # where the series is preferred far out
    zs = [cmath.rect(r, math.pi * (2 * j + 1) / 16)
          for r in (1e-3, 0.3, 1.0, 2.2, 3.0, 4.0) for j in range(16)]
    zs += [complex(1.5), complex(3.0), complex(4.0)]
    zs += [-10 + 0.5j, -10 - 0.5j, -40 + 2j, -4 + 1e-9j, -250 - 3j]
    for n in range(1, 31):
        for z in zs:
            assert _bits(_en_series(n, z)) == _bits(_en_series_reference(n, z)), (n, z)


_ORDER_CALLS = {
    "exp_integral_en": lambda n: exp_integral_en(n, 1 + 1j),
    "upper_incomplete_gamma": lambda n: upper_incomplete_gamma(n, 1.0),
    "z_antiderivative": lambda n: z_antiderivative(n, 1j, 1.0),
}


@pytest.mark.parametrize("name", sorted(_ORDER_CALLS))
@pytest.mark.parametrize("cast", [np.int64, np.int32, np.uint8])
def test_numpy_integer_orders_match_int(name, cast):
    call = _ORDER_CALLS[name]
    for n in (1, 2):
        assert _bits(call(cast(n))) == _bits(call(n))


@pytest.mark.parametrize("name", sorted(_ORDER_CALLS))
@pytest.mark.parametrize("bad", [True, False, 2.0, np.float64(2.0), "2"],
                         ids=["True", "False", "float", "np.float64", "str"])
def test_bool_and_non_integer_orders_rejected(name, bad):
    with pytest.raises(DomainError, match="integer"):
        _ORDER_CALLS[name](bad)


# --- si / ci ----------------------------------------------------------------

def test_si_reference_values():
    assert si(0.0) == 0.0
    assert math.isclose(si(40 * math.pi), SI_40PI, rel_tol=1e-11)
    assert abs(si(1e4) - math.pi / 2) <= 2e-4
    assert math.isclose(si(1e4), SI_1E4, rel_tol=1e-10)
    assert math.isclose(si(-2.0), -si(2.0), rel_tol=1e-15)


def test_ci_reference_value_and_domain():
    assert math.isclose(ci(1.0), CI_1, rel_tol=1e-11)
    with pytest.raises(DomainError):
        ci(0.0)
    with pytest.raises(DomainError):
        ci(-1.0)


def test_si_ci_are_antiderivatives():
    for x in (0.8, 3.0, 20.0):
        ds = central_diff(si, x, 1e-4)
        dc = central_diff(ci, x, 1e-4)
        assert abs(ds - math.sin(x) / x) < 1e-10
        assert abs(dc - math.cos(x) / x) < 1e-10
