import cmath
import math

import numpy as np
import pytest

from tribessel.errors import DomainError
from tribessel.sphfun import (
    _jl_series,
    _jl_vec,
    legendre_p,
    plane_wave_partial_sum,
    sph_bessel_j,
    sph_bessel_j_at_zero,
    sph_bessel_n,
    sph_hankel1,
    sph_hankel2,
)

# Frozen references from scripts/gen_reference_values.py (mpmath, dps=40).
J_REFERENCE = {
    (5, 0.1): 9.616310232916446e-10,
    (10, 0.5): 7.0641239636618782e-14,
    (50, 1.0): 3.6152747174897873e-81,
    (20, 100.0): 0.010107671283873054,
    (2, 25.0): 0.00051088497094747546,
    (400, 215.17): 3.3308516812561456e-71,
    (400, 401.9): 0.0044424142458540276,
}
N_REFERENCE = {
    (2, 0.1): -3005.0124791753455,
    (10, 0.5): -1349739281107.0558,
}


def central_diff(f, x, h):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def second_diff(f, x, h):
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


def test_j_closed_forms_low_order():
    assert abs(sph_bessel_j(0, math.pi)) < 1e-15
    assert math.isclose(sph_bessel_j(1, math.pi), 1.0 / math.pi, rel_tol=1e-13)
    x = 1.7
    assert math.isclose(sph_bessel_j(0, x), math.sin(x) / x, rel_tol=1e-14)
    j2 = (3 / x**3 - 1 / x) * math.sin(x) - (3 / x**2) * math.cos(x)
    assert math.isclose(sph_bessel_j(2, x), j2, rel_tol=1e-13)


@pytest.mark.parametrize("key,want", sorted(J_REFERENCE.items()))
def test_j_reference_values(key, want):
    l, x = key
    assert math.isclose(sph_bessel_j(l, x), want, rel_tol=1e-12)


@pytest.mark.parametrize("key,want", sorted(N_REFERENCE.items()))
def test_n_reference_values(key, want):
    l, x = key
    assert math.isclose(sph_bessel_n(l, x), want, rel_tol=1e-12)


def _regime_spanning_points(l):
    """Points in all three j_l regimes, with both regime boundaries exactly."""
    cut, up = math.sqrt(2 * l + 3), l + 2.0
    return np.concatenate([
        np.geomspace(1e-3, cut, 5), [cut, np.nextafter(cut, np.inf)],
        np.linspace(cut, up, 7)[1:-1], [np.nextafter(up, 0.0), up],
        np.linspace(up, 3.0 * up + 30.0, 5)[1:],
    ])


def _batch_inputs(l):
    x = _regime_spanning_points(l)
    cut, up = math.sqrt(2 * l + 3), l + 2.0
    return {
        "mixed": x,
        "reversed": x[::-1].copy(),
        "series_only": x[x <= cut],
        "downward_only": x[(x > cut) & (x < up)],
        "upward_only": x[x >= up],
        "empty": np.empty(0),
        # at l = 400 exactly the batch whose shared rescale gave NaN
        "wide": (l + 2) / 402 * np.array([28.34, 42.51, 215.17, 401.9]),
    }


@pytest.mark.parametrize("l", [0, 1, 2, 5, 8, 30, 100, 300, 400, 800])
def test_jl_vec_batch_invariance(l):
    # every element equals a one-element call bit for bit, whatever the batch
    for name, x in _batch_inputs(l).items():
        got = _jl_vec(l, x)
        assert got.shape == x.shape, name
        assert np.all(np.isfinite(got)), name
        for i in range(x.size):
            alone = _jl_vec(l, x[i:i + 1])[0]
            assert got[i] == alone, (name, x[i])


def _adaptive_series_sum(l, x):
    """Reference: the series sum stopped once every term is <= 1e-18 * sum."""
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 60):
        term = term * (-x * x) / (2.0 * k * (2 * l + 2 * k + 1))
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return total


@pytest.mark.parametrize("l", [0, 1, 2, 5, 8, 30, 100, 300])
def test_jl_series_fixed_length_matches_adaptive_sum(l):
    # dropped terms lie under half an ulp of the sum, so the bits agree
    x = np.linspace(1e-3, math.sqrt(2 * l + 3), 41)
    log_dfact = math.lgamma(2 * l + 2) - l * math.log(2.0) - math.lgamma(l + 1)
    lead = np.exp(l * np.log(x) - log_dfact)
    want = lead * _adaptive_series_sum(l, x)
    assert np.array_equal(_jl_series(l, x), want)
    for i in range(x.size):
        assert _jl_series(l, x[i:i + 1])[0] == want[i]


def test_n_closed_forms_low_order():
    assert abs(sph_bessel_n(0, math.pi / 2)) < 1e-15
    assert math.isclose(sph_bessel_n(0, math.pi), 1.0 / math.pi, rel_tol=1e-13)
    x = 2.3
    assert math.isclose(sph_bessel_n(0, x), -math.cos(x) / x, rel_tol=1e-14)
    n1 = -math.cos(x) / x**2 - math.sin(x) / x
    assert math.isclose(sph_bessel_n(1, x), n1, rel_tol=1e-13)


def test_j_at_zero_limit_convention():
    assert sph_bessel_j_at_zero(0) == 1.0
    assert sph_bessel_j_at_zero(1) == 0.0
    assert sph_bessel_j_at_zero(7) == 0.0


@pytest.mark.parametrize("kind", [sph_bessel_j, sph_bessel_n])
@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
def test_three_term_recurrence(kind, x):
    # y_{l-1} + y_{l+1} = ((2l+1)/x) y_l for both kinds
    for l in range(1, 21):
        lhs = kind(l - 1, x) + kind(l + 1, x)
        rhs = (2 * l + 1) / x * kind(l, x)
        scale = max(abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


@pytest.mark.parametrize("kind", [sph_bessel_j, sph_bessel_n])
@pytest.mark.parametrize("x", [1.0, 3.0, 10.0])
def test_ode_residual(kind, x):
    h = 1e-3
    for l in range(0, 11):
        f = lambda t: kind(l, t)
        y = f(x)
        yp = central_diff(f, x, h)
        ypp = second_diff(f, x, h)
        residual = ypp + (2 / x) * yp + (1 - l * (l + 1) / x**2) * y
        # residual scaled by |y|: n_l blows up at small x and finite
        # differences cannot do better than a relative comparison there
        assert abs(residual) <= 1e-6 * max(1.0, abs(y))


@pytest.mark.parametrize("x", [0.7, 2.0, 9.0])
def test_wronskian(x):
    # j_l n_l' - j_l' n_l = 1/x^2
    h = 1e-5
    for l in range(0, 11):
        jp = central_diff(lambda t: sph_bessel_j(l, t), x, h)
        np_ = central_diff(lambda t: sph_bessel_n(l, t), x, h)
        w = sph_bessel_j(l, x) * np_ - jp * sph_bessel_n(l, x)
        assert math.isclose(w, 1.0 / x**2, rel_tol=1e-8)


def test_small_x_leading_power():
    x = 1e-3
    dfact = 1.0
    for l in range(0, 9):
        dfact *= 2 * l + 1
        ratio = sph_bessel_j(l, x) * dfact / x**l
        assert abs(ratio - 1.0) <= 1e-4


@pytest.mark.parametrize("l", [0, 1, 3, 6, 10])
def test_large_x_sine_asymptote(l):
    x = 50.0 * l + 50.0
    err = abs(x * sph_bessel_j(l, x) - math.sin(x - l * math.pi / 2))
    assert err <= 2 * l * (l + 1) / x + 1e-12


def test_hankel_definitions_and_composition():
    for l in (0, 1, 4, 9):
        for x in (0.6, 2.0, 15.0):
            j = sph_bessel_j(l, x)
            n = sph_bessel_n(l, x)
            h1 = sph_hankel1(l, x)
            h2 = sph_hankel2(l, x)
            scale = max(1.0, abs(j), abs(n))
            assert abs(h1 - (j + 1j * n)) <= 1e-13 * scale
            assert abs(h2 - (j - 1j * n)) <= 1e-13 * scale
            assert abs((h1 + h2) - 2 * j) <= 1e-13 * scale


def test_hankel_low_order_closed_forms():
    x = math.pi
    assert abs(sph_hankel1(0, x) - 1j / math.pi) < 1e-14
    # h1_1(x) = -e^{ix} (1/x + i/x^2)
    x = 1.0
    want = -cmath.exp(1j) * (1 + 1j)
    assert abs(sph_hankel1(1, x) - want) < 1e-13


def test_legendre_explicit_values():
    assert legendre_p(0, 0.3) == 1.0
    assert math.isclose(legendre_p(1, -0.4), -0.4, rel_tol=1e-15)
    assert math.isclose(legendre_p(2, 0.5), -0.125, rel_tol=1e-14)
    assert math.isclose(legendre_p(10, 1.0), 1.0, rel_tol=1e-12)


def test_legendre_bounded_on_interval():
    for l in (3, 7, 12):
        for i in range(21):
            u = -1.0 + 0.1 * i
            assert abs(legendre_p(l, u)) <= 1.0 + 1e-12


def test_plane_wave_degenerate_and_reference_points():
    assert abs(plane_wave_partial_sum(0.0, 0.37, 8) - 1.0) < 1e-14
    assert abs(plane_wave_partial_sum(1.0, 1.0, 30) - cmath.exp(1j)) < 1e-12
    assert abs(plane_wave_partial_sum(5.0, -1.0, 60) - cmath.exp(-5j)) < 1e-10
    # small kr: the low orders sit in the j_l series regime
    for kr, u, l_max in ((1e-3, 0.3, 8), (1e-2, -0.7, 20)):
        assert abs(plane_wave_partial_sum(kr, u, l_max) - cmath.exp(1j * kr * u)) < 1e-15


def test_domain_errors():
    with pytest.raises(DomainError):
        sph_bessel_j(1, -1.0)
    with pytest.raises(DomainError):
        sph_bessel_j(1, 0.0)
    with pytest.raises(DomainError):
        sph_bessel_n(0, 0.0)
    with pytest.raises(DomainError):
        sph_hankel1(0, -2.0)
    with pytest.raises(DomainError):
        sph_bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        legendre_p(2, 1.5)
