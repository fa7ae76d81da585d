"""Spherical Bessel and related angular functions.

Real-argument spherical Bessel functions of the first (j_l) and second (n_l)
kind, spherical Hankel functions, Legendre polynomials, and the partial-wave
expansion of a plane wave. The j_l evaluator switches between a Taylor series
(small x), Miller-style downward recurrence (x below the order), and upward
recurrence (x above the order) so that all three regimes keep close to full
double precision.

`_jl_vec` is the only place the j_l regime is chosen, and every j_l value,
the plane-wave partial sum's included, goes through it. The regime is chosen
once per call: an array that lies in one regime goes straight to it, and only
an array spanning two is split. The series length is fixed by the largest
argument. The Miller recurrence checks for rescaling only once an a-priori
growth bound says it could be needed, and rescales each element on its own, so
a value never depends on the rest of its batch. j_l above its order and n_l at
every x share one upward recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_integer, check_positive

# Downward recurrence is renormalized whenever trial values exceed this.
_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250
# Bound (log10) on trial growth below which no value can reach the limit.
_RESCALE_LOG10_SAFE = 249.0

# The j_l series stops at the first term whose bound drops to _SERIES_TAIL.
_SERIES_TAIL = 5e-19
_SERIES_MAX_TERMS = 59

# Below this |sin x| the j_0 Miller normalization is ill-conditioned and the
# j_1 reference is used instead.
_J0_NORM_FLOOR = 0.1


def _jl_series(l: int, x: np.ndarray) -> np.ndarray:
    """Taylor series j_l(x) = x^l/(2l+1)!! * sum_k (-x^2/2)^k / (k! (2l+3)(2l+5)...).

    Accurate for x^2 <= 2l+3; the leading factor is computed in log space so
    extreme orders underflow gracefully to 0 instead of overflowing the
    double-factorial. There the sum alternates with decreasing terms and
    stays >= 1/2, so the term count is fixed once from the largest x^2: every
    term left out is below _SERIES_TAIL, far under half an ulp of the sum.
    """
    # log((2l+1)!!) = lgamma(2l+2) - l*log(2) - lgamma(l+1)
    log_dfact = math.lgamma(2 * l + 2) - l * math.log(2.0) - math.lgamma(l + 1)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        lead = np.exp(l * np.log(x) - log_dfact)
    x2 = x * x
    x2_max = float(x2.max())
    n_terms = _SERIES_MAX_TERMS
    bound = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        bound *= x2_max / (2.0 * k * (2 * l + 2 * k + 1))
        if bound <= _SERIES_TAIL:
            n_terms = k
            break
    neg_x2 = -x2
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, n_terms + 1):
        term *= neg_x2
        term /= 2.0 * k * (2 * l + 2 * k + 1)
        total += term
    return lead * total


def _upward(l: int, x: np.ndarray, f0: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Order l of f_{lam+1} = (2 lam + 1)/x f_lam - f_{lam-1}, with f_1 = f_0/x - g.

    j_l starts from (sin x/x, cos x/x) and n_l from (-cos x/x, sin x/x).
    """
    if l == 0:
        return f0
    fm, fc = f0, f0 / x - g
    for lam in range(1, l):
        fm, fc = fc, (2 * lam + 1) / x * fc - fm
    return fc


def _jl_upward(l: int, x: np.ndarray) -> np.ndarray:
    j0 = np.sin(x) / x
    return j0 if l == 0 else _upward(l, x, j0, np.cos(x) / x)


def _jl_downward(l: int, x: np.ndarray) -> np.ndarray:
    """Miller's algorithm: recurse down from a padded start order, then scale
    the trial values against j_0 (or j_1 where j_0 is near a zero).

    Trial values grow by at most a factor (2 lam + 1)/x + 1 per step, so the
    rescale check only starts once that running bound, taken at the smallest
    x, could pass _RESCALE_LIMIT. Each element is rescaled on its own, which
    keeps every result independent of the rest of the batch.
    """
    l_start = l + math.isqrt(40 * l - 1) + 1 + 20  # l + ceil(sqrt(40 l)) + 20
    inv_x_min = 1.0 / float(x.min())
    log_growth = 0.0
    jp = np.zeros_like(x)
    jc = np.ones_like(x)
    out = None
    for lam in range(l_start, 0, -1):
        jm = (2 * lam + 1) / x * jc - jp
        jp, jc = jc, jm
        if lam - 1 == l:
            out = jm.copy()
        if log_growth <= _RESCALE_LOG10_SAFE:
            log_growth += math.log10((2 * lam + 1) * inv_x_min + 1.0)
            if log_growth <= _RESCALE_LOG10_SAFE:
                continue
        big = np.abs(jc) > _RESCALE_LIMIT
        if big.any():
            jp[big] *= _RESCALE_FACTOR
            jc[big] *= _RESCALE_FACTOR
            if out is not None:
                out[big] *= _RESCALE_FACTOR
    sin_x = np.sin(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio0 = (sin_x / x) / jc
        ratio1 = (sin_x / (x * x) - np.cos(x) / x) / jp
        scale = np.where(np.abs(sin_x) >= _J0_NORM_FLOOR, ratio0, ratio1)
    return out * scale


def _jl_vec(l: int, x: np.ndarray) -> np.ndarray:
    """j_l over a positive float array, in the stable regime of each element.

    The regime is chosen once per call from the smallest and largest x; only
    an array that spans two regimes is split by masks.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.empty_like(x)
    series_cut = math.sqrt(2 * l + 3)
    x_min, x_max = float(x.min()), float(x.max())
    if x_max <= series_cut:
        return _jl_series(l, x)
    if x_min > series_cut:
        if l < 2 or x_min >= l + 2:
            return _jl_upward(l, x)
        if x_max < l + 2:
            return _jl_downward(l, x)
    out = np.empty_like(x)
    m_series = x <= series_cut
    m_up = (~m_series) & (x >= l + 2) if l >= 2 else ~m_series
    m_down = ~(m_series | m_up)
    if m_series.any():
        out[m_series] = _jl_series(l, x[m_series])
    if m_up.any():
        out[m_up] = _jl_upward(l, x[m_up])
    if m_down.any():
        out[m_down] = _jl_downward(l, x[m_down])
    return out


def sph_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function of the first kind, j_l(x).

    Parameters
    ----------
    l : int
        Order, l >= 0.
    x : float
        Argument, x > 0. Use sph_bessel_j_at_zero for the x = 0 limit.
    """
    l = check_integer(l, "order", 0)
    x = check_positive(x)
    return float(_jl_vec(l, np.array([x]))[0])


def sph_bessel_j_at_zero(l: int) -> float:
    """Limit value j_l(0): 1 for l = 0, exactly 0 for every l >= 1."""
    l = check_integer(l, "order", 0)
    return 1.0 if l == 0 else 0.0


def _nl_vec(l: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _upward(l, x, -np.cos(x) / x, np.sin(x) / x)


def sph_bessel_n(l: int, x: float) -> float:
    """Spherical Bessel function of the second kind, n_l(x), with n_0 = -cos(x)/x.

    Upward recurrence is stable for n_l at every x > 0. Raises OverflowError
    when the value exceeds double range (tiny x at large order).
    """
    l = check_integer(l, "order", 0)
    x = check_positive(x)
    val = float(_nl_vec(l, np.array([x]))[0])
    if not math.isfinite(val):
        raise OverflowError(f"n_{l}({x}) exceeds double-precision range")
    return val


def sph_hankel1(l: int, x: float) -> complex:
    """Spherical Hankel function h^(1)_l = j_l + i n_l."""
    return complex(sph_bessel_j(l, x), sph_bessel_n(l, x))


def sph_hankel2(l: int, x: float) -> complex:
    """Spherical Hankel function h^(2)_l = j_l - i n_l."""
    return complex(sph_bessel_j(l, x), -sph_bessel_n(l, x))


def _pl_all(l_max: int, u: float) -> np.ndarray:
    out = np.empty(l_max + 1)
    out[0] = 1.0
    if l_max == 0:
        return out
    out[1] = u
    for lam in range(1, l_max):
        out[lam + 1] = ((2 * lam + 1) * u * out[lam] - lam * out[lam - 1]) / (lam + 1)
    return out


def legendre_p(l: int, u: float) -> float:
    """Legendre polynomial P_l(u) on [-1, 1] by the three-term recurrence."""
    l = check_integer(l, "order", 0)
    u = float(u)
    if not -1.0 <= u <= 1.0:
        raise DomainError(f"Legendre argument must lie in [-1, 1], got {u}")
    return float(_pl_all(l, u)[l])


def plane_wave_partial_sum(kr: float, u: float, l_max: int) -> complex:
    """Partial sum sum_{l=0}^{l_max} (2l+1) i^l j_l(kr) P_l(u).

    Converges to exp(i * kr * u) as l_max grows; l_max >= ceil(kr) + 25 is
    enough for ~1e-8 absolute accuracy for kr <= 20.
    """
    l_max = check_integer(l_max, "order", 0)
    kr = float(kr)
    if kr < 0.0 or not math.isfinite(kr):
        raise DomainError(f"kr must be >= 0, got {kr!r}")
    u = float(u)
    if not -1.0 <= u <= 1.0:
        raise DomainError(f"direction cosine must lie in [-1, 1], got {u}")
    if kr == 0.0:
        return complex(1.0, 0.0)
    x = np.array([kr])
    js = [_jl_vec(lam, x)[0] for lam in range(l_max + 1)]
    ps = _pl_all(l_max, u)
    total = complex(0.0, 0.0)
    for lam in range(l_max + 1):
        total += (2 * lam + 1) * (1j ** lam) * js[lam] * ps[lam]
    return total
