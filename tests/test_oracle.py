import heapq
import math
import time

import numpy as np
import pytest

from tribessel.errors import DivergenceError, DomainError
from tribessel.expint import si
from tribessel.oracle import (
    _BATCH_SEGMENTS,
    _MAX_SEGMENTS,
    QuadConfig,
    _gk_segment,
    _gk_segments,
    finite_diff_derivative,
    quad_finite,
    quad_semi_infinite,
)
from tribessel.sphfun import _jl_vec
from tribessel.triple import IntegralSpec, eval_definite, integrand

THREE_PI_8 = 1.1780972450961725


def spec000(n, m, a=1.0, b=1.0, u=1.0):
    return IntegralSpec(n=n, m=m, h=0, k=0, l=0, alpha=a, beta=b, mu=u)


# --- config validation -------------------------------------------------------

def test_config_defaults_and_validation():
    cfg = QuadConfig()
    assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-10
    assert cfg.max_depth == 50
    with pytest.raises(DomainError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadConfig(rel_tol=-1e-3)
    with pytest.raises(DomainError):
        QuadConfig(max_depth=9)
    with pytest.raises(DomainError):
        QuadConfig(tail_policy="nonsense")


# --- single-segment rule ------------------------------------------------------

def test_rule_exact_on_high_degree_polynomials():
    # the embedded pair is exact through degree 13, the full rule well past it
    for deg in (13, 22):
        val, err = _gk_segment(lambda x: x**deg, 0.0, 1.0)
        assert abs(val - 1.0 / (deg + 1)) < 1e-15
    val, err = _gk_segment(lambda x: x**13, 0.0, 1.0)
    assert err < 1e-15  # embedded difference vanishes at degree 13


def test_rule_error_estimate_nonzero_when_inexact():
    val, err = _gk_segment(lambda x: np.exp(np.sin(9.0 * x)), 0.0, 3.0)
    assert err > 1e-12


BATCH_SPECS = {
    "real": IntegralSpec(n=1.5, m=0.7, h=2, k=1, l=3,
                         alpha=1.3, beta=1.1, mu=1.5),
    "m_imaginary": IntegralSpec(n=1, m=0.0, h=0, k=4, l=2, alpha=2.1,
                                beta=0.9, mu=1.7, m_imaginary=True),
}


@pytest.mark.parametrize("name", sorted(BATCH_SPECS))
def test_batched_rule_matches_single_segment_bits(name):
    f = integrand(BATCH_SPECS[name])
    rng = np.random.default_rng(41)
    lo = rng.uniform(1e-3, 30.0, 200)
    hi = lo + rng.exponential(2.0, 200) * rng.choice([1e-9, 1e-3, 1.0], 200)
    vals, errs = _gk_segments(f, lo, hi)
    for a, b, val, err in zip(lo.tolist(), hi.tolist(), vals, errs):
        want_val, want_err = _gk_segment(f, a, b)
        assert type(val) is complex and type(err) is float
        assert (val, err) == (want_val, want_err)
    assert any(v.imag != 0.0 for v in vals) == (name == "m_imaginary")


# --- quad_finite ---------------------------------------------------------------

def test_finite_elementary_integrals():
    r = quad_finite(lambda x: x, 0.0, 1.0)
    assert abs(r.value - 0.5) < 1e-13
    assert r.converged
    r = quad_finite(np.sin, 0.0, math.pi)
    assert abs(r.value - 2.0) < 1e-12


def test_finite_oscillatory_vs_si():
    f = lambda x: _jl_vec(0, np.asarray(x, dtype=float))
    r = quad_finite(f, 1e-12, 40 * math.pi)
    assert abs(r.value - si(40 * math.pi)) < 1e-9


def test_finite_split_additivity():
    spec = IntegralSpec(n=1, m=0.5, h=1, k=0, l=2,
                        alpha=1.1, beta=0.6, mu=1.9)
    f = integrand(spec)
    cfg = QuadConfig(abs_tol=1e-11, rel_tol=1e-11)
    rng = np.random.default_rng(20)
    a, b = 0.2, 9.0
    whole = quad_finite(f, a, b, cfg).value
    for _ in range(6):
        c = rng.uniform(a + 0.5, b - 0.5)
        parts = quad_finite(f, a, c, cfg).value + quad_finite(f, c, b, cfg).value
        assert abs(parts - whole) <= 2 * cfg.abs_tol


def test_finite_refinement_monotone_toward_reference():
    # halving the tolerance must tighten the guaranteed band around the
    # reference; the realized estimate stays inside its band at every level
    spec = IntegralSpec(n=0, m=0.0, h=0, k=1, l=0,
                        alpha=1.0, beta=2.3, mu=0.8)
    f = integrand(spec)
    ref = quad_finite(f, 0.1, 60.0, QuadConfig(abs_tol=1e-13, rel_tol=1e-13))
    bands, diffs = [], []
    for tol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 6.25e-6):
        est = quad_finite(f, 0.1, 60.0, QuadConfig(abs_tol=tol, rel_tol=tol))
        diffs.append(abs(est.value - ref.value))
        bands.append(est.err_estimate)
    assert all(b <= a for a, b in zip(bands, bands[1:]))
    assert all(d <= b for d, b in zip(diffs, bands))
    assert diffs[-1] <= diffs[0]


def _quad_finite_per_segment(f, a, b, config, points):
    """quad_finite's heap rules with one integrand call per segment."""
    edges = [a] + sorted(p for p in points if a < p < b) + [b]
    heap, done, seq, total, err_total = [], [], 0, 0j, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk_segment(f, lo, hi)
        heapq.heappush(heap, (-err, seq, lo, hi, val, 0))
        seq += 1
        total += val
        err_total += err
    bisections = 0
    while heap:
        tol = max(config.abs_tol, config.rel_tol * abs(total))
        if err_total <= tol or seq >= _MAX_SEGMENTS:
            break
        neg_err, _, lo, hi, val, depth = heapq.heappop(heap)
        if depth >= config.max_depth:
            done.append((lo, hi, val, -neg_err))
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk_segment(f, lo, mid)
        v2, e2 = _gk_segment(f, mid, hi)
        bisections += 1
        total += v1 + v2 - val
        err_total += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, depth + 1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, hi, v2, depth + 1))
        seq += 1
    segments = done + [(lo, hi, val, -ne) for ne, _, lo, hi, val, _ in heap]
    segments.sort(key=lambda s: s[0])
    value = sum((s[2] for s in segments), 0j)
    err = sum(s[3] for s in segments)
    converged = err <= max(config.abs_tol, config.rel_tol * abs(value))
    return value, err, converged, bisections


class _CountingIntegrand:
    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.f(x)


@pytest.mark.parametrize("name", sorted(BATCH_SPECS))
def test_finite_batched_rounds_match_per_segment_reference(name):
    # 2 * _BATCH_SEGMENTS + 1 initial segments: two full chunks and one more
    f = _CountingIntegrand(integrand(BATCH_SPECS[name]))
    # the wide first cell [0.5, 20] needs bisecting, the rest are narrow
    a, b = 0.5, 60.0
    points = np.linspace(20.0, b, 2 * _BATCH_SEGMENTS + 1)[:-1].tolist()
    cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-13)
    r = quad_finite(f, a, b, cfg, points=points)
    value, err, converged, bisections = _quad_finite_per_segment(
        f.f, a, b, cfg, points)
    assert bisections > 0
    assert (r.value, r.err_estimate, r.converged) == (value, err, converged)
    # one call per initial chunk, then one per bisection
    assert f.sizes == [15 * _BATCH_SEGMENTS] * 2 + [15] + [30] * bisections


def test_finite_integrand_calls_bounded_by_batch_size():
    f = _CountingIntegrand(np.cos)
    points = np.linspace(0.0, 100.0, 3 * _BATCH_SEGMENTS + 40)
    r = quad_finite(f, 0.0, 100.0, points=points)
    assert abs(r.value - math.sin(100.0)) < 1e-12
    assert max(f.sizes) == 15 * _BATCH_SEGMENTS
    assert sum(f.sizes) == 15 * (3 * _BATCH_SEGMENTS + 39)


def test_finite_max_depth_flag_not_exception():
    # integrable endpoint singularity starves a depth-10 budget
    f = lambda x: np.asarray(x, dtype=float) ** -0.9
    r = quad_finite(f, 1e-300, 1.0, QuadConfig(max_depth=10))
    assert not r.converged
    assert np.isfinite(r.value)


# --- quad_semi_infinite ---------------------------------------------------------

def test_semi_infinite_sinc_cubed():
    for policy in ("period_summation", "exponential_bound"):
        r = quad_semi_infinite(spec000(0, 0.0),
                               QuadConfig(tail_policy=policy))
        assert abs(r.value - THREE_PI_8) <= 1e-9, policy
        assert r.converged


def test_semi_infinite_tail_policies_agree_when_damped():
    for n in (0, 1.5, 3):
        vals = []
        for policy in ("period_summation", "exponential_bound"):
            r = quad_semi_infinite(spec000(n, 1.0, 1.0, 1.3, 0.7),
                                   QuadConfig(tail_policy=policy))
            vals.append(r.value)
        assert abs(vals[0] - vals[1]) <= 1e-9


def test_semi_infinite_origin_singular_but_integrable():
    r = quad_semi_infinite(spec000(-0.5, 1.0))
    assert np.isfinite(r.value)
    assert r.converged
    # analytic cross-check via closed form is in the triple suite; here
    # just pin the value against a tighter-tolerance rerun
    tight = quad_semi_infinite(spec000(-0.5, 1.0),
                               QuadConfig(abs_tol=1e-12, rel_tol=1e-12))
    assert abs(r.value - tight.value) <= 1e-9


def test_semi_infinite_divergence_preconditions():
    with pytest.raises(DivergenceError):
        quad_semi_infinite(spec000(-1, 1.0))
    with pytest.raises(DivergenceError):
        quad_semi_infinite(spec000(2, 0.0))
    with pytest.raises(DivergenceError):
        quad_semi_infinite(IntegralSpec(n=0, m=0, h=0, k=0, l=0,
                                        alpha=1, beta=1, mu=1,
                                        m_imaginary=True))


@pytest.mark.parametrize("m", [1e-9, 1e-300])
def test_semi_infinite_damped_tail_past_the_cap_raises(m):
    # the truncation point 5/m lies past _X_MAX: the oracle refuses at once
    # instead of laying out 5/m / (pi/3) breakpoints
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="past the cap"):
        quad_semi_infinite(spec000(0, m))
    assert time.perf_counter() - start < 1.0


def test_semi_infinite_underflowing_scale_is_an_overflow():
    s = spec000(0, 1.0, 1e-120, 1e-120, 1e-120)
    with pytest.raises(OverflowError, match="underflows"):
        quad_semi_infinite(s)
    with pytest.raises(OverflowError):
        eval_definite(s)


def test_semi_infinite_small_damping_inside_the_cap():
    s = spec000(0, 1e-4)
    r = quad_semi_infinite(s)
    assert r.converged
    assert abs(r.value.real - eval_definite(s).value.real) <= r.err_estimate


def test_semi_infinite_err_estimate_honest():
    # the reported estimate should cover the actual deviation from truth
    r = quad_semi_infinite(spec000(0, 0.0))
    assert abs(r.value - THREE_PI_8) <= 10 * max(r.err_estimate, 1e-15)


# --- finite differences --------------------------------------------------------

def test_finite_diff_derivative():
    assert abs(finite_diff_derivative(lambda x: x * x, 3.0, 1e-3) - 6.0) < 1e-10
    assert abs(finite_diff_derivative(math.sin, 0.0, 1e-3) - 1.0) < 1e-10
