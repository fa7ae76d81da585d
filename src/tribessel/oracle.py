"""Quadrature oracle used to verify the closed forms.

The quadrature works directly on the integrand as a black box: adaptive
Gauss-Kronrod 15/7 on finite intervals, plus two independent tail policies
for the semi-infinite range (cell summation with repeated averaging for the
undamped case, analytic truncation bounds otherwise). Only x^n, the
integrand's singular part at the origin when h = k = l = 0 and n < 0, is
integrated analytically. One part is not independent: the m = 0
exponential-bound tail bound reads the closed form's reduce_orders, so a
fault in the reduction would also loosen that bound. The closed-form
modules never call into this one.

`quad_finite` evaluates each refinement round in one integrand call: the
initial segments together (in chunks of `_BATCH_SEGMENTS`), then both halves
of each bisection. The period-summation tail keeps the one-segment kernel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .triple import EvalResult, IntegralSpec, integrand, reduce_orders

# Gauss-Kronrod 15-point nodes/weights with the embedded 7-point Gauss rule,
# generated at 60-digit precision from the Stieltjes polynomial E_8 (see
# scripts/gen_kronrod.py) and locked by degree-of-exactness tests.
_GK_NODES = np.array([
    -0.99145537112081264, -0.94910791234275852, -0.86486442335976907,
    -0.74153118559939444, -0.58608723546769113, -0.40584515137739717,
    -0.20778495500789847, 0.0, 0.20778495500789847, 0.40584515137739717,
    0.58608723546769113, 0.74153118559939444, 0.86486442335976907,
    0.94910791234275852, 0.99145537112081264,
])
_GK_WEIGHTS = np.array([
    0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478541,
    0.20443294007529889, 0.20948214108472783, 0.20443294007529889,
    0.19035057806478541, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225018, 0.063092092629978553, 0.022935322010529225,
])
_G7_WEIGHTS = np.array([
    0.0, 0.12948496616886969, 0.0, 0.27970539148927667, 0.0,
    0.38183005050511894, 0.0, 0.41795918367346939, 0.0,
    0.38183005050511894, 0.0, 0.27970539148927667, 0.0,
    0.12948496616886969, 0.0,
])

_MAX_SEGMENTS = 20000
# Farthest truncation point of either truncating tail: the damped tail raises
# past it, and the m = 0 exponential bound stops unconverged at its first step
# past it.
_X_MAX = 3.0e5
# Segments per batched integrand call: caps one call at 15 * 256 nodes, so a
# long exponential_bound body (x_max up to _X_MAX) never builds one huge array.
_BATCH_SEGMENTS = 256


@dataclass
class QuadConfig:
    """Tolerances and policies for the quadrature oracle."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 50
    tail_policy: str = "period_summation"  # or "exponential_bound"

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_depth < 10:
            raise DomainError(f"max_depth must be >= 10, got {self.max_depth}")
        if self.tail_policy not in ("period_summation", "exponential_bound"):
            raise DomainError(f"unknown tail_policy {self.tail_policy!r}")


def _gk_segment(f, a: float, b: float):
    """Kronrod-15 value and |K15 - G7| error estimate on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * _GK_NODES))
    k15 = half * np.sum(_GK_WEIGHTS * y)
    g7 = half * np.sum(_G7_WEIGHTS * y)
    return complex(k15), abs(complex(k15) - complex(g7))


def _gk_segments(f, lo, hi):
    """`_gk_segment` on every [lo[i], hi[i]] with one call of f.

    Returns a list of values and a list of errors, each bit-identical to
    the one-segment kernel (same node arithmetic, same pairwise sum, and
    hypot for the error, as Python's complex abs uses).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GK_NODES
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    k15 = (half * np.sum(_GK_WEIGHTS * y, axis=1)).astype(complex)
    d = k15 - half * np.sum(_G7_WEIGHTS * y, axis=1)
    return k15.tolist(), np.hypot(d.real, d.imag).tolist()


def quad_finite(f, a: float, b: float, config: QuadConfig | None = None,
                points=None) -> EvalResult:
    """Adaptive GK15/7 integral of a vectorized callable over [a, b].

    Always bisects the segment with the worst current error estimate; the
    final value is the deterministic left-to-right sum over segments.
    `points` optionally pre-splits at interior breakpoints.
    """
    if config is None:
        config = QuadConfig()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not b > a:
        raise DomainError(f"need finite a < b, got [{a!r}, {b!r}]")
    edges = [a]
    if points is not None:
        edges.extend(p for p in sorted(float(p) for p in points) if a < p < b)
    edges.append(b)

    heap = []
    seq = 0
    done = []  # segments at max_depth, no longer refined
    total = 0j
    err_total = 0.0
    n_initial = len(edges) - 1
    for start in range(0, n_initial, _BATCH_SEGMENTS):
        stop = min(start + _BATCH_SEGMENTS, n_initial)
        los, his = edges[start:stop], edges[start + 1:stop + 1]
        vals, errs = _gk_segments(f, los, his)
        for lo, hi, val, err in zip(los, his, vals, errs):
            heapq.heappush(heap, (-err, seq, lo, hi, val, 0))
            seq += 1
            total += val
            err_total += err

    while heap:
        tol = max(config.abs_tol, config.rel_tol * abs(total))
        if err_total <= tol or seq >= _MAX_SEGMENTS:
            break
        neg_err, _, lo, hi, val, depth = heapq.heappop(heap)
        if depth >= config.max_depth:
            done.append((lo, hi, val, -neg_err))
            continue
        mid = 0.5 * (lo + hi)
        (v1, v2), (e1, e2) = _gk_segments(f, (lo, mid), (mid, hi))
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
    return EvalResult(value=value, method="gk_adaptive", err_estimate=err,
                      converged=converged)


def _origin_piece(f, spec: IntegralSpec, x0: float,
                  config: QuadConfig) -> EvalResult:
    """Integral of f ~ x^(n+h+k+l) over [0, x0]. Where that power is
    negative (h = k = l = 0, n < 0), quadrature sees f - x^n and x^n's
    integral x0^(n+1)/(n+1) is added, its rounding counted in the error."""
    n = float(spec.n)
    if n + spec.h + spec.k + spec.l >= 0.0:
        return quad_finite(f, 0.0, x0, config)
    head = quad_finite(lambda x: f(x) - np.asarray(x, dtype=float) ** n,
                       0.0, x0, config)
    power = x0 ** (n + 1.0) / (n + 1.0)
    head.value += power
    head.err_estimate += 4.4e-16 * abs(power)
    return head


def _combined_frequencies(spec: IntegralSpec):
    a, b, u = float(spec.alpha), float(spec.beta), float(spec.mu)
    return [abs(a + b + u), abs(a + b - u), abs(a - b + u), abs(-a + b + u)]


def _truncation_point_damped(spec: IntegralSpec, tol: float) -> float:
    """X with int_X^inf |integrand| below tol, using |j_l(z)| <= 1/z.
    Where alpha*beta*mu*m underflows, or X lies past _X_MAX, it raises."""
    n = float(spec.n)
    m = float(spec.m)
    scale = float(spec.alpha) * float(spec.beta) * float(spec.mu) * m
    if scale == 0.0:
        raise OverflowError(f"alpha*beta*mu*m underflows at m={m}")
    x = 10.0
    for _ in range(80):
        x_new = (math.log(1.0 / tol) + (n - 3.0) * math.log(x)
                 - math.log(scale)) / m
        x_new = max(x_new, 5.0)
        if abs(x_new - x) < 1e-3:
            x = x_new
            break
        x = x_new
    x = max(x + 5.0 / m, 15.0)
    if x > _X_MAX:
        raise ArithmeticError(
            f"the damped tail needs x up to {x:.3g}, past the cap {_X_MAX:.3g}")
    return x


def _tail_bound_undamped(spec: IntegralSpec, x: float) -> float:
    """Oscillatory tail bound sum |c| (2/gamma) x^p over the reduced terms."""
    bound = 0.0
    for t in reduce_orders(spec):
        p = float(t.p)
        c = abs(t.coeff)
        if t.gamma > 0.0:
            bound += c * (2.0 / t.gamma) * x ** p
        elif t.kind == "cos":
            bound += c * x ** (p + 1.0) / abs(p + 1.0)
    return bound


def _period_summation_tail(f, x0: float, spec: IntegralSpec):
    """Integral of f over [x0, inf) by half-period cells + repeated averaging.

    Cells have length pi / (alpha + beta + mu); partial sums are averaged
    pairwise to full depth, which damps each oscillatory component by
    cos(pi gamma / (2 gamma_fast)) per level.
    """
    gammas = _combined_frequencies(spec)
    g_fast = max(gammas)
    g_slow = min(g for g in gammas if g > 1e-12) if any(
        g > 1e-12 for g in gammas) else g_fast
    cell = math.pi / g_fast
    n_cells = 384
    ratio = g_fast / g_slow
    if ratio > 3.0:
        n_cells = min(3072, int(384 * math.ceil(ratio / 3.0)))
    vals = np.empty(n_cells)
    gk_err = 0.0
    for j in range(n_cells):
        v, e = _gk_segment(f, x0 + j * cell, x0 + (j + 1) * cell)
        vals[j] = v.real
        gk_err += e
    partial = np.cumsum(vals)
    est = _euler_average(partial)
    # residual priced by rerunning the averaging on the first half: slow
    # components that the averaging has not yet damped show up as the gap
    est_half = _euler_average(partial[: n_cells // 2])
    return est, gk_err + abs(est - est_half)


def _euler_average(partial: np.ndarray) -> float:
    p = partial
    while p.size > 1:
        p = 0.5 * (p[:-1] + p[1:])
    return float(p[0])


def finite_diff_derivative(f, x: float, h: float) -> float:
    """Five-point central derivative (-f2 + 8f1 - 8fm1 + fm2) / (12h)."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def quad_semi_infinite(spec: IntegralSpec,
                       config: QuadConfig | None = None) -> EvalResult:
    """Oracle value of int_0^inf x^n e^{-mx} j_h j_k j_l dx.

    It exists where the closed form's does (IntegralSpec.check_convergence).
    The m = 0 tail follows config.tail_policy. A damped tail that would
    need x past _X_MAX raises ArithmeticError, and one whose
    alpha*beta*mu*m underflows raises OverflowError.
    """
    if config is None:
        config = QuadConfig()
    spec.check_convergence()
    m = float(spec.m)

    f = integrand(spec)
    x0 = 1.0
    head = _origin_piece(f, spec, x0, config)
    value = head.value
    err = head.err_estimate
    converged = head.converged

    if m > 0.0 or config.tail_policy == "exponential_bound":
        if m > 0.0:
            tail_err = 0.1 * config.abs_tol
            x_max = _truncation_point_damped(spec, tail_err)
        else:
            x_max = 50.0
            while _tail_bound_undamped(spec, x_max) > 0.5 * config.abs_tol:
                x_max *= 1.3
                if x_max > _X_MAX:
                    converged = False
                    break
            tail_err = _tail_bound_undamped(spec, x_max)
        split = math.pi / max(_combined_frequencies(spec))
        points = np.arange(x0 + split, x_max, split)
        body = quad_finite(f, x0, x_max, config, points=points)
        value += body.value
        err += body.err_estimate + tail_err
        converged = converged and body.converged
        method = "gk_adaptive+exponential_bound"
    else:
        tail_val, tail_err = _period_summation_tail(f, x0, spec)
        value += tail_val
        err += tail_err
        converged = converged and tail_err <= 10.0 * max(
            config.abs_tol, config.rel_tol * abs(value))
        method = "gk_adaptive+period_summation"

    return EvalResult(value=value, method=method, err_estimate=err,
                      converged=converged)
