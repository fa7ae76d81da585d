"""Reference values for benchmark operations, independent of tribessel.

A reference is looked up by spec key in the frozen files under ``refs/``
(written by gen_refs.py) and otherwise computed here by composite
Gauss-Legendre quadrature of the integrand built from scipy's
``spherical_jn``. This module imports nothing from the package under test,
so both commits of a comparison get identical references for any seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import spherical_jn

from workloads import catalog_key

REFS_DIR = Path(__file__).resolve().parent / "refs"

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_PHASE_PER_PANEL = 4.0   # radians of the fastest oscillation per panel
_TAIL_ABS = 1e-24        # truncation bound for the damped half-line
_ROUNDING = 5e-14        # relative accuracy of scipy's j_l products


def _integrand(op, x: np.ndarray) -> np.ndarray:
    jjj = (spherical_jn(op.h, op.alpha * x) * spherical_jn(op.k, op.beta * x)
           * spherical_jn(op.l, op.mu * x))
    weight = np.exp(-1j * x) if op.m_imaginary else np.exp(-op.m * x)
    return x ** op.n * weight * jjj


def _gl(f, lo: float, hi: float, panels: int) -> tuple:
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _NODES
    terms = half * _WEIGHTS * f(x)
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _quad(f, lo: float, hi: float, omega: float) -> tuple:
    """Value and error bound: the panel count is doubled once and the gap
    between the two rules, plus rounding of the j_l values, bounds the
    error."""
    panels = max(2, math.ceil(omega * (hi - lo) / _PHASE_PER_PANEL))
    coarse, _ = _gl(f, lo, hi, panels)
    fine, mass = _gl(f, lo, hi, 2 * panels)
    return fine, abs(fine - coarse) + _ROUNDING * mass


def _half_line_end(n: float, m: float) -> float:
    """X with int_X^inf x^n e^{-mx} dx below _TAIL_ABS (|j_l| <= 1)."""
    x = max(2.0 * n / m, 1.0)
    while 2.0 * x ** n * math.exp(-m * x) / m > _TAIL_ABS:
        x *= 1.1
    return x


def compute(op) -> tuple:
    """(value, error bound) of an interval op or a damped definite op."""
    omega = op.alpha + op.beta + op.mu + (1.0 if op.m_imaginary else 0.0)
    f = lambda x: _integrand(op, x)  # noqa: E731
    if op.kind == "int":
        return _quad(f, op.x_lo, op.x_hi, omega)
    if op.m <= 0.0:
        raise ValueError(f"no independent quadrature for undamped {op.key}")
    # x = u^2 on the first panel keeps x^n smooth for half-integer n
    x1 = _PHASE_PER_PANEL / omega
    head, head_err = _quad(lambda u: 2.0 * u * f(u * u), 0.0, math.sqrt(x1),
                           omega)
    body, body_err = _quad(f, x1, _half_line_end(op.n, op.m), omega)
    return head + body, head_err + body_err + _TAIL_ABS


class References:
    """Frozen references by spec key, with computed ones as fallback."""

    def __init__(self):
        self.frozen = {}
        for path in sorted(REFS_DIR.glob("*.json")):
            for key, (re, im, err) in json.loads(path.read_text())["refs"].items():
                self.frozen[key] = (complex(re, im), err)
        self.computed = 0

    def get(self, op) -> tuple:
        if op.kind == "def" and op.m == 0.0:
            # I(s * freqs) = s^-(n+1) I(freqs) for the catalog shape
            val, err = self.frozen[catalog_key(op.shape, op.n)]
            f = op.scale ** -(op.n + 1.0)
            return val * f, err * f + 1e-15 * abs(val * f)
        hit = self.frozen.get(op.key)
        if hit is not None:
            return hit
        self.computed += 1
        return compute(op)
