"""Seeded operation streams for the benchmark workloads.

Every stream is an endless generator driven by one seeded ``Draws``, so
the same seed always yields the same operations and a run simply takes
as many as fit in its time budget. Operations are plain data; the program
under test only ever sees the generated specs.

Undamped definite integrals (m = 0) need a reference that only the slow
``exponential_bound`` oracle can give, so their shapes come from a frozen
catalog (``UNDAMPED_SHAPES``, references in ``refs/undamped.json``). Each
use draws a fresh scale s and multiplies every frequency by it; the exact
change of variables x -> x/s gives I(s*freqs) = s^-(n+1) * I(freqs), so the
reference follows without recomputation while (h, k, l, alpha, beta, mu)
stays distinct.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass

FREQ_LO, FREQ_HI = 0.3, 3.0
X_LO, X_HI = 0.05, 20.0
MAX_ORDER = 8
M_DAMPED = (0.5, 1.0, 2.0)
N_DAMPED = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
# n = 1.5 is convergent at m = 0 too, but the exponential_bound oracle
# cannot reach its tolerance there (the tail needs x beyond 3e5), so no
# reference-grade value exists for it.
N_UNDAMPED = (0.0, 0.5, 1.0)
N_INTERVAL = (0, 1, 2)
IMAG_SHARE_DENOM = 5  # one interval op in 5 uses the e^{-ix} weight

# sweep_shared grids: definite n x m, antiderivative n x m at each x point
SWEEP_DEF_N = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0)
SWEEP_M = (0.0, 0.5, 1.0, 2.0)
SWEEP_INT_N = (0, 1, 2)
SWEEP_X = tuple(float(x) for x in
                (X_LO * (X_HI / X_LO) ** (i / 9) for i in range(10)))


def _catalog() -> tuple:
    rng = random.Random(20210204)
    orders = [(0, 0, 0), (8, 8, 8), (4, 4, 4), (0, 8, 4)]
    while len(orders) < 16:
        hkl = tuple(rng.randint(0, MAX_ORDER) for _ in range(3))
        if hkl not in orders:
            orders.append(hkl)
    shapes = []
    for hkl in orders:
        while True:
            a, b, u = (rng.uniform(1.0, 1.6) for _ in range(3))
            # the oracle's tail bound grows as 1/(alpha beta mu gamma): keep
            # the frequencies near 1 and every combined frequency away from
            # 0 so that the reference stays affordable
            if min(a + b - u, a - b + u, b + u - a) >= 0.45:
                break
        shapes.append(hkl + (a, b, u))
    # the mix 1.2 : 0.8 : 2 (combined frequencies 0.4 to 4), where the
    # default undamped oracle tail stops converging from order 2 on; only
    # orders at which the reference oracle still converges
    for hkl in ((4, 4, 4), (8, 8, 8), (2, 3, 1)):
        shapes.append(hkl + (1.2, 0.8, 2.0))
    return tuple(shapes)


# (h, k, l, alpha, beta, mu) of the undamped reference catalog
UNDAMPED_SHAPES = _catalog()


@dataclass(frozen=True)
class Op:
    """One integral request. kind is "def" (over [0, inf)) or "int"
    (F(x_hi) - F(x_lo) of the antiderivative)."""

    kind: str
    n: float
    m: float
    h: int
    k: int
    l: int
    alpha: float
    beta: float
    mu: float
    m_imaginary: bool = False
    x_lo: float = 0.0
    x_hi: float = 0.0
    # undamped definite ops: catalog shape index and frequency scale
    shape: int = -1
    scale: float = 1.0

    @property
    def key(self) -> str:
        """Reference key: every parameter that fixes the integral's value."""
        return spec_key(self.kind, self.n, self.m, self.m_imaginary, self.h,
                        self.k, self.l, self.alpha, self.beta, self.mu,
                        self.x_lo, self.x_hi)

    @property
    def reduction_key(self) -> tuple:
        """What a symbolic reduction depends on besides the power n."""
        return (self.h, self.k, self.l, self.alpha, self.beta, self.mu)

    @property
    def max_order(self) -> int:
        return max(self.h, self.k, self.l)

    @property
    def undamped(self) -> bool:
        return self.m == 0.0 or self.m_imaginary


def spec_key(kind, n, m, m_imaginary, h, k, l, alpha, beta, mu,
             x_lo=0.0, x_hi=0.0) -> str:
    return "|".join([kind, repr(float(n)), repr(float(m)),
                     str(int(bool(m_imaginary))), str(h), str(k), str(l),
                     repr(float(alpha)), repr(float(beta)), repr(float(mu)),
                     repr(float(x_lo)), repr(float(x_hi))])


def catalog_key(shape: int, n: float) -> str:
    h, k, l, a, b, u = UNDAMPED_SHAPES[shape]
    return spec_key("def", n, 0.0, False, h, k, l, a, b, u)


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

class Draws:
    """Seeded draws in shuffled passes: each named factor runs through all
    of its values, or for a continuous factor all STRATA equal strata,
    before any repeats. Any long window of a stream then has nearly the
    same mix, so runs on different seeds cost about the same."""

    STRATA = 8
    TRIPLES = tuple((h, k, l) for h in range(MAX_ORDER + 1)
                    for k in range(MAX_ORDER + 1) for l in range(MAX_ORDER + 1))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._passes: dict = {}

    def pick(self, name: str, values):
        if name not in self._passes:
            self._passes[name] = self._cycle(list(values))
        return next(self._passes[name])

    def _cycle(self, values: list):
        while True:
            self.rng.shuffle(values)
            yield from values

    def uniform(self, name: str, lo: float, hi: float, stratum=None) -> float:
        j = self.pick(name, range(self.STRATA)) if stratum is None else stratum
        return lo + (hi - lo) * (j + self.rng.random()) / self.STRATA

    def log_uniform(self, name: str, lo: float, hi: float,
                    stratum=None) -> float:
        return math.exp(self.uniform(name, math.log(lo), math.log(hi),
                                     stratum))

    def orders(self, kind: str) -> tuple:
        """(h, k, l), cycling separately per op kind: cost rises steeply
        with order, so each kind gets every triple equally often, and each
        pass spreads every total order h + k + l evenly along it."""
        name = f"hkl {kind}"
        if name not in self._passes:
            self._passes[name] = self._balanced_cycle(list(self.TRIPLES))
        return next(self._passes[name])

    def _balanced_cycle(self, triples: list):
        while True:
            self.rng.shuffle(triples)
            size = collections.Counter(sum(t) for t in triples)
            rank = collections.Counter()
            place = {}
            for t in triples:  # i-th of its total order lands at i / size
                rank[sum(t)] += 1
                place[t] = (rank[sum(t)] - 0.5) / size[sum(t)]
            yield from sorted(triples, key=place.__getitem__)

    def freqs(self) -> tuple:
        return tuple(self.uniform(name, FREQ_LO, FREQ_HI)
                     for name in ("alpha", "beta", "mu"))

    def interval(self) -> tuple:
        while True:
            a, b = sorted((self.log_uniform("x1", X_LO, X_HI),
                           self.log_uniform("x2", X_LO, X_HI)))
            if b > 1.05 * a:
                return a, b

    def scaled_shape(self) -> tuple:
        """A catalog shape with every frequency scaled by one factor that
        keeps all three inside [FREQ_LO, FREQ_HI]. Each shape runs through
        the scale strata on its own, since the kernels' cost depends on
        both."""
        shape = self.pick("shape", range(len(UNDAMPED_SHAPES)))
        stratum = self.pick(f"scale of {shape}", range(self.STRATA))
        h, k, l, a, b, u = UNDAMPED_SHAPES[shape]
        s = self.log_uniform("scale", FREQ_LO / min(a, b, u),
                             FREQ_HI / max(a, b, u), stratum)
        return shape, s, (h, k, l, s * a, s * b, s * u)

    def undamped_def(self) -> Op:
        shape, s, params = self.scaled_shape()
        return Op("def", self.pick("n_undamped", N_UNDAMPED), 0.0, *params,
                  shape=shape, scale=s)

    def damped_def(self) -> Op:
        return Op("def", self.pick("n_damped", N_DAMPED),
                  self.pick("m_damped", M_DAMPED), *self.orders("def"),
                  *self.freqs())

    def interval_op(self) -> Op:
        x_lo, x_hi = self.interval()
        n = float(self.pick("n_interval", N_INTERVAL))
        if self.pick("imag", (True,) + (False,) * (IMAG_SHARE_DENOM - 1)):
            return Op("int", n, 0.0, *self.orders("int"), *self.freqs(),
                      m_imaginary=True, x_lo=x_lo, x_hi=x_hi)
        return Op("int", n, self.pick("m_interval", (0.0,) + M_DAMPED),
                  *self.orders("int"), *self.freqs(), x_lo=x_lo, x_hi=x_hi)


# ---------------------------------------------------------------------------
# Workload streams
# ---------------------------------------------------------------------------

def closed_unique(seed: int):
    """Alternating eval_definite and eval_indefinite-difference ops, each
    with its own (h, k, l, alpha, beta, mu). A quarter of the definite ops
    are undamped (m = 0, n < 2)."""
    draws = Draws(seed)
    i = 0
    while True:
        if i % 2:
            yield draws.interval_op()
        elif i % 8 == 0:
            yield draws.undamped_def()
        else:
            yield draws.damped_def()
        i += 1


@dataclass(frozen=True)
class Family:
    """One sweep_shared family: a scaled catalog shape whose grid is
    tabulated by one definite sweep and one antiderivative sweep per x."""

    shape: int
    scale: float
    h: int
    k: int
    l: int
    alpha: float
    beta: float
    mu: float
    fmt: str  # "csv" or "json"

    def definite_ops(self) -> list:
        """Ops for the definite sweep rows, in the CLI's grid order (n, m)."""
        return [Op("def", n, m, self.h, self.k, self.l, self.alpha,
                   self.beta, self.mu, shape=self.shape if m == 0.0 else -1,
                   scale=self.scale)
                for n in SWEEP_DEF_N for m in SWEEP_M]

    def interval_ops(self, i: int) -> list:
        """Ops for the rows of the i-th antiderivative sweep, in grid order
        (n, m): F(SWEEP_X[i]) - F(SWEEP_X[i-1]), the difference that checks
        row i. At i = 0 the op only describes the point, x_lo = x_hi."""
        x_lo = SWEEP_X[max(i - 1, 0)]
        return [Op("int", float(n), m, self.h, self.k, self.l, self.alpha,
                   self.beta, self.mu, x_lo=x_lo, x_hi=SWEEP_X[i])
                for n in SWEEP_INT_N for m in SWEEP_M]


def sweep_shared(seed: int):
    """Families cycling over the catalog shapes (orders 0-8), each scaled
    by a fresh factor; output format alternates between CSV and JSON."""
    draws = Draws(seed)
    i = 0
    while True:
        shape, s, params = draws.scaled_shape()
        yield Family(shape, s, *params, ("csv", "json")[i % 2])
        i += 1


def verify(seed: int):
    """Compare ops: (definite op, interval op) pairs on one (h, k, l,
    alpha, beta, mu). Two ops in five are undamped (catalog shapes), the
    rest damped; the interval uses the definite op's damping and n rounded
    down to an integer. Undamped ops cost several times more, and an even
    split would put the median latency in the gap between the two."""
    draws = Draws(seed)
    i = 0
    while True:
        d = draws.undamped_def() if i % 5 in (0, 2) else draws.damped_def()
        x_lo, x_hi = draws.interval()
        yield d, Op("int", float(math.floor(d.n)), d.m, d.h, d.k, d.l,
                    d.alpha, d.beta, d.mu, x_lo=x_lo, x_hi=x_hi)
        i += 1


STREAMS = {"closed_unique": closed_unique, "sweep_shared": sweep_shared,
           "verify": verify}
