"""One-off generator for the Gauss-Kronrod 15/7 nodes and weights.

The 8 Kronrod extension nodes are the roots of the Stieltjes polynomial
E_8, defined by int_{-1}^{1} P_7(x) E_8(x) x^k dx = 0 for k = 0..7 (solved
exactly over rationals). Gauss nodes are the roots of P_7. Weights come from
a high-precision Vandermonde solve against monomial moments, then everything
is verified by degree-of-exactness checks (G7 exact through degree 13, K15
through degree 22 but not at degree 24) before printing.

Run: python3 scripts/gen_kronrod.py
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 60

N = 7  # embedded Gauss order


def legendre_coeffs(n: int) -> list[Fraction]:
    """Coefficients (ascending) of P_n as exact rationals."""
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += Fraction(2 * k + 1, k + 1) * c
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    return cur


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def moment(poly) -> Fraction:
    """int_{-1}^{1} poly(x) dx for ascending rational coefficients."""
    total = Fraction(0)
    for k, c in enumerate(poly):
        if k % 2 == 0:
            total += 2 * c / (k + 1)
    return total


def solve_rational(mat, rhs):
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


p7 = legendre_coeffs(N)

# Stieltjes polynomial E_8 (monic): orthogonality of P_7 * E_8 to degree 7.
mono_moms = [moment(poly_mul(p7, [Fraction(0)] * t + [Fraction(1)])) for t in range(2 * N + 2)]
mat = [[mono_moms[k + j] for j in range(N + 1)] for k in range(N + 1)]
rhs = [-mono_moms[k + N + 1] for k in range(N + 1)]
e8 = solve_rational(mat, rhs) + [Fraction(1)]

gauss_nodes = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(p7)])
kron_nodes = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(e8)])
all_nodes = sorted(gauss_nodes + kron_nodes)
assert len(all_nodes) == 2 * N + 1

# Kronrod weights: Vandermonde solve against monomial moments.
M = 2 * N + 1
V = mp.matrix(M, M)
mvec = mp.matrix(M, 1)
for k in range(M):
    for j, x in enumerate(all_nodes):
        V[k, j] = x ** k
    mvec[k] = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
wk = mp.lu_solve(V, mvec)

# Gauss weights: w_i = 2 / ((1 - x^2) P_7'(x)^2)
p7f = [mp.mpf(c.numerator) / c.denominator for c in p7]


def p7_deriv(x):
    return sum(k * p7f[k] * x ** (k - 1) for k in range(1, len(p7f)))


gauss_sorted = sorted(gauss_nodes)
wg = [2 / ((1 - x ** 2) * p7_deriv(x) ** 2) for x in gauss_sorted]


def residual(nodes, weights, k):
    """|rule - exact| on x^k over [-1, 1]."""
    q = sum(w * x ** k for x, w in zip(nodes, weights))
    exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
    return abs(q - exact)


def check_exactness(nodes, weights, deg):
    return max(residual(nodes, weights, k) for k in range(deg + 1))


g7_worst = check_exactness(gauss_sorted, wg, 13)
k15_worst = check_exactness(all_nodes, wk, 22)
# a symmetric rule integrates every odd degree exactly, so the first degree
# K15 must miss is 24 (residual ~6e-9)
k15_miss = residual(all_nodes, list(wk), 24)
print("# G7 exactness through 13:", mp.nstr(g7_worst, 3))
print("# K15 exactness through 22:", mp.nstr(k15_worst, 3))
print("# K15 degree-24 residual (NOT exact):", mp.nstr(k15_miss, 3))
assert g7_worst < 1e-50 and k15_worst < 1e-50 and k15_miss > 1e-12

gauss_set = {mp.nstr(x, 30) for x in gauss_sorted}
print("\n# abscissae (ascending) / kronrod weight / gauss weight (0 if Kronrod-only)")
gw = {mp.nstr(x, 30): w for x, w in zip(gauss_sorted, wg)}
print("_GK_NODES = np.array([")
for x in all_nodes:
    print(f"    {mp.nstr(x, 17)},")
print("])")
print("_GK_WEIGHTS = np.array([")
for i, x in enumerate(all_nodes):
    print(f"    {mp.nstr(wk[i], 17)},")
print("])")
print("_G7_WEIGHTS = np.array([")
for x in all_nodes:
    key = mp.nstr(x, 30)
    print(f"    {mp.nstr(gw[key], 17) if key in gauss_set else '0.0'},")
print("])")
