"""Generate frozen reference values for the test suite with mpmath.

Run by hand (python3 scripts/gen_reference_values.py); the printed
literals are pasted into tests. CI runs it too, so it keeps working. mpmath
is the dev extra, not a runtime dependency of the package or the tests.
"""

import math

import mpmath as mp

mp.mp.dps = 40


def show(label, value):
    print(f"{label:28s} {mp.nstr(value, 17)}")


def sph_j(l, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(l + mp.mpf(1) / 2, x)


def sph_n(l, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.bessely(l + mp.mpf(1) / 2, x)


print("# spherical Bessel spot values")
show("j_5(0.1)", sph_j(5, mp.mpf("0.1")))
show("j_10(0.5)", sph_j(10, mp.mpf("0.5")))
show("j_50(1.0)", sph_j(50, mp.mpf("1.0")))
show("j_20(100.0)", sph_j(20, mp.mpf("100.0")))
show("j_2(25.0)", sph_j(2, mp.mpf("25.0")))
show("j_400(215.17)", sph_j(400, mp.mpf("215.17")))
show("j_400(401.9)", sph_j(400, mp.mpf("401.9")))
show("n_2(0.1)", sph_n(2, mp.mpf("0.1")))
show("n_10(0.5)", sph_n(10, mp.mpf("0.5")))

print("# exponential-type integrals")
show("Ei(1)", mp.ei(1))
show("Ei(-1)", mp.ei(-1))
show("Ei(2)", mp.ei(2))
show("Ei root", mp.findroot(mp.ei, mp.mpf("0.37")))
show("li(2)", mp.li(2))
show("Ci(1)", mp.ci(1))
show("E_1(1)", mp.expint(1, 1))
show("E_1(2)", mp.expint(1, 2))
show("Si(40*pi)", mp.si(40 * mp.pi))
show("Si(10**4)", mp.si(10**4))

print("# definite integrals")
show("3*pi/8", 3 * mp.pi / 8)
f = lambda x: (mp.sin(x) / x) ** 3 if x != 0 else mp.mpf(1)
show("int (sin x/x)^3 [0,inf)", mp.quadosc(f, [0, mp.inf], period=2 * mp.pi))
g = lambda x: x**2 * mp.exp(-x) * sph_j(0, x) ** 3
show("int x^2 e^-x j0^3", mp.quad(g, [0, mp.inf]))


# definite integrals near integer n, for tests/test_triple.py: each is the
# term-by-term sum Gamma(p+1) (m - i sigma)^(-p-1) over the expansion of
# j_l(g x) into x^-(k+1) e^(+-i g x) (DLMF 10.49.1). At 40 digits the
# cancelling 1/r Gamma poles (r down to 1e-11) still leave far more than
# the 17 digits printed.
NEAR_INTEGER_SHAPES = {
    "a": (2, 1, 3, 1.2, 0.8, 2.0),
    "b": (1, 3, 0, 0.7, 1.3, 1.1),
    "c": (0, 0, 1, 1.0, 1.0, 2.0),
    "zero": (0, 0, 0, 1.2, 0.8, 2.0),
    "d": (1, 0, 0, 1.2, 0.8, 2.0),
}
NEAR_INTEGER_OFFSETS = (-1e-11, 1e-11, -1e-9, 1e-9, -1e-7, 1e-7, 1e-5, 1e-3)


def sph_j_exponentials(l, g):
    """j_l(g x) as [(c, q, s)]: the sum of c x^q e^(i s g x)."""
    out = []
    for k in range(l + 1):
        a = (mp.mpc(0, -1) ** (l + 1) * mp.mpc(0, 1) ** k * mp.factorial(l + k)
             / (mp.factorial(k) * mp.factorial(l - k) * 2**k * g ** (k + 1) * 2))
        out += [(a, -k - 1, 1), (mp.conj(a), -k - 1, -1)]
    return out


def definite_by_terms(n, m, h, k, l, alpha, beta, mu):
    """int_0^inf x^n e^(-mx) j_h(alpha x) j_k(beta x) j_l(mu x) dx."""
    n, m, alpha, beta, mu = (mp.mpf(v) for v in (n, m, alpha, beta, mu))
    total = mp.mpc(0)
    for ca, qa, sa in sph_j_exponentials(h, alpha):
        for cb, qb, sb in sph_j_exponentials(k, beta):
            for cc, qc, sc in sph_j_exponentials(l, mu):
                sigma = sa * alpha + sb * beta + sc * mu
                if m == 0 and sigma == 0:
                    continue  # scaleless: x^p alone has no finite continuation
                p1 = n + qa + qb + qc + 1
                total += ca * cb * cc * mp.gamma(p1) * mp.mpc(m, -sigma) ** (-p1)
    return total.real


def near_integer_cases():
    for shape in ("a", "b"):
        for m in (0.5, 1.0, 0.0):
            for n0 in (0, 1, 2):
                for delta in NEAR_INTEGER_OFFSETS:
                    if m > 0 or n0 + delta < 2:
                        yield shape, m, n0 + delta
        yield shape, 0.0, 1.9
        yield shape, 0.0, 1.99
        # n one and two ulps inside 0.25 of an integer, where some p + 1
        # round to a quarter: every term must still take its finite part
        yield shape, 1.0, 1.2499999999999998
        yield shape, 1.0, 1.2499999999999996
    # alpha + beta = mu with h + k + l odd: the zero frequency leaves a
    # non-oscillating x^(n-3) tail, so at m = 0 the pole at n = 2 is genuine
    for n in (1.8, 1.99) + tuple(2 + d for d in NEAR_INTEGER_OFFSETS if d < 0):
        yield "c", 0.0, n
    yield "zero", 1.0, -0.8  # a genuine pole at n = -1
    # n -> -1, where the pole is genuine only at h = k = l = 0; the last two
    # n are one and two ulps above -1, where n + d rounds onto an integer
    for shape in ("a", "b", "zero", "d"):
        for m in (0.5, 1.0, 0.0):
            for n in (-1 + 0.02, -1 + 1e-3, -1 + 1e-5, -1 + 1e-7,
                      math.nextafter(-1.0, 0.0), -0.9999999999999998):
                yield shape, m, n


# printed as it stands in tests/test_triple.py, which CI diffs against it
print("# definite integrals near integer n")
print("NEAR_INTEGER_SHAPES = {")
for shape, args in NEAR_INTEGER_SHAPES.items():
    print(f'    "{shape}": {args!r},')
print("}")
print("NEAR_INTEGER_REFS = [")
for shape, m, n in near_integer_cases():
    h, k, l, alpha, beta, mu = NEAR_INTEGER_SHAPES[shape]
    value = definite_by_terms(n, m, h, k, l, alpha, beta, mu)
    print(f'    ("{shape}", {m!r}, {n!r}, {mp.nstr(value, 17)}),')
print("]")


# K(s, c, x) = int_0^x t^(s-1) e^(ct) dt = (-c)^(-s) gamma(s, -cx) at
# c = -m + i g, for tests/test_expint.py. expint._lower_gamma_int sums its
# series where |cx| < s + 8 and takes the complement elsewhere; the points
# sit on both sides of that line (0.3, 0.97, 1.03 and 1.6 times s + 8) up to
# s = 171, the last s whose (s-1)! is in double range, and on the series
# side beyond it, where x^s stays finite. The complement points at s = 140
# and 171 take g = 0: with g = 8, Gamma(s, -cx) itself overflows there and
# the kernel raises. x is rounded to 4 digits.
def lower_gamma_points():
    for s, m, g, sides in (
            (1, 0.0, 2.5, (0.3, 0.97, 1.03, 1.6)),
            (2, 0.5, -2.5, (0.3, 0.97, 1.03, 1.6)),
            (3, 1.0, 2.5, (0.3, 0.97, 1.03, 1.6)),
            (5, 2.0, -2.5, (0.3, 0.97, 1.03, 1.6)),
            (9, 0.0, 2.5, (0.3, 0.97, 1.03, 1.6)),
            (17, 0.5, -2.5, (0.97, 1.03)),
            (30, 1.0, 2.5, (0.97, 1.03)),
            (46, 2.0, -2.5, (0.97, 1.03)),
            (61, 0.0, 8.0, (0.97, 1.03)),
            (100, 0.5, -8.0, (0.97, 1.6)),
            (140, 1.0, 8.0, (0.97,)),
            (140, 1.0, 0.0, (1.03,)),
            (171, 2.0, -8.0, (0.97,)),
            (171, 2.0, 0.0, (1.03,)),
            (172, 0.0, 8.0, (0.2,)),
            (240, 0.5, -8.0, (0.09,)),
            (300, 1.0, 8.0, (0.055,)),
            (300, 2.0, 0.0, (0.0033,))):
        for side in sides:
            yield s, m, g, float(f"{side * (s + 8) / abs(complex(-m, g)):.4g}")
    yield 171, 0.5, 0.0, 1.0  # a first term z^s/s! would underflow here
    # series side where x^s overflows but x^s e^(cx) does not
    yield 171, 2.0, 0.0, 87.0


print("# K(s, c, x) = int_0^x t^(s-1) e^(ct) dt at c = -m + i g")
print("LOWER_GAMMA_REFS = [")
for s, m, g, x in lower_gamma_points():
    c = mp.mpc(-m, g)
    value = (-c) ** (-s) * mp.gammainc(s, 0, -c * x)
    print(f"    ({s}, {m!r}, {g!r}, {x!r}, {mp.nstr(value.real, 17)}, "
          f"{mp.nstr(value.imag, 17)}),")
print("]")


# int_a^b t^n e^(ct) dt = F(b) - F(a) for expint.z_antiderivative, for
# tests/test_expint.py. For n >= 0, F(x) = int_0^x t^n e^(ct) dt =
# x^(n+1)/(n+1) M(n+1, n+2, cx) (DLMF 8.5.1), so a = 0 pins F(b) itself. The
# differences sit at small |c|, where F = -(-c)^(-n-1) Gamma(n+1, -cx) hides
# them behind a constant of size n! |c|^(-n-1); the points at n + 1 = 20-59
# have small Re(cx).
Z_ANTIDERIVATIVE_POINTS = (
    # n, Re c, Im c, a, b
    (5, 1e-3, 0.0, 1.0, 2.0),
    (8, -1e-4, 1e-4, 0.5, 1.5),
    (12, 0.0, 0.01, 1.0, 1.1),
    (3, -1e-6, 0.0, 1.0, 2.0),
    (19, 0.0, 1.0, 0.0, 12.0),
    (24, -0.01, -1.5, 0.0, 10.0),
    (29, 0.0, 2.0, 0.0, 12.5),
    (34, -0.02, 1.0, 0.0, 30.0),
    (39, 0.0, -3.0, 0.0, 11.0),
    (44, -0.01, 2.5, 0.0, 4.0),
    (49, 0.0, 1.0, 0.0, 12.0),
    (54, -0.05, -2.0, 0.0, 7.0),
    (58, 0.0, 4.0, 0.0, 4.0),
    (58, -0.02, 1.0, 0.0, 15.0),
)


def power_exp_integral(n, c, x):
    """int_0^x t^n e^(ct) dt for integer n >= 0."""
    x = mp.mpf(x)
    return x ** (n + 1) / (n + 1) * mp.hyp1f1(n + 1, n + 2, c * x)


print("# int_a^b t^n e^(ct) dt, a = 0 for F(b) itself")
print("Z_ANTIDERIVATIVE_REFS = [")
for n, c_re, c_im, a, b in Z_ANTIDERIVATIVE_POINTS:
    c = mp.mpc(c_re, c_im)
    value = power_exp_integral(n, c, b) - power_exp_integral(n, c, a)
    print(f"    ({n}, {c_re!r}, {c_im!r}, {a!r}, {b!r}, "
          f"{mp.nstr(value.real, 17)}, {mp.nstr(value.imag, 17)}),")
print("]")


# F(x_hi) - F(x_lo) of x^n e^(-mx) j_h(alpha x) j_k(beta x) j_l(mu x) at
# large integer n, for tests/test_triple.py, by mp.quad over pieces of at
# most 0.25: one piece over a whole interval misses oscillating points by up
# to 2e-3. The last field is mp.quad's error estimate relative to the value.
LARGE_POWER_CASES = (
    # h, k, l, n, m, alpha, beta, mu, x_lo, x_hi
    (0, 0, 0, 45, 1.0, 1.0, 1.0, 1.0, 6.0, 6.5),
    (0, 0, 0, 30, 1.0, 1.0, 1.0, 1.0, 6.0, 6.5),
    (1, 1, 1, 60, 1.0, 1.2, 0.8, 2.0, 6.2, 6.4),
    (2, 3, 1, 40, 0.5, 1.2, 0.8, 2.0, 3.0, 5.0),
    (8, 8, 8, 30, 1.0, 1.2, 0.8, 2.0, 4.0, 9.0),
)


def interval_by_quad(h, k, l, n, m, alpha, beta, mu, x_lo, x_hi):
    def f(x):
        return (x**n * mp.exp(-m * x) * sph_j(h, alpha * x) * sph_j(k, beta * x)
                * sph_j(l, mu * x))
    pieces = int(mp.ceil((x_hi - x_lo) / mp.mpf("0.25")))
    nodes = mp.linspace(mp.mpf(x_lo), mp.mpf(x_hi), pieces + 1)
    return mp.quad(f, nodes, error=True)


print("# interval differences at large integer n")
print("LARGE_POWER_REFS = [")
for case in LARGE_POWER_CASES:
    value, err = interval_by_quad(*case)
    print(f"    ({', '.join(map(repr, case))},\n"
          f"     {mp.nstr(value, 17)}, {mp.nstr(err / abs(value), 2)}),")
print("]")
