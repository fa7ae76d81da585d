"""Generate frozen reference values for the test suite with mpmath.

Run once by hand; the printed literals are pasted into tests. Not a
runtime dependency of the package or the tests.
"""

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
