"""
Closed forms for x^n e^{-mx} j_h j_k j_l integrals
==================================================

Builds an integral spec, inspects the product-to-sum reduction that the
closed forms rest on, and evaluates both the antiderivative and the full
integral on [0, inf).
"""

import math

import numpy as np

from tribessel import (
    IntegralSpec,
    eval_definite,
    eval_indefinite,
    integrand,
    reduce_orders,
    special_case_000,
    trig_decompose,
)

# ---- the spec bundles exponent, damping, orders and frequencies --------------
s = IntegralSpec(n=2, m=1.0, h=1, k=0, l=0, alpha=1.2, beta=0.8, mu=2.0)
print(f"integrand: x^{s.n} e^(-{s.m} x) "
      f"j_{s.h}({s.alpha} x) j_{s.k}({s.beta} x) j_{s.l}({s.mu} x)")

# ---- step 1: three sines/cosines collapse to four shifted ones ---------------
terms = trig_decompose(s.alpha, s.beta, s.mu)
print("\nsin*sin*sin decomposes into:")
for weight, kind, freq in terms:
    print(f"  {weight:+.2f} * {kind}({freq:+.2f} x)")

# ---- step 2: the whole product becomes sum of c * x^p trig(g x) --------------
base_terms = reduce_orders(s)
print(f"\nfull reduction: {len(base_terms)} base terms, "
      f"powers from {min(t.p for t in base_terms)} "
      f"to {max(t.p for t in base_terms)}")

# ---- the antiderivative really differentiates back to the integrand ----------
f = integrand(s)
x = 1.6
h = 1e-4
F = lambda t: eval_indefinite(s, t).value.real
fd = (F(x - 2 * h) - 8 * F(x - h) + 8 * F(x + h) - F(x + 2 * h)) / (12 * h)
print(f"\nat x = {x}: F'(x) by finite differences = {fd:.12f}")
print(f"             integrand value            = {float(f(np.array([x]))[0].real):.12f}")

# ---- the definite integral, closed form --------------------------------------
res = eval_definite(s)
print(f"\nintegral over [0, inf) = {res.value.real:.15f}   ({res.method})")

# ---- the classic benchmark: n = m = 0, all orders zero, unit frequencies -----
bench = eval_definite(IntegralSpec(n=0, m=0.0, h=0, k=0, l=0,
                                   alpha=1.0, beta=1.0, mu=1.0))
print(f"\nsinc^3 integral = {bench.value.real:.15f}")
print(f"3 pi / 8        = {3 * math.pi / 8:.15f}")

# ---- h = k = l = 0 also has a direct one-shot formula -------------------------
direct = special_case_000(2, 1.0, 1.2, 0.8, 2.0, 3.0)
general = eval_indefinite(IntegralSpec(n=2, m=1.0, h=0, k=0, l=0,
                                       alpha=1.2, beta=0.8, mu=2.0), 3.0).value
print(f"\nh=k=l=0 cross-check at x = 3: |direct - general| = "
      f"{abs(direct - general):.2e}")

# ---- a non-integer exponent takes the same definite-integral path ------------
s_half = IntegralSpec(n=0.5, m=1.0, h=0, k=0, l=0,
                      alpha=1.3, beta=0.7, mu=2.1)
res_half = eval_definite(s_half)
print(f"\nn = 0.5 definite integral = {res_half.value.real:.15f}"
      f"   ({res_half.method})")
