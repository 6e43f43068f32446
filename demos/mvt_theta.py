#!/usr/bin/env python3
"""The mean value position theta, for finite and infinitesimal increments.

The classical statement f(x+h) - f(x) = h * f'(x + theta*h) pins a point
inside the interval.  For a real h the solver brackets a root and narrows it;
for an infinitesimal h it returns theta as a series whose leading term is
(k+1)**(-1/k), k being the order of the first nonvanishing derivative past
f'.  The two routes agree in the h -> 0 limit, which is the whole point:
the theorem works on infinitesimal intervals with no change of form.
"""

import math

from levicalc import mvt_theta_infinitesimal, mvt_theta_real, parse_expr

print("real increments")
print("---------------")
for src, x, h, note in [
    ("x^2", 0.0, 1.0, "exact: 1 = 2*theta"),
    ("exp(x)", 0.0, 1.0, f"exact: log(e-1) = {math.log(math.e - 1):.6f}"),
    ("3 + 2*x", 0.0, 1.0, "degenerate: any theta works, 1/2 by convention"),
]:
    r = mvt_theta_real(parse_expr(src), x, h)
    flag = " (degenerate)" if r.degenerate else ""
    print(f"  f = {src:<8} on [{x}, {x + h}]:  theta = {r.theta:.12f}{flag}   [{note}]")

print()
print("infinitesimal increments (theta becomes a series)")
print("--------------------------------------------------")
for src, x in [("exp(x)", 0.0), ("x^2", 0.7), ("x^3", 0.0), ("sin(x)", 0.4)]:
    r = mvt_theta_infinitesimal(parse_expr(src), x)
    print(f"  f = {src:<8} at x = {x}:")
    print(f"    theta    = {r.theta}")
    print(f"    residual = {r.residual_norm:.2e}, first nonvanishing order past f': {r.leading_order}")

print()
print("the two routes meet in the limit")
print("--------------------------------")
f = parse_expr("exp(x)")
series = mvt_theta_infinitesimal(f, 0.0).theta
print(f"  series coefficients: theta0 = {series.coefficient(0)}, theta1 = {series.coefficient(1)}")
print("  real solver at shrinking h:")
for h in (1e-1, 1e-2, 1e-3):
    t = mvt_theta_real(f, 0.0, h).theta
    print(f"    h = {h:<6g} theta(h) = {t:.10f}   (theta(h)-1/2)/h = {(t - 0.5) / h:.8f}")
print(f"  1/24 = {1 / 24:.8f}")
