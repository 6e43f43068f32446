#!/usr/bin/env python3
"""Extrema from refined partitions, integrals as extrapolated Riemann sums.

A maximum is found the way the infinitesimal-partition argument finds it:
partition, take the best grid point, zoom, repeat; the trace of argmax
abscissae converges to the shadow of the partition point.  The definite
integral is the limit the left-endpoint sums approach as the partition
count grows, read off by a Richardson table in 1/H over nested grids that
are refined only until the table converges.
"""

import math

from levicalc import (
    coefficient_norm,
    evt_max,
    parse_expr,
    riemann_integral,
    taylor_remainder_check,
    taylor_remainder_check_infinitesimal,
)

print("extremum of f(x) = sin(5x) + x on [0, 1]")
print("----------------------------------------")
r = evt_max(parse_expr("sin(5*x) + x"), 0.0, 1.0)
print("refinement trace (H, argmax index, abscissa):")
for H, i0, x in r.refinement_trace:
    print(f"  H = {H:>12,}   i0 = {i0:>4}   x = {x:.12f}")
print(f"maximum f({r.argmax:.12f}) = {r.max_value:.12f}")

print()
print("definite integrals")
print("------------------")
for src, a, b, exact in [
    ("x^2", 0.0, 1.0, 1.0 / 3),
    ("sin(x)", 0.0, 1.0, 1.0 - math.cos(1.0)),
    ("exp(x)", 0.0, 2.0, math.e ** 2 - 1.0),
    ("sqrt(x)", 0.0, 1.0, 2.0 / 3),  # singular at 0: the table refines to the finest grid
]:
    r = riemann_integral(parse_expr(src), a, b)
    print(f"  integral of {src:<7} on [{a}, {b}]:")
    print(f"    raw sums drift: {r.sums[0]:.8f} -> {r.sums[-1]:.8f}   finest grid H = {r.H_schedule[-1]:,}")
    print(f"    extrapolated  : {r.value:.12f}   true {exact:.12f}   err {abs(r.value - exact):.1e}")

print()
print("Taylor integral remainder: f(b) = f(a) + (b-a) f'(a) + I((b-x) f'', a, b)")
print("--------------------------------------------------------------------------")
for src, a, b in [("sin(x)", 0.0, 1.0), ("exp(x)", 1.0, 2.0), ("x^2", 0.0, 1.0)]:
    res = taylor_remainder_check(parse_expr(src), a, b)
    print(f"  f = {src:<7} on [{a}, {b}]: residual {res:.2e}")

print()
print("the same identity on [a, a + eps], checked coefficientwise")
print("-----------------------------------------------------------")
for src, a in [("exp(x)", 0.0), ("log(x)", 1.0), ("x^2", 3.0)]:
    res = taylor_remainder_check_infinitesimal(parse_expr(src), a)
    print(f"  f = {src:<7} at a = {a}: residual series norm {coefficient_norm(res):.2e}")
