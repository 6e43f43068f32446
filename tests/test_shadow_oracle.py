"""The two mean-value solvers against each other: the paper's own check.

By transfer, the series theta of ``mvt_theta_infinitesimal`` at h = eps and
the real theta of ``mvt_theta_real`` at a small real h are one object: the
series, summed at eps = t, is the real theta at h = t.  The corpus is a
seeded set of one- and two-factor smooth expressions, each factor a
primitive of a linear argument or of another factor, with ``log`` and
``sqrt`` only of ``c + u^2`` (c > 0) and division only by such a term, so
every expression is smooth everywhere.
"""

import math
import random

import pytest

from levicalc.calculus import derivative, mvt_theta_infinitesimal, mvt_theta_real
from levicalc.expr import eval_real, parse_expr
from levicalc.field import DEFAULT_CONFIG

KINDS = ("sin", "cos", "exp", "log", "sqrt", "recip", "poly")
PER_SEED = 200


def _num(rng, lo, hi, floor=0.0):
    """A 3-decimal constant in [lo, hi] of magnitude at least floor, as text."""
    while True:
        v = round(rng.uniform(lo, hi), 3)
        if abs(v) >= floor:
            return f"({v})" if v < 0 else f"{v}"


def _factor(rng, nest):
    u = _factor(rng, nest - 1) if nest > 0 and rng.random() < 0.4 else \
        f"({_num(rng, -2.0, 2.0, 0.5)}*x + {_num(rng, -1.0, 1.0)})"
    kind = rng.choice(KINDS)
    if kind in ("sin", "cos"):
        return f"{kind}({u})"
    if kind == "exp":
        return f"exp({_num(rng, -0.8, 0.8, 0.1)}*{u})"
    positive = f"({_num(rng, 0.5, 2.0)} + ({u})^2)"
    if kind in ("log", "sqrt"):
        return f"{kind}{positive}"
    if kind == "recip":
        return f"{_num(rng, -2.0, 2.0, 0.5)}/{positive}"
    return f"({u})^{rng.choice((2, 3))}"


def corpus(seed):
    """PER_SEED (source, x) pairs: one or two factors joined by +, - or *."""
    rng = random.Random(f"shadow/{seed}")
    for _ in range(PER_SEED):
        src = _factor(rng, 1)
        if rng.random() < 0.5:
            src = f"({src}) {rng.choice('+-*')} ({_factor(rng, 1)})"
        yield src, float(_num(rng, -1.0, 1.0).strip("()"))


@pytest.mark.parametrize("seed", range(1, 9))
def test_series_theta_is_the_real_theta(seed):
    # Orders 0..depth-2 of theta are determined (ROADMAP item 11: the top
    # two are fitted to truncation).  t lies well inside the radius that the
    # root test estimates, the least |theta_k|^(-1/k) over the nonzero
    # orders 4..8; a ratio of neighbours collapses where one coefficient
    # between two large ones is near zero.  The allowance is twice the last
    # summed term's size plus the real solver's stop rule: it stops at
    # |g| <= 1e-12 * max(1, |f(x+t) - f(x)|), and g's slope in theta is
    # t^2 * f''(x).  Every allowance stays below 1, so no input is passed
    # vacuously.  A series stopped after its first Newton step, right only
    # in orders 0..2, fails at every seed.
    top = DEFAULT_CONFIG.depth - 2
    checked = 0
    for src, x in corpus(seed):
        f = parse_expr(src)
        series = mvt_theta_infinitesimal(f, x)
        if series.leading_order != 1 or series.degenerate:
            continue
        theta = [series.theta.coefficient(k) for k in range(top + 1)]
        # exp's theta has no even orders past 0, a square's none past 0
        r = min((abs(theta[k]) ** (-1 / k) for k in range(4, top + 1) if theta[k]), default=math.inf)
        t = min(1e-2, r / 20)
        shadow = sum(c * t ** k for k, c in enumerate(theta))
        real = mvt_theta_real(f, x, t).theta
        scale = max(1.0, abs(eval_real(f, {"x": x + t}) - eval_real(f, {"x": x})))
        allowed = 2 * (abs(theta[top]) * t ** top + 1e-12 * scale / (t * t * abs(derivative(f, x, 2))))
        assert abs(shadow - real) <= allowed < 1, (src, x, t, shadow, real, allowed)
        checked += 1
    assert checked >= PER_SEED * 3 // 4
