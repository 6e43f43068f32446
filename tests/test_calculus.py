"""Derivative, mean-value, extremum, integration, and remainder tests."""

import math
import random
import warnings

import numpy as np
import pytest

from levicalc import calculus, field
from levicalc.calculus import (
    derivative,
    evt_max,
    mvt_theta_infinitesimal,
    mvt_theta_real,
    riemann_integral,
    taylor_remainder_check,
    taylor_remainder_check_infinitesimal,
)
from levicalc.errors import DomainError, NotFinite, OrderTooHigh
from levicalc.expr import eval_real, parse_expr, symbolic_derivative
from levicalc.field import coefficient_norm, eps


def f(src):
    return parse_expr(src)


# -- derivative -----------------------------------------------------------------


def test_derivative_examples():
    assert derivative(f("x^3"), 2.0, 1) == pytest.approx(12.0, abs=1e-12)
    assert derivative(f("sin(x)"), 0.0, 3) == pytest.approx(-1.0, abs=1e-12)
    # oracle: d2/dx2 of x*exp(x) evaluated symbolically at 1
    g = symbolic_derivative(symbolic_derivative(f("x * exp(x)"), "x"), "x")
    expected = eval_real(g, {"x": 1.0})
    assert expected == pytest.approx(3 * math.e, abs=1e-12)
    assert derivative(f("x * exp(x)"), 1.0, 2) == pytest.approx(expected, abs=1e-10)


def test_derivative_order_bounds():
    with pytest.raises(OrderTooHigh):
        derivative(f("exp(x)"), 0.0, 11)
    with pytest.raises(ValueError):
        derivative(f("exp(x)"), 0.0, 0)


def test_derivative_matches_central_differences():
    rng = random.Random(13)
    sources = ["sin(2*x) + x^2", "exp(x) * cos(x)", "log(3 + x)", "x^5 - x", "sqrt(4 + x^2)"]
    for _ in range(500):
        src = rng.choice(sources)
        x0 = rng.uniform(-1.2, 1.2)
        e = f(src)
        h = 1e-5
        fd = (eval_real(e, {"x": x0 + h}) - eval_real(e, {"x": x0 - h})) / (2 * h)
        d1 = derivative(e, x0, 1)
        assert abs(d1 - fd) <= 1e-6 * (1 + abs(d1))


# -- mean value theorem, real increments ------------------------------------------


def test_mvt_real_linear_degenerate():
    r = mvt_theta_real(f("3 + 2*x"), 0.0, 1.0)
    assert r.degenerate and r.theta == 0.5


def test_mvt_real_quadratic_exact():
    r = mvt_theta_real(f("x^2"), 0.0, 1.0)
    assert abs(r.theta - 0.5) <= 1e-12
    assert not r.degenerate
    assert r.leading_order == 1


def test_mvt_real_exp_closed_form():
    # oracle: e - 1 = e^theta has the closed-form solution log(e - 1)
    r = mvt_theta_real(f("exp(x)"), 0.0, 1.0)
    assert abs(r.theta - math.log(math.e - 1)) <= 1e-12
    assert abs(r.residual) <= 1e-12 * max(1.0, math.e - 1)


def test_mvt_real_residual_contract():
    rng = random.Random(21)
    sources = ["exp(x)", "sin(x) + x^2", "x^3 - x", "log(3 + x)", "sqrt(2 + x)"]
    for _ in range(500):
        src = rng.choice(sources)
        x = rng.uniform(-0.5, 0.5)
        h = rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 0)
        r = mvt_theta_real(f(src), x, h)
        assert 0.0 <= r.theta <= 1.0
        scale = max(1.0, abs(eval_real(f(src), {"x": x + h}) - eval_real(f(src), {"x": x})))
        assert abs(r.residual) <= 1e-12 * scale


def _scalar_scan_theta(g, x, h):
    """mvt_theta_real as it was with a pointwise scan: one scalar eval_real
    per scan point, the first bracket found by a loop (the reference)."""
    fp = symbolic_derivative(g, "x")
    delta_f = eval_real(g, {"x": x + h}) - eval_real(g, {"x": x})
    tol = 1e-12 * max(1.0, abs(delta_f))

    def gt(theta):
        return delta_f - h * eval_real(fp, {"x": x + theta * h})

    grid = np.linspace(0.0, 1.0, calculus._SCAN_POINTS + 1)
    values = [gt(t) for t in grid]
    for i in range(calculus._SCAN_POINTS):
        if abs(values[i]) <= tol:
            lo = hi = grid[i]
            break
        if values[i] * values[i + 1] <= 0:
            lo, hi = grid[i], grid[i + 1]
            break
    else:
        assert abs(values[-1]) <= tol
        lo = hi = grid[-1]
    glo = gt(lo)
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        gm = gt(mid)
        if abs(gm) <= tol:
            lo = hi = mid
            break
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
    theta = 0.5 * (lo + hi)
    fpp = symbolic_derivative(fp, "x")
    r = gt(theta)
    for _ in range(4):
        dg = -h * h * eval_real(fpp, {"x": x + theta * h})
        if r == 0 or dg == 0:
            break
        step = r / dg
        for _ in range(30):
            candidate = theta - step
            if 0.0 <= candidate <= 1.0 and abs(gt(candidate)) < abs(r):
                theta, r = candidate, gt(candidate)
                break
            step *= 0.5
        else:
            break
    return float(theta)


@pytest.mark.parametrize("src", ["exp(x)", "sin(3*x) * cos(x)", "(1 + x) / (2 + x^2)", "log(2 + x)"])
def test_mvt_real_matches_pointwise_scan(src):
    rng = random.Random(43)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0)
        h = rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 0)
        assert mvt_theta_real(f(src), x, h).theta == _scalar_scan_theta(f(src), x, h), (x, h)


def test_mvt_real_not_finite_on_scan():
    # f' overflows at x = 0, in the middle of the scanned interval
    with pytest.raises(NotFinite):
        mvt_theta_real(f("exp(800 - x^2)"), -30.0, 60.0)


@pytest.mark.parametrize("x, h", [(-4.9e102, 9.8e102), (1e102, 4e102)])
def test_mvt_real_not_finite_residual(x, h):
    # f is finite at x and x+h, but f(x+h) - f(x) (first case) or h * f'
    # (second case) overflows; numpy would only warn, so warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFinite):
            mvt_theta_real(f("x*x*x"), x, h)


# -- mean value theorem, infinitesimal increments ----------------------------------


def test_mvt_infinitesimal_exp():
    r = mvt_theta_infinitesimal(f("exp(x)"), 0.0)
    assert abs(r.theta.coefficient(0) - 0.5) <= 1e-12
    assert abs(r.theta.coefficient(1) - 1.0 / 24) <= 1e-12
    assert r.residual_norm <= 1e-10
    assert r.leading_order == 1


def test_mvt_infinitesimal_exp_vs_real_oracle():
    # oracle: run the real solver at shrinking h and extrapolate
    # (theta(h) - 1/2)/h linearly in h; the smallest h is kept as a direct
    # limit check only, since float cancellation noise in f(x+h)-f(x)
    # divided by h^2 dominates the extrapolant there
    thetas = {h: mvt_theta_real(f("exp(x)"), 0.0, h).theta for h in (1e-2, 1e-3, 1e-4)}
    r1 = (thetas[1e-2] - 0.5) / 1e-2
    r2 = (thetas[1e-3] - 0.5) / 1e-3
    oracle = (10 * r2 - r1) / 9
    series = mvt_theta_infinitesimal(f("exp(x)"), 0.0).theta
    assert abs(series.coefficient(1) - oracle) <= 1e-5
    assert abs(thetas[1e-4] - 0.5) <= 1e-4  # theta(h) -> st(theta)


def test_mvt_infinitesimal_quadratic():
    r = mvt_theta_infinitesimal(f("x^2"), 0.7)
    assert abs(r.theta.coefficient(0) - 0.5) <= 1e-12
    assert all(abs(c) <= 1e-12 for q, c in r.theta.terms if q != 0)
    assert r.residual_norm <= 1e-10


def test_mvt_infinitesimal_cubic_at_zero():
    r = mvt_theta_infinitesimal(f("x^3"), 0.0)
    assert abs(r.theta.coefficient(0) - 3 ** -0.5) <= 1e-8
    assert r.leading_order == 2
    # the real solver solves h^3 = 3 h^3 theta^2 for any h, same theta
    oracle = mvt_theta_real(f("x^3"), 0.0, 0.25).theta
    assert abs(r.theta.coefficient(0) - oracle) <= 1e-8


def test_mvt_infinitesimal_linear_degenerate():
    r = mvt_theta_infinitesimal(f("2*x + 5"), 0.0)
    assert r.degenerate
    assert field.standard_part(r.theta) == 0.5
    assert r.residual_norm <= 1e-10


def test_mvt_paths_consistent():
    # st of the series theta equals the h->0 limit of the real-h theta
    for src, x in [("exp(x)", 0.0), ("sin(x)", 0.4), ("log(x)", 2.0)]:
        series = mvt_theta_infinitesimal(f(src), x)
        if series.leading_order != 1:
            continue
        t1 = mvt_theta_real(f(src), x, 1e-2).theta
        t2 = mvt_theta_real(f(src), x, 1e-3).theta
        limit = (10 * t2 - t1) / 9
        assert abs(field.standard_part(series.theta) - limit) <= 1e-5


def test_mvt_infinitesimal_general_h():
    h = field.mul(field.LCNumber.from_real(2.0), field.mul(eps(), eps()))  # 2*eps^2
    r = mvt_theta_infinitesimal(f("exp(x)"), 0.0, h)
    assert abs(r.theta.coefficient(0) - 0.5) <= 1e-12
    assert abs(r.theta.coefficient(2) - 2.0 / 24) <= 1e-10  # theta = 1/2 + h/24, h = 2 eps^2
    assert r.residual_norm <= 1e-10


def test_mvt_infinitesimal_rejects_non_infinitesimal():
    with pytest.raises(ValueError):
        mvt_theta_infinitesimal(f("exp(x)"), 0.0, field.LCNumber.from_real(0.5))


# -- extremum -----------------------------------------------------------------------


def test_evt_parabola():
    r = evt_max(f("x * (1 - x)"), 0.0, 1.0)
    assert abs(r.argmax - 0.5) <= 1e-8
    assert abs(r.max_value - 0.25) <= 1e-12
    assert r.refinement_trace[0][0] == 1000


def test_evt_constant_tie_break():
    r = evt_max(f("7"), 0.0, 1.0)
    assert r.argmax == 0.0
    assert r.max_value == 7.0


def test_evt_against_brute_force():
    r = evt_max(f("sin(5*x) + x"), 0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 10 ** 6 + 1)
    brute = xs[np.argmax(np.sin(5 * xs) + xs)]
    assert abs(r.argmax - brute) <= 1e-6


def test_evt_certificate():
    r = evt_max(f("sin(5*x) + x"), 0.0, 1.0)
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 1.0, 10 ** 4)
    vals = np.sin(5 * xs) + xs
    assert r.max_value >= float(np.max(vals)) - 1e-6


def test_evt_trace_converges():
    r = evt_max(f("x * (2 - x)"), 0.0, 2.0)
    xs = [x for _, _, x in r.refinement_trace]
    assert abs(xs[-1] - 1.0) <= 1e-8
    assert r.H_final == r.refinement_trace[-1][0]


def test_evt_not_finite():
    with pytest.raises(NotFinite):
        evt_max(f("exp(800 - x^2)"), -30.0, 30.0)


# -- integration ---------------------------------------------------------------------


def test_integral_x_squared():
    r = riemann_integral(f("x^2"), 0.0, 1.0)
    assert abs(r.value - 1.0 / 3) <= 1e-8
    assert r.extrapolated
    assert len(r.sums) == 7


def test_integral_empty_interval():
    r = riemann_integral(f("log(x)"), 0.0, 0.0)  # not evaluable at 0; must not be evaluated
    assert r.value == 0.0 and r.error == 0.0


def test_integral_sin_closed_form():
    r = riemann_integral(f("sin(x)"), 0.0, 1.0)
    assert abs(r.value - (1 - math.cos(1.0))) <= 1e-8


def test_integral_additive():
    rng = random.Random(31)
    for _ in range(10):
        a = rng.uniform(0.0, 1.0)
        b = a + rng.uniform(0.1, 1.0)
        c = b + rng.uniform(0.1, 1.0)
        g = f("exp(x) * sin(2*x)")
        whole = riemann_integral(g, a, c)
        left = riemann_integral(g, a, b)
        right = riemann_integral(g, b, c)
        bound = left.error + right.error + whole.error + 1e-10
        assert abs(left.value + right.value - whole.value) <= bound


def test_operators_linear():
    g1, g2 = f("sin(x)"), f("x^2")
    combo = f("3*sin(x) - 2*x^2")
    assert abs(derivative(combo, 0.7, 1) - (3 * derivative(g1, 0.7, 1) - 2 * derivative(g2, 0.7, 1))) <= 1e-10
    i1 = riemann_integral(g1, 0.0, 1.0).value
    i2 = riemann_integral(g2, 0.0, 1.0).value
    ic = riemann_integral(combo, 0.0, 1.0).value
    assert abs(ic - (3 * i1 - 2 * i2)) <= 1e-8


def test_integral_custom_schedule():
    r = riemann_integral(f("x"), 0.0, 1.0, schedule=[100, 300, 900])
    assert abs(r.value - 0.5) <= 1e-6
    with pytest.raises(ValueError):
        riemann_integral(f("x"), 0.0, 1.0, schedule=[])


def _per_grid_left_sums(g, a, b, schedule):
    """Left Riemann sums with every grid evaluated on its own (the reference)."""
    sums = []
    for H in schedule:
        w = (b - a) / H
        sums.append(float(w * np.sum(eval_real(g, {"x": a + w * np.arange(H)}))))
    return sums


@pytest.mark.parametrize("schedule", [None, [1000, 1500]])
def test_integral_sums_match_per_grid_evaluation(schedule):
    g = f("exp(x) * sin(3*x) / (1 + x^2)")
    for a, b in [(-0.7, 1.3), (0.1, 0.35), (-2.0, -1.5)]:
        r = riemann_integral(g, a, b, schedule=schedule)
        assert r.sums == _per_grid_left_sums(g, a, b, schedule or calculus.DEFAULT_H_SCHEDULE)


def test_integral_not_finite():
    with pytest.raises(NotFinite):
        riemann_integral(f("exp(800 - x^2)"), -30.0, 30.0)


# -- Taylor integral remainder ----------------------------------------------------------


def test_taylor_remainder_trivial_quadratic():
    assert taylor_remainder_check(f("x^2"), 0.0, 1.0) <= 1e-8


def test_taylor_remainder_sin():
    # oracle: both sides in closed form; the identity itself is exact
    lhs = math.sin(1.0)
    rhs = math.sin(0.0) + math.cos(0.0) + (math.sin(1.0) - 1.0)
    assert abs(lhs - rhs) <= 1e-15
    assert taylor_remainder_check(f("sin(x)"), 0.0, 1.0) <= 1e-6


def test_taylor_remainder_exp():
    # closed form: e^2 = e + e + integral_1^2 (2-x) e^x dx, and the integral
    # term equals e^2 - 2e
    assert abs((math.e ** 2 - 2 * math.e) + 2 * math.e - math.e ** 2) <= 1e-12
    assert taylor_remainder_check(f("exp(x)"), 1.0, 2.0) <= 1e-6


def test_taylor_remainder_infinitesimal():
    for src, a in [("exp(x)", 0.0), ("log(x)", 1.0)]:
        res = taylor_remainder_check_infinitesimal(f(src), a)
        assert coefficient_norm(res) <= 1e-10, src


def test_taylor_remainder_infinitesimal_polynomial_exact():
    res = taylor_remainder_check_infinitesimal(f("x^2"), 3.0)
    assert coefficient_norm(res) <= 1e-13


def test_mvt_infinitesimal_stops_at_noise_floor(monkeypatch):
    # Near its rounding noise floor Newton alternates between two thetas a
    # rounding step apart; the solver must stop there rather than spend its
    # whole iteration budget (two evaluations a step).
    calls = []
    real_eval_hyper = calculus.eval_hyper

    def counting(*args, **kwargs):
        calls.append(1)
        return real_eval_hyper(*args, **kwargs)

    monkeypatch.setattr(calculus, "eval_hyper", counting)
    a, b, x = 1.324, 0.341, 0.824
    r = mvt_theta_infinitesimal(f(f"cos({a}*x + {b})"), x)
    assert len(calls) <= 40
    f2 = -a * a * math.cos(a * x + b)
    f3 = a ** 3 * math.sin(a * x + b)
    assert abs(r.theta.coefficient(0) - 0.5) <= 1e-12
    assert abs(r.theta.coefficient(1) - f3 / (24 * f2)) <= 1e-10
    assert r.residual_norm <= 1e-10
    assert r.leading_order == 1


def test_mvt_infinitesimal_rejects_fractional_jet():
    # sqrt is not smooth at 0: its jet there is eps^(1/2), which no integer
    # order describes, so "degenerate" would be a wrong answer.
    with pytest.raises(DomainError):
        mvt_theta_infinitesimal(f("sqrt(x)"), 0.0)
