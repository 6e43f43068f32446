"""Derivative, mean-value, extremum, integration, and remainder tests."""

import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from levicalc import calculus, expr, field
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
from levicalc.expr import (Add, Call, Const, Expr, Mul, Var, eval_hyper, eval_real, parse_expr, render_expr,
                           symbolic_derivative)
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


@pytest.mark.parametrize("src, order, jet", [("1/x", 1, "eps^(-1)"), ("sqrt(x)", 1, "eps^(1/2)"),
                                             ("sqrt(x)", 2, "eps^(1/2)"), ("x*sqrt(x)", 2, "eps^(3/2)")])
def test_derivative_is_not_read_off_a_jet_with_a_pole_or_a_branch(src, order, jet):
    # The eps^order coefficient of these jets is 0, a plausible wrong answer.
    message = f"{render_expr(f(src))} is not smooth at 0.0: its jet there is {jet}"
    with pytest.raises(DomainError) as e:
        derivative(f(src), 0.0, order)
    assert str(e.value) == message


@pytest.mark.parametrize("src, x0, order", [("x*sqrt(x)", 0.0, 1), ("sin(x)/x", 0.0, 1), ("sin(x)/x", 0.0, 2),
                                            ("x^2*sqrt(x)", 0.0, 2), ("1/x", 2.0, 3)])
def test_derivative_of_a_smooth_enough_jet_is_its_coefficient(src, x0, order):
    want = {("x*sqrt(x)", 1): 0.0, ("sin(x)/x", 1): 0.0, ("sin(x)/x", 2): -1 / 3, ("x^2*sqrt(x)", 2): 0.0,
            ("1/x", 3): -6 / 16}[src, order]
    assert derivative(f(src), x0, order) == pytest.approx(want, abs=1e-12)


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


@pytest.mark.parametrize("src, x, h, k", [("exp(x)", 0.0, 1e-6, 1), ("sin(x)", 0.3, 1e-6, 1),
                                          ("x^2", 0.0, 1e-7, 1), ("x^3", 0.0, 1e-7, 2)])
def test_mvt_real_rounding_level_scan_is_not_degenerate(src, x, h, k):
    # every scanned residual is at the rounding level, so theta is the
    # convention 1/2, but f'' (or f''') does not vanish at x
    r = mvt_theta_real(f(src), x, h)
    assert r.theta == 0.5
    assert r.leading_order == k
    assert not r.degenerate


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
    per scan point, the first bracket found by a loop (the reference); the
    bracket is then narrowed by the same root finder."""
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
    theta, _ = calculus._theta_in_bracket(gt, lo, hi, gt(lo), gt(hi), tol)
    return float(theta)


@pytest.mark.parametrize("src", ["exp(x)", "sin(3*x) * cos(x)", "(1 + x) / (2 + x^2)", "log(2 + x)"])
def test_mvt_real_matches_pointwise_scan(src):
    rng = random.Random(43)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0)
        h = rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 0)
        assert mvt_theta_real(f(src), x, h).theta == _scalar_scan_theta(f(src), x, h), (x, h)


def _num(rng, lo, hi, floor=0.0):
    while True:
        v = round(rng.uniform(lo, hi), 3)
        if abs(v) >= floor:
            return v


def _smooth_factor(rng, nest=1):
    """One smooth factor of the kind bench/gen.py draws, as source text:
    with probability 0.4 (while nest allows) its argument is a factor too."""
    if nest > 0 and rng.random() < 0.4:
        u = _smooth_factor(rng, nest - 1)
    else:
        u = f"({_num(rng, -2.0, 2.0, 0.5)}*x + ({_num(rng, -1.0, 1.0)}))"
    kind = rng.choice(("sin", "cos", "exp", "log", "sqrt", "recip", "poly"))
    if kind in ("sin", "cos"):
        return f"{kind}({u})"
    if kind == "exp":
        return f"exp(({_num(rng, -0.8, 0.8, 0.1)})*{u})"
    if kind in ("log", "sqrt"):
        return f"{kind}({_num(rng, 0.5, 2.0)} + {u}^2)"
    if kind == "recip":
        return f"(({_num(rng, -2.0, 2.0, 0.5)}) / ({_num(rng, 0.5, 2.0)} + {u}^2))"
    return f"({u}^{rng.choice((2, 3))})"


def test_mvt_real_evaluation_count(monkeypatch):
    # the bracket from the scan is 1/1024 wide, and regula falsi narrows it
    # in a handful of scalar evaluations of g (f(x) and f(x+h) included)
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_real(*args)

    monkeypatch.setattr(calculus, "eval_real", counted)
    rng = random.Random(12)
    for _ in range(100):
        src = _smooth_factor(rng)
        for _ in range(2):
            src = f"({src}) {rng.choice('+-*')} {_smooth_factor(rng)}"
        x, h = _num(rng, -1.0, 1.0), rng.choice([-1, 1]) * rng.uniform(0.1, 0.5)
        calls.clear()
        r = mvt_theta_real(f(src), x, h)
        assert len(calls) <= 12, (src, x, h, len(calls))
        assert 0.0 <= r.theta <= 1.0
        scale = max(1.0, abs(eval_real(f(src), {"x": x + h}) - eval_real(f(src), {"x": x})))
        assert abs(r.residual) <= 1e-12 * scale, (src, x, h)


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


@pytest.mark.parametrize("src, x, c, want", [
    ("exp(x)", 0.0, 1000.0, 1000.0 / 24),  # f'''/f'' = 1
    ("log(x)", 2.0, 100.0, -100.0 / 24),  # f'''/f'' = (1/4)/(-1/4)
])
def test_mvt_infinitesimal_scaled_h(src, x, c, want):
    # theta = 1/2 + f'''/(24 f'') * h, so with h = c*eps its eps coefficient
    # scales with c, however large the coefficients of f(x+h) - f(x) get
    h = field.mul(field.LCNumber.from_real(c), eps())
    r = mvt_theta_infinitesimal(f(src), x, h)
    assert abs(r.theta.coefficient(0) - 0.5) <= 1e-12
    assert abs(r.theta.coefficient(1) - want) <= 1e-9 * abs(want)


def hensel_steps(depth, q, k):
    """Newton steps of mvt_theta_infinitesimal, as its docstring states them."""
    ratio = Fraction(depth) / q + (1 if k == 1 else 0)
    floor_log2 = int(ratio).bit_length() - 1
    return floor_log2 if k == 1 else max(0, floor_log2 + 1)


@pytest.mark.parametrize("depth", [4, 10, 20])
@pytest.mark.parametrize("h_src", ["eps", "eps^(1/3)", "2*eps^2 + eps^3"])
@pytest.mark.parametrize("src, k", [("exp(x)", 1), ("sin(x)", 2), ("x^4 + x^5", 3)])
def test_mvt_infinitesimal_step_count(monkeypatch, src, k, h_src, depth):
    # Three evaluations to set up and two per Newton step, for no more steps
    # than the Hensel schedule fixes in advance.
    calls = []
    real_eval_hyper = calculus.eval_hyper

    def counting(*args, **kwargs):
        calls.append(1)
        return real_eval_hyper(*args, **kwargs)

    monkeypatch.setattr(calculus, "eval_hyper", counting)
    h = field.parse_lc(h_src, field.FieldConfig(depth=depth))
    r = mvt_theta_infinitesimal(f(src), 0.0, h)
    assert r.leading_order == k
    assert abs(r.theta.coefficient(0) - (k + 1) ** (-1 / k)) <= 1e-12
    assert len(calls) <= 3 + 2 * hensel_steps(depth, h.leading_exponent, k)
    if depth == 10:
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


@pytest.mark.parametrize("tol_x", [0.0, 1e-15])
def test_evt_stops_when_the_window_collapses(tol_x):
    # With a tolerance at or below the spacing of floats near the argmax,
    # the zoom shrinks the window to a single float and stops there.  In
    # floats sin(x) is 1.0 for every x within 2^-26 of pi/2, and the
    # smallest argmax index is taken, so the argmax is a point of that
    # plateau, not pi/2 to the last bit.
    r = evt_max(f("sin(x)"), 0.0, 3.0, tol_x=tol_x)
    assert math.sin(r.argmax) == r.max_value == 1.0
    assert abs(r.argmax - math.pi / 2) <= 2.0 ** -26
    assert r.refinement_trace[-1][2] == r.argmax
    assert r.H_final == r.refinement_trace[-1][0]


@pytest.mark.parametrize("kwargs", [{"grid": 0}, {"max_rounds": 0}, {"tol_x": -1.0}, {"b": 5e-324}])
def test_evt_rejects_out_of_range_arguments(kwargs):
    # [0, 5e-324] is a < b, but its 1000 cells have zero width in floats
    with pytest.raises(ValueError):
        evt_max(f("sin(x)"), **{"a": 0.0, "b": 3.0, **kwargs})


def test_evt_not_finite():
    with pytest.raises(NotFinite):
        evt_max(f("exp(800 - x^2)"), -30.0, 30.0)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("call", [
    lambda: derivative(f("exp(x)"), NAN),
    lambda: derivative(f("exp(x)"), INF),
    lambda: evt_max(f("sin(x)"), 0.0, INF),
    lambda: evt_max(f("sin(x)"), -INF, 0.0),
    lambda: evt_max(f("sin(x)"), -1e308, 1e308),
    lambda: evt_max(f("sin(x)"), 0.0, NAN),
    lambda: riemann_integral(f("sin(x)"), 0.0, INF),
    lambda: riemann_integral(f("sin(x)"), 0.0, NAN),
    lambda: riemann_integral(f("sin(x)"), -1e308, 1e308),
    lambda: riemann_integral(f("sin(x)"), NAN, NAN),
], ids=["derivative-nan", "derivative-inf", "evt-b-inf", "evt-a-inf", "evt-width-overflows", "evt-b-nan",
        "integral-b-inf", "integral-b-nan", "integral-width-overflows", "integral-nan-nan"])
def test_calculus_takes_finite_real_arguments(call, monkeypatch):
    # rejected before any grid is built, so numpy raises no warning either
    monkeypatch.setattr(calculus, "_on_grid", None)
    with pytest.raises(ValueError, match="must be finite"):
        call()


# -- integration ---------------------------------------------------------------------


def test_integral_x_squared():
    r = riemann_integral(f("x^2"), 0.0, 1.0)
    assert abs(r.value - 1.0 / 3) <= 1e-8
    assert r.extrapolated
    assert r.H_schedule == list(calculus.DEFAULT_H_SCHEDULE[:len(r.H_schedule)])
    assert len(r.sums) == len(r.H_schedule) >= 4


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


def test_integral_one_grid_has_no_error_estimate():
    r = riemann_integral(f("x"), 0.0, 1.0, schedule=[1000])
    assert r.H_schedule == [1000] and r.value == r.sums[0]
    assert r.error == math.inf and r.extrapolated is False


@pytest.mark.parametrize("schedule", [[1000, 1000], [1000, 2000.5], [2000, 1000], [0, 10], ["1000"]])
def test_integral_bad_schedule_raises(schedule):
    with pytest.raises(ValueError):
        riemann_integral(f("sin(x)"), 0.0, 1.0, schedule=schedule)


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
        assert r.sums == _per_grid_left_sums(g, a, b, r.H_schedule)


@pytest.mark.parametrize("schedule", [[1000, 3000, 6000, 24000], [500, 1000, 1500, 3000, 12000]])
def test_integral_refined_sums_match_per_grid_evaluation(schedule):
    # Fresh grids, one-walk prefixes and new-points-only refinements by 2 and 4.
    for src in ["exp(x) * sin(3*x) / (1 + x^2)", "sqrt(x)"]:
        r = riemann_integral(f(src), 0.0, 1.3, schedule=schedule)
        assert r.sums == _per_grid_left_sums(f(src), 0.0, 1.3, r.H_schedule)
    assert r.H_schedule == schedule  # sqrt's table does not settle


def test_integral_error_precedence_on_a_schedule_that_does_not_nest():
    # The first walk covers the 2000 grid, where x = 0.0005 divides by zero;
    # evaluated grid by grid, the 1000 grid fails first, on the sqrt.
    with pytest.raises(DomainError, match="^sqrt of a negative value$"):
        riemann_integral(f("1/(x - 0.0005) + sqrt(0.5 - x)"), 0.0, 1.0, schedule=[1000, 2000, 3000])


@pytest.mark.parametrize("src, a, b, exact", [
    ("x^2", 0.0, 1.0, 1.0 / 3), ("sin(x)", 0.0, 1.0, 1.0 - math.cos(1.0)),
    ("1/(1+x^2)", 0.0, 1.0, math.pi / 4), ("exp(x)", 0.0, 2.0, math.e ** 2 - 1.0)])
def test_integral_table_converges_on_the_first_walk(src, a, b, exact):
    r = riemann_integral(f(src), a, b)
    assert abs(r.value - exact) <= 1e-13 * max(1.0, abs(exact))
    assert r.H_schedule[-1] <= 8000


@pytest.mark.parametrize("src, a, b, exact, bound", [
    ("sqrt(x)", 0.0, 1.0, 2.0 / 3, 2.5e-9),
    ("sqrt(1-x*x)", -1.0, 1.0, math.pi / 2, 2.0e-8),
    ("log(x)", 1e-4, 1.0, -1.0 + 1e-4 - 1e-4 * math.log(1e-4), 2.8e-9)])
def test_integral_singular_endpoints_refine_and_report_their_error(src, a, b, exact, bound):
    # The 1/H expansion breaks at the endpoint, so the table never settles
    # and refinement runs to the finest grid; the reported error must still
    # cover the actual one, up to the rounding of sums of size L1 = |exact|.
    r = riemann_integral(f(src), a, b)
    actual = abs(r.value - exact)
    assert actual <= bound
    assert r.error >= actual - 4 * 2.0 ** -52 * abs(exact)


def test_integral_evaluates_each_grid_point_at_most_once(monkeypatch):
    walks, on_grid = [], calculus._on_grid

    def counting(g, var, xs, plan=None):
        walks.append(xs.copy())
        return on_grid(g, var, xs, plan)

    monkeypatch.setattr(calculus, "_on_grid", counting)
    for src, a, b in [("exp(x) * sin(3*x) / (1 + x^2)", -0.7, 1.3), ("sqrt(x)", 0.0, 1.0), ("sin(40*x)", 0.0, 3.0)]:
        walks.clear()
        r = riemann_integral(f(src), a, b)
        points = np.concatenate(walks)
        assert len(np.unique(points)) == len(points) == r.H_schedule[-1] <= 64000


def test_integral_of_a_constant_stops_after_four_sums():
    for src in ["3", "2 + 0*x"]:
        r = riemann_integral(f(src), -1.0, 2.0)
        assert r.H_schedule == [1000, 2000, 4000, 8000] and len(r.sums) == 4


def test_integral_not_finite():
    with pytest.raises(NotFinite):
        riemann_integral(f("exp(800 - x^2)"), -30.0, 30.0)


# -- grid evaluation ------------------------------------------------------------------

COMPOSITES = ["exp(x) * sin(3*x) / (1 + x^2)", "sqrt(2 + sin(x)^2) * log(3 + x)",
              "cos(x*exp(-x))^3 - x^4 / (2 + x)"]


def second_derivative(src):
    return symbolic_derivative(symbolic_derivative(f(src), "x"), "x")


def nodes_of(e):
    """The distinct node objects of e, leaves included, read off the dataclass fields."""
    nodes, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(v for v in vars(node).values() if isinstance(v, Expr))
    return list(nodes.values())


def inner_nodes(e):
    """The distinct node objects of e, leaves left out, by id."""
    nodes, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in nodes and not isinstance(node, (Var, Const)):
            nodes[id(node)] = node
            stack.extend(expr._children(node))
    return nodes


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 64000])
@pytest.mark.parametrize("src", COMPOSITES)
def test_on_grid_matches_one_whole_array_walk(src, n):
    g = second_derivative(src)
    xs = np.linspace(-0.9, 1.7, n)
    assert calculus._on_grid(g, "x", xs).tobytes() == eval_real(g, {"x": xs}).tobytes()


def test_on_grid_computes_each_shared_node_once_per_chunk(monkeypatch):
    g = second_derivative(COMPOSITES[0])
    assert expr._sharing_plan(g)  # f'' shares subterms
    computed = Counter()
    real_evaluate = expr._evaluate

    def counting(e, binding, alg, memo=None):
        if memo is None or id(e) not in memo:  # this call computes e rather than reusing it
            computed[id(e)] += 1
        return real_evaluate(e, binding, alg, memo)

    monkeypatch.setattr(expr, "_evaluate", counting)
    monkeypatch.setattr(calculus, "_evaluate", counting)
    nodes = inner_nodes(g)
    xs = np.linspace(0.0, 1.0, 3 * calculus._CHUNK + 5)
    calculus._on_grid(g, "x", xs)
    assert {computed[key] for key in nodes} == {4}
    computed.clear()
    eval_real(g, {"x": xs})  # the tree walk computes a shared node at every use
    assert max(computed[key] for key in nodes) > 1


@pytest.mark.parametrize("src", COMPOSITES)
def test_derivatives_are_hash_consed(src):
    fp = symbolic_derivative(f(src), "x")
    for g in (fp, symbolic_derivative(fp, "x")):
        nodes = list(inner_nodes(g).values())
        assert len(set(nodes)) == len(nodes)  # no two distinct objects are ==


def test_hash_consing_keeps_signed_zeros_apart():
    d = symbolic_derivative(f("x * (y * 0) + x * (y * -0)"), "x")
    assert d == Add(Mul(Var("y"), Const(0.0)), Mul(Var("y"), Const(-0.0)))
    assert d.left is not d.right
    assert [math.copysign(1.0, m.right.value) for m in (d.left, d.right)] == [1.0, -1.0]


def test_on_grid_computes_each_distinct_call_once_per_chunk(monkeypatch):
    # Counted by structure, not by id: the chain rule's exp(x) and cos(2*x)
    # must be the very nodes that f and f' already hold.
    g = second_derivative("sin(2*x) * exp(x)")
    computed = Counter()
    real_evaluate = expr._evaluate

    def counting(e, binding, alg, memo=None):
        if type(e) is Call and (memo is None or id(e) not in memo):
            computed[e] += 1
        return real_evaluate(e, binding, alg, memo)

    monkeypatch.setattr(expr, "_evaluate", counting)
    monkeypatch.setattr(calculus, "_evaluate", counting)
    calculus._on_grid(g, "x", np.linspace(0.0, 1.0, 3 * calculus._CHUNK + 5))
    assert computed == {f("sin(2*x)"): 4, f("cos(2*x)"): 4, f("exp(x)"): 4}


@pytest.mark.parametrize("src, x", [(src, 0.4) for src in COMPOSITES] + [
    ("exp(x)", 0.0), ("sin(2*x) * exp(x)", 0.3), ("sqrt(1 + x^2) / (2 + x)", -0.4),
    ("log(2 + sin(x)) * cos(x)^3", 0.7), ("x^3", 0.0)])
def test_field_walks_with_a_plan_give_the_same_bits(monkeypatch, src, x):
    def bits(value):
        return [(q, c.hex()) for q, c in value.terms]

    def run():
        r = mvt_theta_infinitesimal(f(src), x)
        return bits(r.theta), bits(r.residual), bits(taylor_remainder_check_infinitesimal(f(src), x))

    plans = []
    monkeypatch.setattr(calculus, "_sharing_plan", lambda e: plans.append(expr._sharing_plan(e)) or plans[-1])
    shared = run()
    assert len(plans) == 3
    monkeypatch.setattr(calculus, "_sharing_plan", lambda e: {})
    assert run() == shared


class FirstGridWalk(Exception):
    pass


def count_visits(monkeypatch):
    """The nodes that `_children` is called on, in order; the first walk
    over a grid raises FirstGridWalk."""
    visited = []
    real_children = expr._children

    def stop(e, binding, alg, memo=None):
        raise FirstGridWalk

    monkeypatch.setattr(expr, "_children", lambda e: visited.append(e) or real_children(e))
    monkeypatch.setattr(calculus, "_evaluate", stop)
    return visited


@pytest.mark.parametrize("run", [lambda g: riemann_integral(g, -0.5, 1.5), lambda g: evt_max(g, -0.5, 1.5)])
@pytest.mark.parametrize("src", COMPOSITES)
def test_grid_operations_visit_each_node_of_f_once(monkeypatch, src, run):
    g = f(src)
    nodes = nodes_of(g)
    visited = count_visits(monkeypatch)
    with pytest.raises(FirstGridWalk):
        run(g)
    assert Counter(map(id, visited)) == Counter(map(id, nodes))


@pytest.mark.parametrize("run", [lambda g: mvt_theta_real(g, -0.5, 2.0),
                                 lambda g: taylor_remainder_check(g, -0.5, 1.5)])
@pytest.mark.parametrize("src", COMPOSITES + ["x^3"])
def test_each_analysed_tree_is_walked_once(monkeypatch, src, run):
    # f is analysed for its variable, then the tree the grids walk (f', or
    # (b - x) * f'') for its plan: two trees, each node object of each met
    # once by its walk.
    visited, starts = count_visits(monkeypatch), []
    real_analysis = expr._analysis

    def analysis(e):
        starts.append((e, len(visited)))
        return real_analysis(e)

    monkeypatch.setattr(expr, "_analysis", analysis)
    monkeypatch.setattr(calculus, "_analysis", analysis)
    with pytest.raises(FirstGridWalk):
        run(f(src))
    assert len(starts) == 2 and starts[0][0] is not starts[1][0]
    ends = [start for _, start in starts[1:]] + [len(visited)]
    for (root, start), end in zip(starts, ends):
        assert Counter(map(id, visited[start:end])) == Counter(map(id, nodes_of(root)))


def test_walks_of_the_same_tree_give_one_analysis():
    g = second_derivative(COMPOSITES[1])
    names, plan = expr._analysis(g)
    assert names == expr.free_variables(g) == {"x"}
    assert plan == expr._sharing_plan(g) and plan  # a derivative DAG shares subterms
    leaves = {id(node) for node in nodes_of(g) if isinstance(node, (Var, Const))}
    assert not leaves & plan.keys()
    assert expr._analysis(f(COMPOSITES[1]))[1] == {}  # a parsed tree repeats no node object


@pytest.mark.parametrize("src", COMPOSITES + ["x^0 + y*x - 2", "log(sin(x)*x)", "x*(y*0) + x*(y*-0)"])
def test_second_derivative_from_one_table(monkeypatch, src):
    table, fresh = {}, symbolic_derivative(symbolic_derivative(f(src), "x"), "x")
    fp = symbolic_derivative(f(src), "x", table)
    fpp = symbolic_derivative(fp, "x", table)
    assert fpp == fresh and fp == symbolic_derivative(f(src), "x")
    nodes = [node for node in nodes_of(fpp) if not isinstance(node, (Var, Const))]
    assert len(set(nodes)) == len(nodes)  # still hash-consed
    # f' is not interned again: its nodes that are f's have their derivatives.
    calls, table = [], {}
    fp = symbolic_derivative(f(src), "x", table)
    real_derive = expr._derive_node
    monkeypatch.setattr(expr, "_derive_node", lambda e, var, t: calls.append(t is table) or real_derive(e, var, t))
    symbolic_derivative(fp, "x", table)
    symbolic_derivative(fp, "x")
    assert calls.count(True) < calls.count(False)


@pytest.mark.parametrize("src, x", [(src, 0.4) for src in COMPOSITES] + [
    ("exp(x)", 0.0), ("sin(2*x) * exp(x)", 0.3), ("log(2 + sin(x)) * cos(x)^3", 0.7), ("x^3", 0.0)])
def test_one_table_gives_the_bits_of_two(monkeypatch, src, x):
    def bits(value):
        return [(q, c.hex()) for q, c in value.terms] if isinstance(value, field.LCNumber) else value.hex()

    def run():
        r = mvt_theta_infinitesimal(f(src), x)
        return (bits(r.theta), bits(r.residual), bits(taylor_remainder_check_infinitesimal(f(src), x)),
                bits(taylor_remainder_check(f(src), x, x + 0.5)))

    shared = run()
    real = expr.symbolic_derivative  # the reference: a fresh table for every derivative
    monkeypatch.setattr(calculus, "symbolic_derivative", lambda e, var, table=None: real(e, var))
    assert run() == shared


def test_chunked_grid_reports_the_whole_grid_error():
    # x = 0 (division by zero) is in the first chunk, x > 0.9 (sqrt of a
    # negative value) in a later one; the whole-array walk meets the sqrt first.
    with pytest.raises(DomainError, match="^sqrt of a negative value$"):
        riemann_integral(f("sqrt(0.9 - x) + 1/x"), 0.0, 1.0)


def test_chunked_grid_not_finite_names_the_whole_grid():
    xs = 1.0 / 64000 * np.arange(64000)  # the finest default Riemann grid on [0, 1]
    with pytest.raises(NotFinite) as e:
        riemann_integral(f("exp(1000*x)"), 0.0, 1.0)
    assert str(e.value) == f"exp(1000 * x) is not finite on the grid over [{xs[0]}, {xs[-1]}]"


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


@pytest.mark.parametrize("src, a", [("exp(x)", 0.0), ("log(x)", 1.0), ("sin(2*x) * exp(x)", 0.3),
                                    ("x^3", 0.0), ("sqrt(1 + x^2) / (2 + x)", -0.4)])
def test_taylor_remainder_infinitesimal_reads_f_prime_off_its_jet(monkeypatch, src, a):
    # f'(a) is the eps coefficient of the jet f(a + eps), bit for bit what
    # derivative() computes with a third evaluation.
    g = f(src)
    jet = eval_hyper(g, {"x": field.add(field.LCNumber.from_real(a), eps())})
    assert jet.coefficient(1) == derivative(g, a, 1)
    calls = []
    real_eval_hyper = calculus.eval_hyper

    def counting(*args, **kwargs):
        calls.append(1)
        return real_eval_hyper(*args, **kwargs)

    monkeypatch.setattr(calculus, "eval_hyper", counting)
    taylor_remainder_check_infinitesimal(g, a)
    assert len(calls) == 2


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
