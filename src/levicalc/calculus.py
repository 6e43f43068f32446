"""Infinitesimal-increment calculus built on the field and term modules.

The operations here run the classical constructions directly:

* derivatives read Taylor-jet coefficients off an evaluation at ``x0 + eps``;
* the mean-value position ``theta`` in ``f(x+h) - f(x) = h * f'(x + theta*h)``
  is solved both for real increments (bracketed bisection plus a Newton
  polish) and for infinitesimal increments (a series-valued Newton iteration
  seeded at the leading-order solution);
* the extremum finder simulates an ever-finer equispaced partition of
  ``[a, b]``, taking the argmax index at each stage and zooming in, so the
  refinement trace is the finite analogue of taking the shadow of a partition
  point on a grid with infinitely many cells;
* definite integration computes left-endpoint Riemann sums over a growing
  schedule of grid sizes and extrapolates the ``1/H`` error term away, which
  is the finite analogue of taking the shadow of an infinite Riemann sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import field
from .errors import DomainError, LevicalcError, NoBracket, NotFinite, OrderTooHigh
from .expr import (Const, Expr, Mul, Sub, Var, eval_hyper, eval_real, free_variables, render_expr,
                   symbolic_derivative)
from .field import DEFAULT_CONFIG, FieldConfig, LCNumber

DEFAULT_H_SCHEDULE = tuple(1000 * 2 ** k for k in range(7))


@dataclass
class ThetaResult:
    """Solution of the mean-value equation on one interval.

    theta is a float for real increments and a truncated series for
    infinitesimal ones.  leading_order is the order of the first
    nonvanishing derivative beyond f' at the expansion point (0 when none
    was found up to the truncation depth, which also sets ``degenerate``).
    """

    theta: "float | LCNumber"
    residual: "float | LCNumber"
    leading_order: int
    degenerate: bool = False

    @property
    def residual_norm(self) -> float:
        if isinstance(self.residual, LCNumber):
            return field.coefficient_norm(self.residual)
        return abs(self.residual)

    def to_json(self) -> dict:
        theta = field.to_json(self.theta) if isinstance(self.theta, LCNumber) else self.theta
        return {
            "theta": theta,
            "residual_norm": self.residual_norm,
            "leading_order": self.leading_order,
            "degenerate": self.degenerate,
        }


@dataclass
class PartitionResult:
    """Certificate of the partition-based extremum search."""

    argmax: float
    max_value: float
    H_final: int
    refinement_trace: list = dc_field(default_factory=list)  # (H, i0, x_i0) per round

    def to_json(self) -> dict:
        return {
            "c": self.argmax,
            "max": self.max_value,
            "trace": [[H, i0, x] for H, i0, x in self.refinement_trace],
        }


@dataclass
class IntegralResult:
    value: float
    error: float
    H_schedule: list
    sums: list
    extrapolated: bool

    def to_json(self) -> dict:
        return {"value": self.value, "error": self.error, "sums": self.sums}


def _the_var(f: Expr, var: "str | None") -> str:
    if var is not None:
        return var
    names = free_variables(f)
    if len(names) > 1:
        raise ValueError(f"expression has several variables {sorted(names)}; pass var=")
    return names.pop() if names else "x"


def _jet_at(f: Expr, x0: float, var: str, config: FieldConfig) -> LCNumber:
    point = LCNumber([(0, x0), (1, 1.0)], config)
    return eval_hyper(f, {var: point}, config)


def derivative(f: Expr, x0: float, order: int = 1, var: "str | None" = None,
               config: FieldConfig = DEFAULT_CONFIG) -> float:
    """k-th derivative at x0: k! times the eps^k jet coefficient."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    if order > config.depth:
        raise OrderTooHigh(f"order {order} exceeds truncation depth {config.depth}")
    var = _the_var(f, var)
    jet = _jet_at(f, x0, var, config)
    return jet.coefficient(order) * math.factorial(order)


def _leading_order(f: Expr, x: float, var: str, config: FieldConfig) -> int:
    """Order k of the first nonvanishing derivative beyond f', or 0 if none.

    A jet with a term at a fractional order (sqrt(x) at 0 has eps^(1/2)) is
    not a Taylor jet: f is not smooth at x, and no integer k describes it.
    """
    try:
        jet = _jet_at(f, x, var, config)
    except LevicalcError:
        return 0
    if any(not isinstance(q, int) for q, _ in jet.terms):
        raise DomainError(f"{render_expr(f)} is not smooth at {x}: its jet there is {jet}")
    scale = max(1.0, abs(jet.coefficient(0)), abs(jet.coefficient(1)))
    for m in range(2, config.depth + 1):
        if abs(jet.coefficient(m)) > 1e-12 * scale:
            return m - 1
    return 0


def _on_grid(f: Expr, var: str, xs: np.ndarray) -> np.ndarray:
    """f at every point of xs, evaluated as one array of xs's shape.

    A constant f is broadcast.  An inf or nan anywhere raises NotFinite, so an
    overflow never reaches a scan, an argmax or a sum as a plausible number.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.broadcast_to(eval_real(f, {var: xs}), xs.shape)
    if not np.isfinite(vals).all():
        raise NotFinite(f"{render_expr(f)} is not finite on the grid over [{xs[0]}, {xs[-1]}]")
    return vals


_SCAN_POINTS = 1024


def mvt_theta_real(f: Expr, x: float, h: float, var: "str | None" = None,
                   config: FieldConfig = DEFAULT_CONFIG) -> ThetaResult:
    """Solve f(x+h) - f(x) = h * f'(x + theta*h) for theta in [0, 1].

    The root of g(theta) = f(x+h) - f(x) - h*f'(x+theta*h) is taken from the
    first sign-change bracket of a left-to-right scan, narrowed by bisection
    and polished with damped Newton steps.  The scan evaluates f' on all of
    its 1025 points as one array, and raises NotFinite when f(x), f(x+h),
    f' or g is inf or nan anywhere on them; bisection and Newton evaluate g
    one point at a time.  A g that vanishes identically (linear f) returns
    the symmetric convention theta = 1/2.
    """
    if h == 0:
        raise ValueError("h must be nonzero")
    var = _the_var(f, var)
    fp = symbolic_derivative(f, var)
    delta_f = eval_real(f, {var: x + h}) - eval_real(f, {var: x})
    scale = max(1.0, abs(delta_f))
    tol = 1e-12 * scale

    def g(theta: float) -> float:
        return delta_f - h * eval_real(fp, {var: x + theta * h})

    grid = np.linspace(0.0, 1.0, _SCAN_POINTS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = delta_f - h * _on_grid(fp, var, x + grid * h)
    if not np.isfinite(values).all():  # delta_f or h * f' overflowed
        raise NotFinite(f"the mean-value residual of {render_expr(f)} is not finite on [{x}, {x + h}]")
    k = _leading_order(f, x, var, config)

    if np.max(np.abs(values)) <= max(tol, 1e-13 * max(scale, abs(eval_real(f, {var: x})))):
        return ThetaResult(0.5, g(0.5), 0, degenerate=True)

    # The bracket starts at the first point where g is within tol of zero (a
    # one-point bracket) or changes sign before the next point.
    small = np.abs(values) <= tol
    stops = np.append(small[:-1] | (values[:-1] * values[1:] <= 0), small[-1])
    i = int(np.argmax(stops))
    if not stops[i]:
        raise NoBracket("no sign change of the mean-value residual on [0, 1]")
    lo, hi = (grid[i], grid[i]) if small[i] else (grid[i], grid[i + 1])
    glo = g(lo)
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol:
            lo = hi = mid
            break
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
    theta = 0.5 * (lo + hi)

    # Newton polish: g'(theta) = -h^2 * f''(x + theta*h).  Damped (halved until
    # the step lands in [0, 1] and improves the residual), so it can only help.
    fpp = symbolic_derivative(fp, var)
    gt = g(theta)
    for _ in range(4):
        if gt == 0:
            break
        dg = -h * h * eval_real(fpp, {var: x + theta * h})
        if dg == 0:
            break
        step = gt / dg
        improved = False
        for _ in range(30):
            candidate = theta - step
            if 0.0 <= candidate <= 1.0:
                gc = g(candidate)
                if abs(gc) < abs(gt):
                    theta, gt = candidate, gc
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
    return ThetaResult(float(theta), gt, k)


def mvt_theta_infinitesimal(f: Expr, x: float, h: "LCNumber | None" = None,
                            var: "str | None" = None,
                            config: FieldConfig = DEFAULT_CONFIG) -> ThetaResult:
    """Solve the mean-value equation for an infinitesimal increment.

    theta comes out as a truncated series.  Matching the first nonvanishing
    order gives the real leading term theta0 = (k+1)**(-1/k) where the
    (k+1)-st derivative is the first nonvanishing one past f'; the higher
    coefficients are then produced by a Newton iteration in the field, which
    gains at least one valid order per step (so it is the order-by-order
    back-substitution, run to the truncation depth).  Past the rounding noise
    floor Newton only cycles between thetas a rounding step apart, so it
    stops once a step is noise, or once the residual neither gains an order
    nor shrinks (keeping the better theta).

    When every derivative past f' vanishes up to the depth the equation is
    degenerate (any theta works); by convention theta = 1/2 is returned with
    the ``degenerate`` flag set.  A jet of f at x with a fractional order (f
    is not smooth at x, as sqrt at 0) raises DomainError instead.
    """
    if h is None:
        h = field.eps(config)
    if not isinstance(h, LCNumber):
        raise TypeError("h must be an LCNumber for the infinitesimal solver")
    config = h.config
    if h.is_zero or h.leading_exponent <= 0:
        raise ValueError("h must be a nonzero infinitesimal")
    var = _the_var(f, var)

    k = _leading_order(f, x, var, config)
    fp = symbolic_derivative(f, var)
    x_lc = LCNumber.from_real(x, config)
    f_x = LCNumber.from_real(eval_real(f, {var: x}), config)
    delta_f = field.sub(eval_hyper(f, {var: field.add(x_lc, h)}, config), f_x)

    def residual(theta: LCNumber) -> LCNumber:
        shifted = field.add(x_lc, field.mul(theta, h))
        return field.sub(delta_f, field.mul(h, eval_hyper(fp, {var: shifted}, config)))

    if k == 0:
        theta = LCNumber.from_real(0.5, config)
        return ThetaResult(theta, residual(theta), 0, degenerate=True)

    theta0 = (k + 1) ** (-1.0 / k)
    theta = LCNumber.from_real(theta0, config)
    fpp = symbolic_derivative(fp, var)
    # Residual coefficients within eq_tol of delta_f's size count as solved.
    noise = config.eq_tol * max(1.0, field.coefficient_norm(delta_f))

    def progress(r: LCNumber) -> tuple:
        """(lowest unsolved order, size) of a residual."""
        return next((q for q, c in r.terms if abs(c) > noise), math.inf), field.coefficient_norm(r)

    r = residual(theta)
    for _ in range(80):
        if r.is_zero:
            break
        shifted = field.add(x_lc, field.mul(theta, h))
        dphi = field.neg(field.mul(field.mul(h, h), eval_hyper(fpp, {var: shifted}, config)))
        if dphi.is_zero:
            break
        step = field.mul(r, field.inv(dphi))
        new_theta = field.sub(theta, step)
        new_r = residual(new_theta)
        (order, size), (new_order, new_size) = progress(r), progress(new_r)
        if new_order <= order and new_size >= size:
            break
        theta, r = new_theta, new_r
        if field.coefficient_norm(step) <= config.eq_tol * max(1.0, field.coefficient_norm(theta)):
            break
    return ThetaResult(theta, r, k)


def evt_max(f: Expr, a: float, b: float, grid: int = 1000, max_rounds: int = 40,
            tol_x: float = 1e-9, var: "str | None" = None) -> PartitionResult:
    """Locate a maximum of f on [a, b] by refining equispaced partitions.

    Each round partitions the current window into ``grid`` cells, takes the
    smallest argmax index i0 (deterministic tie-break), then zooms to two
    cells on either side of x_i0.  Rounds stop when consecutive argmax
    abscissae differ by less than tol_x.  The trace records, per round, the
    partition size H relative to the original interval together with i0 and
    x_i0; its limit plays the role of the shadow of the argmax point.
    """
    if not a < b:
        raise ValueError("need a < b")
    var = _the_var(f, var)
    lo, hi = a, b
    trace = []
    prev_x = None
    x_best = a
    for _ in range(max_rounds):
        xs = np.linspace(lo, hi, grid + 1)
        vals = _on_grid(f, var, xs)
        i0 = int(np.argmax(vals))
        x_best = float(xs[i0])
        spacing = (hi - lo) / grid
        H_eff = int(round((b - a) / spacing))
        trace.append((H_eff, i0, x_best))
        if prev_x is not None and abs(x_best - prev_x) < tol_x:
            break
        prev_x = x_best
        lo = max(a, x_best - 2 * spacing)
        hi = min(b, x_best + 2 * spacing)
    max_value = float(eval_real(f, {var: x_best}))
    return PartitionResult(x_best, max_value, trace[-1][0], trace)


def riemann_integral(f: Expr, a: float, b: float,
                     schedule: "Sequence[int] | None" = None,
                     var: "str | None" = None) -> IntegralResult:
    """Left-endpoint Riemann sums over a schedule of partition sizes,
    extrapolated in 1/H; the extrapolated limit is the reported value.

    Each grid is evaluated as one array, and an inf or nan on it raises
    NotFinite.  When every H is the largest H divided by a power of two (the
    default schedule is), every coarser grid is a strided subset of the
    finest one, bit for bit, so only the finest grid is evaluated.
    """
    if a > b:
        raise ValueError("need a <= b")
    schedule = list(schedule) if schedule is not None else list(DEFAULT_H_SCHEDULE)
    if not schedule or any(H < 1 for H in schedule):
        raise ValueError("schedule must be a nonempty list of positive partition sizes")
    var = _the_var(f, var)
    if a == b:
        return IntegralResult(0.0, 0.0, schedule, [0.0] * len(schedule), False)
    constant = var not in free_variables(f)
    fine = max(schedule)
    nested = all(fine % H == 0 and int(fine // H).bit_count() == 1 for H in schedule)
    finest = _on_grid(f, var, a + (b - a) / fine * np.arange(fine)) if nested else None
    sums = []
    for H in schedule:
        w = (b - a) / H
        vals = finest[::int(fine // H)] if nested else _on_grid(f, var, a + w * np.arange(H))
        sums.append(float(vals[0]) * (b - a) if constant else float(w * np.sum(vals)))
    extrapolants = []
    for s_prev, s_next, h_prev, h_next in zip(sums, sums[1:], schedule, schedule[1:]):
        r = h_next / h_prev
        extrapolants.append((r * s_next - s_prev) / (r - 1))
    if not extrapolants:
        return IntegralResult(sums[-1], math.inf, schedule, sums, False)
    if len(extrapolants) == 1:
        error = abs(extrapolants[-1] - sums[-1])
    else:
        error = abs(extrapolants[-1] - extrapolants[-2])
    return IntegralResult(extrapolants[-1], error, schedule, sums, True)


def taylor_remainder_check(f: Expr, a: float, b: float, var: "str | None" = None,
                           schedule: "Sequence[int] | None" = None,
                           config: FieldConfig = DEFAULT_CONFIG) -> float:
    """Residual of f(b) = f(a) + (b-a) f'(a) + integral_a^b (b-x) f''(x) dx.

    f'(a) is read off the jet, f'' is formed symbolically, and the integral
    term goes through riemann_integral, so the check crosses three
    independently implemented paths.
    """
    var = _the_var(f, var)
    lhs = eval_real(f, {var: b})
    fpp = symbolic_derivative(symbolic_derivative(f, var), var)
    integrand = Mul(Sub(Const(b), Var(var)), fpp)
    tail = riemann_integral(integrand, a, b, schedule=schedule, var=var)
    rhs = eval_real(f, {var: a}) + (b - a) * derivative(f, a, 1, var=var, config=config) + tail.value
    return abs(lhs - rhs)


def taylor_remainder_check_infinitesimal(f: Expr, a: float, var: "str | None" = None,
                                         config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """Coefficientwise residual of the integral-remainder identity on [a, a+eps].

    The integral term is computed in closed series form: substituting
    x = a + t turns it into integral_0^eps (eps - t) f''(a + t) dt, and the
    jet of f'' at a integrates term by term, sending the coefficient at t^m
    to exponent m + 2 with weight 1/((m+1)(m+2)).
    """
    var = _the_var(f, var)
    epsilon = field.eps(config)
    a_lc = LCNumber.from_real(a, config)
    lhs = eval_hyper(f, {var: field.add(a_lc, epsilon)}, config)

    fpp = symbolic_derivative(symbolic_derivative(f, var), var)
    jet2 = _jet_at(fpp, a, var, config)
    integral_terms = [(m + 2, c / float((m + 1) * (m + 2))) for m, c in jet2.terms]

    f_a = eval_real(f, {var: a})
    fp_a = derivative(f, a, 1, var=var, config=config)
    rhs = LCNumber([(0, f_a), (1, fp_a)] + integral_terms, config)

    # Both sides are only trustworthy on the window of the expansion point
    # a + eps (and of whatever narrower window each side ended up with).
    point_lead = 0 if a != 0 else 1
    windows = [point_lead + config.depth]
    for side in (lhs, rhs):
        if not side.is_zero:
            windows.append(side.leading_exponent + config.depth)
    return field.sub(lhs, rhs).truncated(min(windows))
