"""Infinitesimal-increment calculus built on the field and term modules.

The operations here run the classical constructions directly:

* derivatives read Taylor-jet coefficients off an evaluation at ``x0 + eps``;
* the mean-value position ``theta`` in ``f(x+h) - f(x) = h * f'(x + theta*h)``
  is solved both for real increments (a scan for a sign change, narrowed by
  Anderson-Bjorck regula falsi) and for infinitesimal increments (Newton's
  method in the field, seeded at the leading-order solution and run for the
  number of steps that Hensel's lemma fixes in advance);
* the extremum finder simulates an ever-finer equispaced partition of
  ``[a, b]``, taking the argmax index at each stage and zooming in, so the
  refinement trace is the finite analogue of taking the shadow of a partition
  point on a grid with infinitely many cells;
* definite integration computes left-endpoint Riemann sums over a growing
  schedule of nested grids, extrapolates them to ``1/H = 0`` by one
  Richardson (Neville-Aitken) table, and refines the grid only until that
  table converges; this is the finite analogue of taking the shadow of an
  infinite Riemann sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import field
from .errors import DomainError, LevicalcError, NoBracket, NotFinite, OrderTooHigh
from .expr import (_REALS, Const, Expr, Mul, Sub, Var, _analysis, _evaluate, _sharing_plan, eval_hyper,
                   eval_real, render_expr, symbolic_derivative)
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
    """A Riemann integral: ``sums`` are the left sums on the grids of
    ``H_schedule`` that were used, ``value`` the last diagonal entry of
    their extrapolation table and ``error`` its distance from the one
    before (inf when there is a single sum, written as null in JSON)."""

    value: float
    error: float
    H_schedule: list
    sums: list
    extrapolated: bool

    def to_json(self) -> dict:
        error = self.error if math.isfinite(self.error) else None
        return {"value": self.value, "error": error, "H": self.H_schedule, "sums": self.sums}


def _the_var(f: Expr, var: "str | None") -> tuple:
    """(var, or else f's one variable, or "x"; then `_analysis(f)`'s names and plan)."""
    names, plan = _analysis(f)
    if var is None and len(names) > 1:
        raise ValueError(f"expression has several variables {sorted(names)}; pass var=")
    return next(iter(names), "x") if var is None else var, names, plan


def _require_finite(names: str, *values: float) -> None:
    """ValueError, before any grid is built, unless every value is finite."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{names} must be finite, got {', '.join(map(repr, values))}")


def _jet_at(f: Expr, x0: float, var: str, config: FieldConfig, plan: "dict | None" = None) -> LCNumber:
    point = LCNumber([(0, x0), (1, 1.0)], config)
    return eval_hyper(f, {var: point}, config, plan)


def derivative(f: Expr, x0: float, order: int = 1, var: "str | None" = None,
               config: FieldConfig = DEFAULT_CONFIG) -> float:
    """k-th derivative at a finite x0: k! times the eps^k jet coefficient.
    DomainError (`_leading_order`'s) when the jet has a term at a negative
    order, or at a fractional order below k: 1/x or sqrt(x) at 0 has none."""
    _require_finite("x0", x0)
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    if order > config.depth:
        raise OrderTooHigh(f"order {order} exceeds truncation depth {config.depth}")
    var, _, plan = _the_var(f, var)
    jet = _jet_at(f, x0, var, config, plan)
    if any(q < 0 or q < order and not isinstance(q, int) for q, _ in jet.terms):
        raise DomainError(f"{render_expr(f)} is not smooth at {x0}: its jet there is {jet}")
    return jet.coefficient(order) * math.factorial(order)


def _leading_order(f: Expr, x: float, var: str, config: FieldConfig, plan: "dict | None" = None) -> int:
    """Order k of the first nonvanishing derivative beyond f', or 0 if none.

    A jet with a term at a fractional order (sqrt(x) at 0 has eps^(1/2)) is
    not a Taylor jet: f is not smooth at x, and no integer k describes it.
    """
    try:
        jet = _jet_at(f, x, var, config, plan)
    except LevicalcError:
        return 0
    if any(not isinstance(q, int) for q, _ in jet.terms):
        raise DomainError(f"{render_expr(f)} is not smooth at {x}: its jet there is {jet}")
    scale = max(1.0, abs(jet.coefficient(0)), abs(jet.coefficient(1)))
    for m in range(2, config.depth + 1):
        if abs(jet.coefficient(m)) > 1e-12 * scale:
            return m - 1
    return 0


# Grid points per walk: the shared-node memo then holds arrays of at most
# 64 KB, and peak memory does not grow with the grid.
_CHUNK = 8192


def _on_grid(f: Expr, var: str, xs: np.ndarray, plan: "dict | None" = None) -> np.ndarray:
    """f at every point of the 1-D grid xs, as one array of xs's shape.

    The grid is walked in chunks of _CHUNK points, each chunk by one
    `_evaluate` that computes every shared node of f once (``plan`` is
    `_sharing_plan(f)`, built here when not given; a hash-consed derivative
    shares every repeated subterm; an empty plan means no memo).  Every
    operation is elementwise, and integer powers are taken by squaring in
    both (`expr._real_pow`), so the values are those of one whole-array
    eval_real, bit for bit.  A chunk that raises makes the whole grid be
    evaluated at once, so the error reported is the one the whole-array
    walk meets first.  A constant f is broadcast.  An inf or nan anywhere
    raises NotFinite, so an overflow never reaches a scan, an argmax or a
    sum as a plausible number.
    """
    if plan is None:
        plan = _sharing_plan(f)
    vals = np.empty(xs.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(0, len(xs), _CHUNK):
                vals[i:i + _CHUNK] = _evaluate(f, {var: xs[i:i + _CHUNK]}, _REALS, dict(plan) if plan else None)
        except LevicalcError:
            eval_real(f, {var: xs})  # raises the error the unchunked walk meets first
            raise
    if not np.isfinite(vals).all():
        raise NotFinite(f"{render_expr(f)} is not finite on the grid over [{xs[0]}, {xs[-1]}]")
    return vals


_SCAN_POINTS = 1024


def _theta_in_bracket(g, a: float, b: float, ga: float, gb: float, tol: float) -> "tuple[float, float]":
    """A root of g between a and b, given ga = g(a) and gb = g(b) of opposite
    signs (a == b is a one-point bracket), by regula falsi with the
    Anderson-Bjorck modification (BIT 13, 1973).

    Each step evaluates g at the secant point c of the bracket (at its
    midpoint if rounding puts c on or outside an end); c becomes b, and a
    stays the other end of the sign change.  When a stays, its value is
    scaled by 1 - g(c)/g(b) (by 1/2 when that is not positive), which moves
    the next secant point towards a, so both ends close in and convergence
    is superlinear.  The loop stops on g == 0, on a bracket at most 1e-15
    wide, on the first evaluation that does not lower |g| once |g| <= tol,
    or after 100 evaluations.  Returns the evaluated point with the
    smallest |g|, and that value.
    """
    best, gbest = (a, ga) if abs(ga) <= abs(gb) else (b, gb)
    for _ in range(100):
        if gbest == 0 or abs(b - a) <= 1e-15:
            break
        c = b - gb * (b - a) / (gb - ga)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
        gc = g(c)
        if abs(gc) < abs(gbest):
            best, gbest = c, gc
        elif abs(gbest) <= tol:
            break
        if gc * gb < 0:
            a, ga = b, gb
        else:
            m = 1.0 - gc / gb
            ga *= m if m > 0 else 0.5
        b, gb = c, gc
    return best, gbest


def mvt_theta_real(f: Expr, x: float, h: float, var: "str | None" = None,
                   config: FieldConfig = DEFAULT_CONFIG) -> ThetaResult:
    """Solve f(x+h) - f(x) = h * f'(x + theta*h) for theta in [0, 1].

    The root of g(theta) = f(x+h) - f(x) - h*f'(x+theta*h) is taken from the
    first sign-change bracket of a left-to-right scan and narrowed by
    Anderson-Bjorck regula falsi (`_theta_in_bracket`); f'' is not formed.
    The scan evaluates f' on all of its 1025 points as one array, and raises
    NotFinite when f(x), f(x+h), f' or g is inf or nan anywhere on them; the
    root finder evaluates g one point at a time, starting from g at the
    bracket's ends.  When every scanned |g| is at the rounding level
    (always for linear f) theta is the symmetric convention 1/2, and
    ``degenerate`` is set only when no derivative past f' is nonzero at x
    (``leading_order`` 0); otherwise the computed leading order is reported.
    """
    _require_finite("x, h and x + h", x, h, x + h)
    if h == 0:
        raise ValueError("h must be nonzero")
    var, _, plan = _the_var(f, var)
    fp = symbolic_derivative(f, var)
    f_x = eval_real(f, {var: x})
    delta_f = eval_real(f, {var: x + h}) - f_x
    scale = max(1.0, abs(delta_f))
    tol = 1e-12 * scale

    def g(theta: float) -> float:
        return delta_f - h * eval_real(fp, {var: x + theta * h})

    grid = np.linspace(0.0, 1.0, _SCAN_POINTS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = delta_f - h * _on_grid(fp, var, x + grid * h)
    if not np.isfinite(values).all():  # delta_f or h * f' overflowed
        raise NotFinite(f"the mean-value residual of {render_expr(f)} is not finite on [{x}, {x + h}]")
    k = _leading_order(f, x, var, config, plan)

    if np.max(np.abs(values)) <= max(tol, 1e-13 * max(scale, abs(f_x))):
        return ThetaResult(0.5, g(0.5), k, degenerate=k == 0)

    # The bracket starts at the first point where g is within tol of zero (a
    # one-point bracket) or changes sign before the next point.
    small = np.abs(values) <= tol
    stops = np.append(small[:-1] | (values[:-1] * values[1:] <= 0), small[-1])
    i = int(np.argmax(stops))
    if not stops[i]:
        raise NoBracket("no sign change of the mean-value residual on [0, 1]")
    lo, hi = (grid[i], grid[i]) if small[i] else (grid[i], grid[i + 1])
    glo = g(lo)
    theta, residual = _theta_in_bracket(g, lo, hi, glo, g(hi) if hi > lo else glo, tol)
    return ThetaResult(float(theta), residual, k)


def mvt_theta_infinitesimal(f: Expr, x: float, h: "LCNumber | None" = None,
                            var: "str | None" = None,
                            config: FieldConfig = DEFAULT_CONFIG) -> ThetaResult:
    """Solve the mean-value equation for an infinitesimal increment.

    theta comes out as a truncated series.  Matching the first nonvanishing
    order gives the real leading term theta0 = (k+1)**(-1/k) where the
    (k+1)-st derivative is the first nonvanishing one past f'.  theta0 is a
    simple root of the reduced form of phi(theta) = f(x+h) - f(x) -
    h*f'(x + theta*h), so Newton's method in the field lifts it as in
    Hensel's lemma.  With q the leading exponent of h, theta0 is exact below
    eps^q, and a step from a theta exact below eps^e gives one exact below
    eps^(2e+q) when k == 1 (Newton's quadratic term phi''/(2 phi') has order
    q) and below eps^(2e) when k > 1 (phi' and phi'' both have order
    (k+1)q).  Newton steps while e <= depth: floor(log2(depth/q + 1)) steps
    when k == 1 and max(0, floor(log2(depth/q)) + 1) when k > 1, i.e. 3 and
    4 for h = eps at depth 10.  Each step costs two evaluations, and the
    only early exit is a residual that is exactly zero.  theta's
    conditioning is not checked, and residual_norm is absolute.  So is
    zero_tol: when h's leading coefficient is small, orders of theta whose
    coefficients fall below it vanish (for exp at 0, h = 1e-6*eps gives
    exactly 1/2 with residual_norm 0, though the eps term 1e-6/24 is far
    above zero_tol).  Scale-aware equality and error radii, planned in
    ROADMAP.md ("Honest equality"), are the fix.

    When every derivative past f' vanishes up to the depth the equation is
    degenerate (any theta works); by convention theta = 1/2 is returned with
    the ``degenerate`` flag set.  A jet of f at x with a fractional order (f
    is not smooth at x, as sqrt at 0) raises DomainError instead.
    """
    _require_finite("x", x)
    if h is None:
        h = field.eps(config)
    if not isinstance(h, LCNumber):
        raise TypeError("h must be an LCNumber for the infinitesimal solver")
    config = h.config
    if h.is_zero or h.leading_exponent <= 0:
        raise ValueError("h must be a nonzero infinitesimal")
    var, _, plan = _the_var(f, var)

    k = _leading_order(f, x, var, config, plan)
    table = {}  # f' and f'' share one hash-consing table
    fp = symbolic_derivative(f, var, table)
    fp_plan = _sharing_plan(fp)
    x_lc = LCNumber.from_real(x, config)
    f_x = LCNumber.from_real(eval_real(f, {var: x}), config)
    delta_f = field.sub(eval_hyper(f, {var: field.add(x_lc, h)}, config, plan), f_x)

    def residual(theta: LCNumber) -> LCNumber:
        shifted = field.add(x_lc, field.mul(theta, h))
        return field.sub(delta_f, field.mul(h, eval_hyper(fp, {var: shifted}, config, fp_plan)))

    if k == 0:
        theta = LCNumber.from_real(0.5, config)
        return ThetaResult(theta, residual(theta), 0, degenerate=True)

    theta = LCNumber.from_real((k + 1) ** (-1.0 / k), config)
    fpp = symbolic_derivative(fp, var, table)
    fpp_plan = _sharing_plan(fpp)
    q = h.leading_exponent
    exact = q  # theta is correct below eps^exact
    r = residual(theta)
    while exact <= config.depth and not r.is_zero:
        shifted = field.add(x_lc, field.mul(theta, h))
        dphi = field.neg(field.mul(field.mul(h, h), eval_hyper(fpp, {var: shifted}, config, fpp_plan)))
        theta = field.sub(theta, field.div(r, dphi))
        r = residual(theta)
        exact = 2 * exact + q if k == 1 else 2 * exact
    return ThetaResult(theta, r, k)


def evt_max(f: Expr, a: float, b: float, grid: int = 1000, max_rounds: int = 40,
            tol_x: float = 1e-9, var: "str | None" = None) -> PartitionResult:
    """Locate a maximum of f on [a, b] by refining equispaced partitions.

    Each round partitions the current window into ``grid`` cells, takes the
    smallest argmax index i0 (deterministic tie-break), then zooms to two
    cells on either side of x_i0.  Rounds stop when consecutive argmax
    abscissae differ by less than tol_x, or when the next window's cells
    would have zero width in floats (the window has collapsed onto one
    float, as it does when tol_x is at or below the float spacing near the
    argmax).  The trace records, per round, the partition size H relative
    to the original interval together with i0 and x_i0; its limit plays the
    role of the shadow of the argmax point.  grid and max_rounds must be at
    least 1, tol_x at least 0, a, b and b - a finite, and a < b with cells
    of nonzero width.
    """
    _require_finite("a, b and b - a", a, b, b - a)
    if grid < 1 or max_rounds < 1:
        raise ValueError("grid and max_rounds must be >= 1")
    if not tol_x >= 0:
        raise ValueError("tol_x must be >= 0")
    if not (b - a) / grid > 0:
        raise ValueError("need a < b, with cells of nonzero width")
    var, _, plan = _the_var(f, var)
    lo, hi = a, b
    trace = []
    prev_x = None
    for _ in range(max_rounds):
        xs = np.linspace(lo, hi, grid + 1)
        vals = _on_grid(f, var, xs, plan)
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
        if not (hi - lo) / grid:  # the window has collapsed onto one float
            break
    max_value = float(eval_real(f, {var: x_best}))
    return PartitionResult(x_best, max_value, trace[-1][0], trace)


def _nests(H: int, G: int) -> bool:
    """Whether the H-cell left grid is a strided subset of the G-cell one, bit for bit."""
    return G % H == 0 and (G // H).bit_count() == 1


def riemann_integral(f: Expr, a: float, b: float,
                     schedule: "Sequence[int] | None" = None,
                     var: "str | None" = None) -> IntegralResult:
    """Left-endpoint Riemann sums over a schedule of partition sizes H,
    extrapolated to 1/H = 0 by one Neville-Aitken table.

    The table is polynomial extrapolation in h = 1/H: column j removes the
    h^j term of the sums' error.  Grids are taken in schedule order, and
    refinement stops once at least four sums exist and two successive
    diagonal entries agree within 1e-12 times the current grid's sum of
    w*|f|; otherwise it runs to the end of the schedule.  ``value`` is the
    last diagonal entry, ``error`` its distance from the one before, and
    ``sums`` and ``H_schedule`` hold only the grids used.  a, b and b - a
    must be finite, and the schedule strictly increasing integers >= 1.

    Each grid is evaluated as one array, and an inf or nan on it raises
    NotFinite.  The first walk evaluates the largest of the first four
    grids that the ones before it nest into (for the default schedule, the
    8000-cell grid), and takes those as strided subsets.  A later grid that
    nests over the current one evaluates only its new points.  Every sum is
    therefore that of its grid evaluated on its own, bit for bit.  A walk
    that raises makes the grids be evaluated whole, so the error reported
    is the one a whole-grid walk meets first: on the finest grid when every
    grid nests into it (as in the default schedule), otherwise on the first
    grid, in schedule order, that fails.
    """
    _require_finite("a, b and b - a", a, b, b - a)
    if a > b:
        raise ValueError("need a <= b")
    if schedule is None:
        schedule = list(DEFAULT_H_SCHEDULE)
    else:
        try:
            schedule = [operator.index(H) for H in schedule]
        except TypeError:
            raise ValueError("schedule entries must be integers") from None
        if not schedule or schedule[0] < 1 or any(H >= G for H, G in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be a nonempty, strictly increasing list of partition sizes >= 1")
    var, names, plan = _the_var(f, var)
    if a == b:
        return IntegralResult(0.0, 0.0, schedule, [0.0] * len(schedule), False)
    constant = var not in names

    def grid(H: int, js: "np.ndarray | None" = None) -> np.ndarray:
        # Float indices j are exact, and numpy multiplies them faster than ints.
        return a + (b - a) / H * (np.arange(H, dtype=float) if js is None else js)

    first = max(i for i in range(min(4, len(schedule)))
                if all(_nests(H, schedule[i]) for H in schedule[:i]))
    sums, diagonal, row = [], [], []
    for i, H in enumerate(schedule):
        try:
            if i == 0 or (i > first and not _nests(fine, H)):  # a whole grid
                fine = schedule[first] if i == 0 else H
                fine_vals = _on_grid(f, var, grid(fine), plan)
                abs_sum = float(np.sum(np.abs(fine_vals)))
            elif i > first:  # evaluate only the new points, interleaved with the old ones
                s = H // fine
                new_js = np.arange(0, H, s, dtype=float)[:, None] + np.arange(1, s)
                new = _on_grid(f, var, grid(H, new_js).ravel(), plan)
                cells = np.empty((fine, s))
                cells[:, 0] = fine_vals
                cells[:, 1:] = new.reshape(fine, s - 1)
                fine, fine_vals = H, cells.ravel()
                abs_sum += float(np.sum(np.abs(new, out=new)))
        except LevicalcError:
            nested = all(_nests(G, schedule[-1]) for G in schedule)
            for G in [schedule[-1]] if nested else schedule[:max(i, first) + 1]:
                _on_grid(f, var, grid(G), plan)  # raises the error the whole-grid walk meets first
            raise
        w = (b - a) / H
        vals = fine_vals[::fine // H]
        sums.append(float(vals[0]) * (b - a) if constant else float(w * np.sum(vals)))
        # Neville-Aitken in h = 1/H, extrapolated to h = 0:
        # T[i][j] = T[i][j-1] + (T[i][j-1] - T[i-1][j-1]) * h_i / (h_{i-j} - h_i).
        new_row = [sums[-1]]
        for j, below in enumerate(row, 1):
            new_row.append(new_row[-1] + (new_row[-1] - below) * schedule[i - j] / (H - schedule[i - j]))
        row = new_row
        diagonal.append(row[-1])
        # With four sums, H == fine, so w * abs_sum is this grid's sum of w*|f|.
        if len(sums) >= 4 and abs(diagonal[-1] - diagonal[-2]) <= 1e-12 * w * abs_sum:
            break
    used = schedule[:len(sums)]
    if len(sums) == 1:
        return IntegralResult(sums[0], math.inf, used, sums, False)
    return IntegralResult(diagonal[-1], abs(diagonal[-1] - diagonal[-2]), used, sums, True)


def taylor_remainder_check(f: Expr, a: float, b: float, var: "str | None" = None,
                           schedule: "Sequence[int] | None" = None,
                           config: FieldConfig = DEFAULT_CONFIG) -> float:
    """Residual of f(b) = f(a) + (b-a) f'(a) + integral_a^b (b-x) f''(x) dx.

    f'(a) is read off the jet, f'' is formed symbolically, and the integral
    term goes through riemann_integral, so the check crosses three
    independently implemented paths.
    """
    var, _, plan = _the_var(f, var)
    lhs = eval_real(f, {var: b})
    table = {}  # f' and f'' share one hash-consing table
    fpp = symbolic_derivative(symbolic_derivative(f, var, table), var, table)
    integrand = Mul(Sub(Const(b), Var(var)), fpp)
    tail = riemann_integral(integrand, a, b, schedule=schedule, var=var)
    fp_a = _jet_at(f, a, var, config, plan).coefficient(1)
    rhs = eval_real(f, {var: a}) + (b - a) * fp_a + tail.value
    return abs(lhs - rhs)


def taylor_remainder_check_infinitesimal(f: Expr, a: float, var: "str | None" = None,
                                         config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """Coefficientwise residual of the integral-remainder identity on [a, a+eps].

    The integral term is computed in closed series form: substituting
    x = a + t turns it into integral_0^eps (eps - t) f''(a + t) dt, and the
    jet of f'' at a integrates term by term, sending the coefficient at t^m
    to exponent m + 2 with weight 1/((m+1)(m+2)).
    """
    _require_finite("a", a)
    var, _, plan = _the_var(f, var)
    lhs = _jet_at(f, a, var, config, plan)

    table = {}
    fpp = symbolic_derivative(symbolic_derivative(f, var, table), var, table)
    jet2 = _jet_at(fpp, a, var, config, _sharing_plan(fpp))
    integral_terms = [(m + 2, c / float((m + 1) * (m + 2))) for m, c in jet2.terms]

    f_a = eval_real(f, {var: a})
    fp_a = lhs.coefficient(1)  # lhs is the jet of f at a, so this is f'(a)
    rhs = LCNumber([(0, f_a), (1, fp_a)] + integral_terms, config)

    # Both sides are only trustworthy on the window of the expansion point
    # a + eps (and of whatever narrower window each side ended up with).
    point_lead = 0 if a != 0 else 1
    windows = [point_lead + config.depth]
    for side in (lhs, rhs):
        if not side.is_zero:
            windows.append(side.leading_exponent + config.depth)
    return field.sub(lhs, rhs).truncated(min(windows))
