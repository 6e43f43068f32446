"""Term ASTs for smooth real functions and their extension to the field.

A parsed expression denotes an ordinary real function; evaluating it with
field-valued bindings produces the value of the canonically extended
function.  For the rational operations that is just field arithmetic; the
transcendental primitives (sin, cos, exp, log, sqrt) are extended at a
finite argument ``u`` by Taylor expansion about ``st(u)``, truncated at the
configured depth, so identities proved over the reals keep holding
coefficientwise over the extension.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from . import field
from .errors import BindingError, DomainError, NegativeLeading, NotFinite, ParseError
from .field import DEFAULT_CONFIG, FieldConfig, LCNumber
from .lexer import NAME_START, describe, position, scan

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

RealValue = Union[float, np.ndarray]


class Expr:
    """Base class for expression nodes.  Trees are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int  # possibly negative; non-integer powers go via exp/log or sqrt


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str  # one of FUNCTIONS
    arg: Expr


# Each node type's children, read by every walk that is not an evaluation.
_CHILDREN = {**dict.fromkeys((Add, Sub, Mul, Div), operator.attrgetter("left", "right")), Pow: lambda e: (e.base,),
             Neg: lambda e: (e.operand,), Call: lambda e: (e.arg,), Var: lambda e: (), Const: lambda e: ()}
_PENDING = object()  # a shared node's value before its first use


def _children(e: Expr) -> tuple:
    try:
        return _CHILDREN[type(e)](e)
    except KeyError:
        raise TypeError(f"not an expression node: {e!r}") from None


def _analysis(e: Expr) -> tuple:
    """(the names of e's variables, e's sharing plan), from one walk that
    visits each node object of e once: a DAG costs its distinct nodes.

    The plan is {id(node): (uses, _PENDING)} for every node of e, leaves
    aside, that is a child of several parents or twice a child of one.  A
    copy is the memo of one walk of e (`_evaluate`), which computes a shared
    node at its first use and drops it after its last.  The ids are valid
    only while e is alive.  A parsed tree's plan is empty."""
    names, leaves, uses, stack = set(), set(), {}, [e]
    while stack:
        node = stack.pop()
        children = _children(node)
        if not children:
            leaves.add(id(node))
            if type(node) is Var:
                names.add(node.name)
        for child in children:
            key = id(child)
            if key in uses:
                uses[key] += 1
            else:
                uses[key] = 1
                stack.append(child)
    return names, {key: (n, _PENDING) for key, n in uses.items() if n > 1 and key not in leaves}


def free_variables(e: Expr) -> set:
    """The names of e's variables: the first half of `_analysis(e)`."""
    return _analysis(e)[0]


def _sharing_plan(e: Expr) -> dict:  # the second half of `_analysis(e)`
    return _analysis(e)[1]


# -- parsing -----------------------------------------------------------------

# Precedence and symbol of each binary operator, read by the parser (as
# _INFIX) and by render_expr; all of them group to the left.  Unary minus
# binds at 2 and "^" at 3.
_BINARY = {Add: (1, "+"), Sub: (1, "-"), Mul: (2, "*"), Div: (2, "/")}
_INFIX = {op: (prec, node) for node, (prec, op) in _BINARY.items()}


def parse_expr(src: str) -> Expr:
    """Parse an expression; raises ParseError with a 1-based position."""
    texts = scan(src)
    e, i = _parse_at(src, texts, 0)
    if texts[i]:
        raise ParseError(f"unexpected trailing input '{texts[i]}'", *position(src, i))
    return e


def _parse_at(src: str, texts: list, i: int) -> tuple:
    """(the expression at token i of src, the index of the token after it).

    One precedence loop over _INFIX.  Each binary operator groups to the
    left; a unary minus takes the power after it, and "^" an atom.  Pending
    work sits on an explicit stack, not on Python's, so nesting is bounded by
    memory: a binary operator's (left operand, node, precedence), None for a
    unary minus, "(" for a group, and a function's name for its call.
    """
    stack = []
    while True:
        t = texts[i]  # an operand: unary minuses and openings, then an atom
        if t == "-" or t == "(":
            stack.append(None if t == "-" else t)
            i += 1
            continue
        if "0" <= t[:1] <= "9":
            value = float(t)
            if not math.isfinite(value):
                raise ParseError(f"'{t}' is not a finite number", *position(src, i))
            e = Const(value)
        elif t[:1] in NAME_START:
            if texts[i + 1] == "(":
                if t not in FUNCTIONS:
                    raise ParseError(f"unknown function '{t}'", *position(src, i))
                stack.append(t)
                i += 2
                continue
            if t in FUNCTIONS:
                raise ParseError(f"expected '(' after function name '{t}'", *position(src, i))
            e = Var(t)
        else:
            raise ParseError(f"expected an expression, got {describe(t)}", *position(src, i))
        i += 1
        while True:  # e is an atom: its power, the minuses before it, then an operator or a ")"
            if texts[i] == "^":
                i, sign = i + 1, 1
                if texts[i] == "-":
                    i, sign = i + 1, -1
                t = texts[i]
                if not "0" <= t[:1] <= "9":
                    raise ParseError(f"expected an integer exponent, got {describe(t)}", *position(src, i))
                if not t.isdigit():
                    raise ParseError(f"power exponents must be integers, got '{t}'", *position(src, i))
                e = Pow(e, sign * int(t))
                i += 1
            while stack and stack[-1] is None:
                stack.pop()
                e = Const(-e.value) if type(e) is Const else Neg(e)
            t = texts[i]
            prec, node = _INFIX.get(t, (0, None))  # any other token ends the operands: below every operator
            while stack and type(stack[-1]) is tuple and stack[-1][2] >= prec:
                left, outer, _ = stack.pop()
                e = outer(left, e)
            if node is not None:
                stack.append((e, node, prec))
                i += 1
                break
            if not stack:
                return e, i
            if t != ")":
                raise ParseError(f"expected ')', got {describe(t)}", *position(src, i))
            opening = stack.pop()
            if opening != "(":
                e = Call(opening, e)
            i += 1


# -- rendering ---------------------------------------------------------------


def render_expr(e: Expr, min_prec: int = 0) -> str:
    """Render with parentheses chosen so the output reparses to the same tree."""
    if isinstance(e, Const):
        if e.value < 0:
            out = "-" + field._fmt_scalar(-e.value)
            return f"({out})" if min_prec > 2 else out  # negative literal binds like a unary minus
        return field._fmt_scalar(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({render_expr(e.arg)})"
    if isinstance(e, Neg):
        prec, out = 2, f"-{render_expr(e.operand, 3)}"
    elif isinstance(e, Pow):
        prec, out = 3, f"{render_expr(e.base, 4)}^{e.exponent}"
    else:
        prec, op = _BINARY[type(e)]
        out = f"{render_expr(e.left, prec)} {op} {render_expr(e.right, prec + 1)}"
    return f"({out})" if prec < min_prec else out


# -- evaluation: one walk over two number systems ------------------------------

# A term denotes one function, read over the reals or over the field.  The walk
# is shared; an algebra supplies what differs.  `ops` holds add, sub, mul and
# neg (the `operator` module, or the `field` module, looked up at each node);
# const lifts a constant, and div, pow and call carry the domain checks.
_Algebra = namedtuple("_Algebra", "ops const div pow call")

# `memo` is a copy of `_sharing_plan(e)`, so each shared node is computed
# once per walk.  Grid walks (calculus._on_grid) and field walks (eval_hyper's
# ``plan``) pass one when the plan is not empty; scalar walks, and walks of
# parsed trees, whose plan is empty, pass none.
def _evaluate(e: Expr, binding: Mapping, alg: _Algebra, memo: "dict | None" = None):
    t = type(e)
    if t is Var:
        try:
            return binding[e.name]
        except KeyError:
            raise BindingError(f"unbound variable '{e.name}'") from None
    if t is Const:
        return alg.const(e.value)
    if memo is not None:
        slot = memo.pop(id(e), None)
        if slot is not None:  # a shared node: computed once, kept until its last use
            uses, value = slot
            if value is _PENDING:
                value = _evaluate(e, binding, alg, memo)
            if uses > 1:
                memo[id(e)] = (uses - 1, value)
            return value
    if t is Mul:
        return alg.ops.mul(_evaluate(e.left, binding, alg, memo), _evaluate(e.right, binding, alg, memo))
    if t is Add:
        return alg.ops.add(_evaluate(e.left, binding, alg, memo), _evaluate(e.right, binding, alg, memo))
    if t is Sub:
        return alg.ops.sub(_evaluate(e.left, binding, alg, memo), _evaluate(e.right, binding, alg, memo))
    if t is Div:
        return alg.div(_evaluate(e.left, binding, alg, memo), _evaluate(e.right, binding, alg, memo))
    if t is Pow:
        return alg.pow(_evaluate(e.base, binding, alg, memo), e.exponent)
    if t is Neg:
        return alg.ops.neg(_evaluate(e.operand, binding, alg, memo))
    if t is Call:
        return alg.call(e.func, _evaluate(e.arg, binding, alg, memo))
    raise TypeError(f"not an expression node: {e!r}")


_REAL_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_ARRAY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt}


def _any(condition) -> bool:
    return bool(np.any(condition)) if isinstance(condition, np.ndarray) else bool(condition)


def _real_div(num: RealValue, den: RealValue) -> RealValue:
    if _any(den == 0):
        raise DomainError("division by zero")
    return num / den


def _real_pow(base: RealValue, k: int) -> RealValue:
    """base**k.  An array with k outside -1..2 is raised by squaring, on 1/base
    when k < 0 (`field.powi`'s schedule): numpy's ``**`` is some 50x slower
    on negative bases, and the products stay within (2|k| - 1) rounding
    units of the exact power.  Inverting first keeps an overflow in numpy's
    overflow category, which grid walks silence and then report as
    NotFinite.  Scalars use C pow, whose OverflowError is NotFinite.
    """
    if k < 0 and _any(base == 0):
        raise DomainError("zero raised to a negative power")
    if not -1 <= k <= 2 and isinstance(base, np.ndarray):
        return field._by_squaring(1.0 / base if k < 0 else base, abs(k), operator.mul)
    try:
        return base ** k
    except OverflowError:
        raise NotFinite(f"{base}^{k} overflows") from None


def _real_call(func: str, u: RealValue) -> RealValue:
    if func == "log" and _any(u <= 0):
        raise DomainError("log of a nonpositive value")
    if func == "sqrt" and _any(u < 0):
        raise DomainError("sqrt of a negative value")
    fn = _ARRAY_FUNCS[func] if isinstance(u, np.ndarray) else _REAL_FUNCS[func]
    try:
        return fn(u)
    except OverflowError:
        raise NotFinite(f"{func}({u}) overflows") from None
    except ValueError:  # math.sin and math.cos of an overflowed (infinite) argument
        raise NotFinite(f"{func}({u}) is not finite") from None


_REALS = _Algebra(operator, lambda value: value, _real_div, _real_pow, _real_call)


def eval_real(e: Expr, binding: Mapping[str, RealValue]) -> RealValue:
    """Evaluate over the reals: the walk of eval_hyper with float arithmetic.

    Scalar bindings give floats; numpy arrays are evaluated elementwise (used
    for grid sweeps).  A scalar result that is inf or nan, from an overflow in
    any operation, raises NotFinite; array results are returned as numpy
    computes them.
    """
    value = _evaluate(e, binding, _REALS)
    if not isinstance(value, np.ndarray) and not math.isfinite(value):
        raise NotFinite(f"{render_expr(e)} evaluates to {value}")
    return value


def eval_hyper(e: Expr, binding: Mapping[str, LCNumber], config: FieldConfig | None = None,
               plan: "dict | None" = None) -> LCNumber:
    """Evaluate with field-valued bindings, i.e. apply the extended function.

    The walk is eval_real's, with field arithmetic in place of float
    arithmetic and `_call_hyper` extending each primitive.  Real numbers in
    the binding are coerced to exponent-0 elements.  With purely real
    bindings the result agrees with eval_real to rounding.  ``plan`` is
    `_sharing_plan(e)`, built once by a caller that walks a derivative DAG
    several times; each shared node is then computed once per walk, with
    the same value bit for bit.
    """
    if config is None:
        config = next((v.config for v in binding.values() if isinstance(v, LCNumber)), DEFAULT_CONFIG)
    coerced = {name: value if isinstance(value, LCNumber) else LCNumber.from_real(value, config)
               for name, value in binding.items()}
    return _eval_hyper(e, coerced, config, dict(plan) if plan else None)


def _eval_hyper(e: Expr, binding: Mapping[str, LCNumber], config: FieldConfig,
                memo: "dict | None" = None) -> LCNumber:
    return _evaluate(e, binding, _field_algebra(config), memo)


@lru_cache(maxsize=64)
def _field_algebra(config: FieldConfig) -> _Algebra:
    # field.* and _call_hyper are looked up at each call, not stored here, so
    # that a wrapper installed on them later still sees every call.
    return _Algebra(field, lru_cache(maxsize=4096)(lambda value: LCNumber.from_real(value, config)),
                    lambda num, den: field.div(num, den),
                    lambda base, k: field.powi(base, k),
                    lambda func, u: _call_hyper(func, u))


def _call_hyper(func: str, u: LCNumber) -> LCNumber:
    """Extend one primitive at a finite argument via its jet about st(u).

    With u = x0 + delta (delta infinitesimal), each primitive is one Taylor
    recurrence on the coefficients of delta, in a form whose coefficients
    stay O(1) so the zero_tol cleanup never eats relatively significant
    orders: exp is e**x0 * exp(delta), log is log(x0) + log(1 + delta/x0),
    sin and cos are the two parts of e**(i*x0) * exp(i*delta), and sqrt goes
    through the field's n-th root (exact on exponents).
    """
    if not u.is_zero and u.leading_exponent < 0:
        raise NotFinite(f"{func} applied to an infinite argument")
    x0 = field.standard_part(u)
    if not math.isfinite(x0):  # a float overflow upstream, e.g. x*x at x = 1e200
        raise NotFinite(f"{func} of a value whose standard part is {x0}")
    if func == "sqrt":
        if u.is_zero:
            return u
        try:
            return field.nth_root(u, 2)
        except NegativeLeading:
            raise DomainError("sqrt of a value with negative leading coefficient") from None
    if func == "log" and x0 <= 0:
        raise DomainError("log at a standard part <= 0")
    if func == "exp":
        try:
            scale = math.exp(x0)
        except OverflowError:
            raise NotFinite(f"exp({u}) overflows") from None
        return field.taylor_series(u, scale, 1.0, 0.0)
    if func == "log":
        return field.taylor_series(u, math.log(x0), 1.0, -1.0, scale=1.0 / x0, forced=True)
    return field.taylor_series(u, complex(math.cos(x0), math.sin(x0)), 1j, 0.0, imag=func == "sin")


# -- symbolic differentiation --------------------------------------------------
#
# The smart constructors fold constants, and return the hash-consing table's
# node when it already holds one of the same type and fields: subterms by
# identity (they are table nodes themselves), a float by its bits, so 0.0
# and -0.0 stay apart.


def _node(table: dict, key: tuple, t: type, *fields) -> Expr:
    node = table.get(key)
    if node is None:
        node = table[key] = t(*fields)
    return node


def _const(v, table: dict) -> Const:
    v = float(v)
    return _node(table, (Const, v.hex()), Const, v)


def _add(a: Expr, b: Expr, table: dict) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value, table)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return _node(table, (Add, id(a), id(b)), Add, a, b)


def _sub(a: Expr, b: Expr, table: dict) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value, table)
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and a.value == 0:
        return _neg(b, table)
    return _node(table, (Sub, id(a), id(b)), Sub, a, b)


def _mul(a: Expr, b: Expr, table: dict) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value, table)
    for c, other in ((a, b), (b, a)):  # a factor 0 or 1, a's first
        if isinstance(c, Const) and c.value in (0, 1):
            return _const(0, table) if c.value == 0 else other
    return _node(table, (Mul, id(a), id(b)), Mul, a, b)


def _div(a: Expr, b: Expr, table: dict) -> Expr:
    if isinstance(a, Const) and a.value == 0 and not (isinstance(b, Const) and b.value == 0):
        return _const(0, table)
    if isinstance(b, Const) and b.value == 1:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return _const(a.value / b.value, table)
    return _node(table, (Div, id(a), id(b)), Div, a, b)


def _neg(a: Expr, table: dict) -> Expr:
    if isinstance(a, Const):
        return _const(-a.value, table)
    if isinstance(a, Neg):
        return a.operand
    return _node(table, (Neg, id(a)), Neg, a)


def _pow(a: Expr, k: int, table: dict) -> Expr:
    if k == 0:
        return _const(1, table)
    if k == 1:
        return a
    if isinstance(a, Const) and not (a.value == 0 and k < 0):
        return _const(a.value ** k, table)
    return _node(table, (Pow, id(a), k), Pow, a, k)


def _call(func: str, a: Expr, table: dict) -> Call:
    return _node(table, (Call, func, id(a)), Call, func, a)


def symbolic_derivative(e: Expr, var: str, table: "dict | None" = None) -> Expr:
    """Exact derivative by structural rules; only constants get folded.

    The result is hash-consed (Filliatre & Conchon, "Type-safe modular
    hash-consing", 2006): structurally equal subterms are one object, so the
    chain rule's cos(u) is the cos(u) of e, and `_sharing_plan` finds every
    repeated subterm by id.  Each node object of e is differentiated once.
    The result is == to the tree that differentiating every occurrence
    afresh would give.

    ``table`` (a fresh dict by default) also keeps each node's derivative by
    id: f'' taken in f''s table, in one var, reuses f''s nodes instead of
    interning f' again.  Reuse it only on its results or longer-lived trees.
    """
    return _derivative(e, var, {} if table is None else table)[1]


def _derivative(e: Expr, var: str, table: dict) -> tuple:
    """(e as a node of the hash-consing table, the derivative of e), kept under the ids of both."""
    hit = table.get(id(e))
    if hit is None:  # e's nodes outlive the call and the table's the table, so no id is reused
        hit = table[id(e)] = _derive_node(e, var, table)
        table.setdefault(id(hit[0]), hit)
    return hit


def _derive_node(e: Expr, var: str, table: dict) -> tuple:
    t = type(e)
    if t is Const:
        return table.setdefault((Const, float(e.value).hex()), e), _const(0, table)
    if t is Var:
        return table.setdefault((Var, e.name), e), _const(1 if e.name == var else 0, table)
    if t is Pow:
        (b, db), k = _derivative(e.base, var, table), e.exponent
        u = _node(table, (Pow, id(b), k), Pow, b, k)
        if k == 0:
            return u, _const(0, table)
        return u, _mul(_mul(_const(k, table), _pow(b, k - 1, table), table), db, table)
    if t is Neg:
        a, da = _derivative(e.operand, var, table)
        return _node(table, (Neg, id(a)), Neg, a), _neg(da, table)
    if t is Call:
        a, da = _derivative(e.arg, var, table)
        u = _call(e.func, a, table)
        if e.func == "sin":
            outer = _call("cos", a, table)
        elif e.func == "cos":
            outer = _neg(_call("sin", a, table), table)
        elif e.func == "exp":
            outer = u
        elif e.func == "log":
            return u, _div(da, a, table)
        else:  # sqrt
            return u, _div(da, _mul(_const(2, table), u, table), table)
        return u, _mul(outer, da, table)
    if t not in (Add, Sub, Mul, Div):
        raise TypeError(f"not an expression node: {e!r}")
    (a, da), (b, db) = _derivative(e.left, var, table), _derivative(e.right, var, table)
    u = table.get((t, id(a), id(b)))
    if u is None:  # e itself is the table's node when its children already are
        u = table[t, id(a), id(b)] = e if a is e.left and b is e.right else t(a, b)
    if t is Add:
        return u, _add(da, db, table)
    if t is Sub:
        return u, _sub(da, db, table)
    if t is Mul:
        return u, _add(_mul(da, b, table), _mul(a, db, table), table)
    return u, _div(_sub(_mul(da, b, table), _mul(a, db, table), table), _pow(b, 2, table), table)
