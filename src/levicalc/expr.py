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
from .lexer import TokenStream, tokenize

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


def free_variables(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, Call):
        return free_variables(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# -- parsing -----------------------------------------------------------------


def parse_expr(src: str) -> Expr:
    """Parse an expression; raises ParseError with a 1-based position."""
    stream = TokenStream(tokenize(src))
    e = parse_expr_tokens(stream)
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.line, tok.col)
    return e


def parse_expr_tokens(stream: TokenStream) -> Expr:
    """Expression parser over an existing token stream (used by the formula DSL)."""
    e = _parse_term(stream)
    while True:
        if stream.match("+"):
            e = Add(e, _parse_term(stream))
        elif stream.match("-"):
            e = Sub(e, _parse_term(stream))
        else:
            return e


def _parse_term(stream: TokenStream) -> Expr:
    e = _parse_unary(stream)
    while True:
        if stream.match("*"):
            e = Mul(e, _parse_unary(stream))
        elif stream.match("/"):
            e = Div(e, _parse_unary(stream))
        else:
            return e


def _parse_unary(stream: TokenStream) -> Expr:
    if stream.match("-"):
        operand = _parse_unary(stream)
        if isinstance(operand, Const):
            return Const(-operand.value)
        return Neg(operand)
    return _parse_power(stream)


def _parse_power(stream: TokenStream) -> Expr:
    base = _parse_atom(stream)
    if stream.match("^"):
        sign = -1 if stream.match("-") else 1
        tok = stream.expect("number", "an integer exponent")
        if not tok.text.isdigit():
            raise ParseError(f"power exponents must be integers, got '{tok.text}'", tok.line, tok.col)
        return Pow(base, sign * int(tok.text))
    return base


def _parse_atom(stream: TokenStream) -> Expr:
    tok = stream.peek()
    if tok.kind == "number":
        stream.next()
        return Const(float(tok.text))
    if tok.kind == "ident":
        stream.next()
        if stream.peek().kind == "(":
            if tok.text not in FUNCTIONS:
                raise ParseError(f"unknown function '{tok.text}'", tok.line, tok.col)
            stream.next()
            arg = parse_expr_tokens(stream)
            stream.expect(")")
            return Call(tok.text, arg)
        if tok.text in FUNCTIONS:
            raise ParseError(f"expected '(' after function name '{tok.text}'", tok.line, tok.col)
        return Var(tok.text)
    if tok.kind == "(":
        stream.next()
        e = parse_expr_tokens(stream)
        stream.expect(")")
        return e
    raise stream.error(f"expected an expression, got {TokenStream._describe(tok)}")


# -- rendering ---------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 2, Pow: 3}


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
    prec = _PREC[type(e)]
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        out = f"{render_expr(e.left, prec)} {op} {render_expr(e.right, prec + 1)}"
    elif isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        out = f"{render_expr(e.left, prec)} {op} {render_expr(e.right, prec + 1)}"
    elif isinstance(e, Neg):
        out = f"-{render_expr(e.operand, prec + 1)}"
    else:
        k = e.exponent
        out = f"{render_expr(e.base, prec + 1)}^{k}"
    if prec < min_prec:
        return f"({out})"
    return out


# -- evaluation: one walk over two number systems ------------------------------

# A term denotes one function, read over the reals or over the field.  The walk
# is shared; an algebra supplies what differs.  `ops` holds add, sub, mul and
# neg (the `operator` module, or the `field` module, looked up at each node);
# const lifts a constant, and div, pow and call carry the domain checks.
_Algebra = namedtuple("_Algebra", "ops const div pow call")


def _evaluate(e: Expr, binding: Mapping, alg: _Algebra):
    t = type(e)
    if t is Var:
        try:
            return binding[e.name]
        except KeyError:
            raise BindingError(f"unbound variable '{e.name}'") from None
    if t is Const:
        return alg.const(e.value)
    if t is Mul:
        return alg.ops.mul(_evaluate(e.left, binding, alg), _evaluate(e.right, binding, alg))
    if t is Add:
        return alg.ops.add(_evaluate(e.left, binding, alg), _evaluate(e.right, binding, alg))
    if t is Sub:
        return alg.ops.sub(_evaluate(e.left, binding, alg), _evaluate(e.right, binding, alg))
    if t is Div:
        return alg.div(_evaluate(e.left, binding, alg), _evaluate(e.right, binding, alg))
    if t is Pow:
        return alg.pow(_evaluate(e.base, binding, alg), e.exponent)
    if t is Neg:
        return alg.ops.neg(_evaluate(e.operand, binding, alg))
    if t is Call:
        return alg.call(e.func, _evaluate(e.arg, binding, alg))
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
    if k < 0 and _any(base == 0):
        raise DomainError("zero raised to a negative power")
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


def eval_hyper(e: Expr, binding: Mapping[str, LCNumber], config: FieldConfig | None = None) -> LCNumber:
    """Evaluate with field-valued bindings, i.e. apply the extended function.

    The walk is eval_real's, with field arithmetic in place of float
    arithmetic and `_call_hyper` extending each primitive.  Real numbers in
    the binding are coerced to exponent-0 elements.  With purely real
    bindings the result agrees with eval_real to rounding.
    """
    if config is None:
        config = next((v.config for v in binding.values() if isinstance(v, LCNumber)), DEFAULT_CONFIG)
    coerced = {name: value if isinstance(value, LCNumber) else LCNumber.from_real(value, config)
               for name, value in binding.items()}
    return _eval_hyper(e, coerced, config)


def _eval_hyper(e: Expr, binding: Mapping[str, LCNumber], config: FieldConfig) -> LCNumber:
    return _evaluate(e, binding, _field_algebra(config))


@lru_cache(maxsize=64)
def _field_algebra(config: FieldConfig) -> _Algebra:
    # field.* and _call_hyper are looked up at each call, not stored here, so
    # that a wrapper installed on them later still sees every call.
    return _Algebra(field, lru_cache(maxsize=4096)(lambda value: LCNumber.from_real(value, config)),
                    lambda num, den: field.mul(num, field.inv(den)),
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
    if func == "sqrt":
        if u.is_zero:
            return u
        try:
            return field.nth_root(u, 2)
        except NegativeLeading:
            raise DomainError("sqrt of a value with negative leading coefficient") from None
    x0 = field.standard_part(u)
    if func == "log" and x0 <= 0:
        raise DomainError("log at a standard part <= 0")
    if func == "exp":
        return field.taylor_series(u, math.exp(x0), 1.0, 0.0)
    if func == "log":
        return field.taylor_series(u, math.log(x0), 1.0, -1.0, scale=1.0 / x0, forced=True)
    return field.taylor_series(u, complex(math.cos(x0), math.sin(x0)), 1j, 0.0, imag=func == "sin")


# -- symbolic differentiation --------------------------------------------------


def _const(v) -> Const:
    return Const(float(v))


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and a.value == 0:
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0:
            return _const(0)
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return _const(0)
        if b.value == 1:
            return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0 and not (isinstance(b, Const) and b.value == 0):
        return _const(0)
    if isinstance(b, Const) and b.value == 1:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return _const(a.value / b.value)
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _pow(a: Expr, k: int) -> Expr:
    if k == 0:
        return _const(1)
    if k == 1:
        return a
    if isinstance(a, Const) and not (a.value == 0 and k < 0):
        return _const(a.value ** k)
    return Pow(a, k)


def symbolic_derivative(e: Expr, var: str) -> Expr:
    """Exact derivative by structural rules; only constants get folded."""
    if isinstance(e, Const):
        return _const(0)
    if isinstance(e, Var):
        return _const(1 if e.name == var else 0)
    if isinstance(e, Add):
        return _add(symbolic_derivative(e.left, var), symbolic_derivative(e.right, var))
    if isinstance(e, Sub):
        return _sub(symbolic_derivative(e.left, var), symbolic_derivative(e.right, var))
    if isinstance(e, Mul):
        da = symbolic_derivative(e.left, var)
        db = symbolic_derivative(e.right, var)
        return _add(_mul(da, e.right), _mul(e.left, db))
    if isinstance(e, Div):
        da = symbolic_derivative(e.left, var)
        db = symbolic_derivative(e.right, var)
        return _div(_sub(_mul(da, e.right), _mul(e.left, db)), _pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _const(0)
        db = symbolic_derivative(e.base, var)
        return _mul(_mul(_const(e.exponent), _pow(e.base, e.exponent - 1)), db)
    if isinstance(e, Neg):
        return _neg(symbolic_derivative(e.operand, var))
    if isinstance(e, Call):
        du = symbolic_derivative(e.arg, var)
        u = e.arg
        if e.func == "sin":
            outer = Call("cos", u)
        elif e.func == "cos":
            outer = _neg(Call("sin", u))
        elif e.func == "exp":
            outer = Call("exp", u)
        elif e.func == "log":
            return _div(du, u)
        else:  # sqrt
            return _div(du, _mul(_const(2), Call("sqrt", u)))
        return _mul(outer, du)
    raise TypeError(f"not an expression node: {e!r}")
