"""Parsing, evaluation, natural extension, and symbolic derivative tests."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from levicalc import calculus, expr, field, formulas
from levicalc.errors import BindingError, DivisionByZero, DomainError, NotFinite, ParseError
from levicalc.expr import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _add,
    _const,
    _div,
    _field_algebra,
    _mul,
    _neg,
    _pow,
    _sub,
    eval_hyper,
    eval_real,
    free_variables,
    parse_expr,
    render_expr,
    symbolic_derivative,
)
from levicalc.field import FieldConfig, LCNumber, coefficient_norm, eps, one, standard_part, sub
from levicalc.formulas import SamplerConfig, sample

CFG = field.DEFAULT_CONFIG


def jet_at(src, x0):
    return eval_hyper(parse_expr(src), {"x": LCNumber([(0, x0), (1, 1.0)])})


# -- parsing -----------------------------------------------------------------


def test_parse_structure():
    assert parse_expr("x + 1") == Add(Var("x"), Const(1.0))
    assert parse_expr("2*x^3") == Mul(Const(2.0), Pow(Var("x"), 3))
    assert parse_expr("-x") == Neg(Var("x"))
    assert parse_expr("-2") == Const(-2.0)
    assert parse_expr("sin(x)/cos(x)") == Div(Call("sin", Var("x")), Call("cos", Var("x")))
    assert parse_expr("a - b - c") == Sub(Sub(Var("a"), Var("b")), Var("c"))
    assert parse_expr("x^-2") == Pow(Var("x"), -2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_expr("sin(x")
    assert e.value.col == 6
    with pytest.raises(ParseError) as e:
        parse_expr("x +\n* y")
    assert e.value.line == 2 and e.value.col == 1
    with pytest.raises(ParseError):
        parse_expr("foo(2)")
    with pytest.raises(ParseError):
        parse_expr("x ^ 1.5")
    with pytest.raises(ParseError):
        parse_expr("sin + 1")
    with pytest.raises(ParseError):
        parse_expr("x y")


@pytest.mark.parametrize("src, col", [("2\u00b2", 2), ("x^\u00b2", 3), ("\u0661+x", 1), ("x\u00b2+1", 2)])
def test_numbers_are_ascii_digits(src, col):
    # superscript two and ARABIC-INDIC DIGIT ONE pass str.isdigit
    with pytest.raises(ParseError) as e:
        parse_expr(src)
    assert e.value.col == col


def test_render_round_trip():
    sources = [
        "x + y * z",
        "(x + y) * z",
        "-(x + 1) * (2 - x)^3 / sqrt(x^2 + 1)",
        "x - (y - z)",
        "sin(cos(exp(x)))",
        "x^-3 + 2*x^2",
        "-x^2",
        "1 / (1 + x)",
    ]
    for src in sources:
        tree = parse_expr(src)
        assert parse_expr(render_expr(tree)) == tree


_OPS = {"+": Add, "-": Sub, "*": Mul, "/": Div}


# Every pair of binary operators, nested to the left, (a o2 b) o1 c, and to
# the right, a o1 (b o2 c), over operands that are a negation, a power and
# a negative constant.
@pytest.mark.parametrize("o1, o2, left_text, right_text", [
    ("+", "+", "-x + y^2 + -2", "-x + (y^2 + -2)"),
    ("+", "-", "-x - y^2 + -2", "-x + (y^2 - -2)"),
    ("+", "*", "-x * y^2 + -2", "-x + y^2 * (-2)"),
    ("+", "/", "-x / y^2 + -2", "-x + y^2 / (-2)"),
    ("-", "+", "-x + y^2 - -2", "-x - (y^2 + -2)"),
    ("-", "-", "-x - y^2 - -2", "-x - (y^2 - -2)"),
    ("-", "*", "-x * y^2 - -2", "-x - y^2 * (-2)"),
    ("-", "/", "-x / y^2 - -2", "-x - y^2 / (-2)"),
    ("*", "+", "(-x + y^2) * (-2)", "-x * (y^2 + -2)"),
    ("*", "-", "(-x - y^2) * (-2)", "-x * (y^2 - -2)"),
    ("*", "*", "-x * y^2 * (-2)", "-x * (y^2 * (-2))"),
    ("*", "/", "-x / y^2 * (-2)", "-x * (y^2 / (-2))"),
    ("/", "+", "(-x + y^2) / (-2)", "-x / (y^2 + -2)"),
    ("/", "-", "(-x - y^2) / (-2)", "-x / (y^2 - -2)"),
    ("/", "*", "-x * y^2 / (-2)", "-x / (y^2 * (-2))"),
    ("/", "/", "-x / y^2 / (-2)", "-x / (y^2 / (-2))"),
])
def test_operator_pairs_render_and_reparse(o1, o2, left_text, right_text):
    a, b, c = Neg(Var("x")), Pow(Var("y"), 2), Const(-2.0)
    outer, inner = _OPS[o1], _OPS[o2]
    for tree, text in ((outer(inner(a, b), c), left_text), (outer(a, inner(b, c)), right_text)):
        assert render_expr(tree) == text
        assert parse_expr(text) == tree


@pytest.mark.parametrize("src, message", [
    ("x +", "1:4: expected an expression, got end of input"),
    ("x * / y", "1:5: expected an expression, got '/'"),
    ("x + * y", "1:5: expected an expression, got '*'"),
    ("x */ y", "1:4: expected an expression, got '/'"),
    ("x - - ", "1:7: expected an expression, got end of input"),
    ("(x", "1:3: expected ')', got end of input"),
    ("x y", "1:3: unexpected trailing input 'y'"),
    ("", "1:1: expected an expression, got end of input"),
    (")", "1:1: expected an expression, got ')'"),
    ("2 ^ x", "1:5: expected an integer exponent, got 'x'"),
    ("x - 1e400", "1:5: '1e400' is not a finite number"),
])
def test_malformed_expression_messages(src, message):
    with pytest.raises(ParseError) as e:
        parse_expr(src)
    assert str(e.value) == message


def test_free_variables():
    assert free_variables(parse_expr("x*y + sin(z)")) == {"x", "y", "z"}
    assert free_variables(parse_expr("3 + 4")) == set()


def test_free_variables_visits_each_node_object_once(monkeypatch):
    g = Mul(Var("x"), Var("y"))
    for _ in range(12):  # a DAG of 27 objects whose unfolded tree has over 8000 nodes
        g = Add(g, Neg(g))
    visited = []
    real_children = expr._children
    monkeypatch.setattr(expr, "_children", lambda e: visited.append(e) or real_children(e))
    assert free_variables(g) == {"x", "y"}
    assert len(visited) == 27


# -- real evaluation ------------------------------------------------------------


def test_eval_real_examples():
    assert abs(eval_real(parse_expr("sin(x)^2 + cos(x)^2"), {"x": 0.7}) - 1.0) <= 1e-15
    assert eval_real(parse_expr("x * (1 - x)"), {"x": 0.5}) == 0.25
    with pytest.raises(DomainError):
        eval_real(parse_expr("log(x)"), {"x": 0.0})
    with pytest.raises(DomainError):
        eval_real(parse_expr("sqrt(x)"), {"x": -1.0})
    with pytest.raises(DomainError):
        eval_real(parse_expr("1 / x"), {"x": 0.0})
    with pytest.raises(BindingError):
        eval_real(parse_expr("x + y"), {"x": 1.0})


def test_eval_real_vectorized():
    xs = np.linspace(0.1, 1.0, 100)
    out = eval_real(parse_expr("log(x) + x^2"), {"x": xs})
    assert np.allclose(out, np.log(xs) + xs ** 2)
    with pytest.raises(DomainError):
        eval_real(parse_expr("log(x)"), {"x": np.linspace(-1, 1, 5)})


def test_eval_real_overflow_is_not_finite():
    with pytest.raises(NotFinite):
        eval_real(parse_expr("exp(x)"), {"x": 800.0})
    with pytest.raises(NotFinite):
        eval_real(parse_expr("x^40"), {"x": 1e10})


@pytest.mark.parametrize("src, x", [("x*x*x", 1e103), ("x*x - 2*x*x", 1e200), ("x + x", 1e308),
                                    ("sin(x*x*x)", 1e103)])
def test_eval_real_arithmetic_overflow_is_not_finite(src, x):
    # float +, - and * overflow to inf (or inf - inf = nan) without raising
    with pytest.raises(NotFinite):
        eval_real(parse_expr(src), {"x": x})


# -- integer powers of arrays ----------------------------------------------------


@pytest.mark.parametrize("k", [k for k in range(-8, 9) if abs(k) >= 2])
def test_array_powers_match_exact_powers(k):
    # Squaring (on 1/x when k < 0) rounds at most 2|k| - 1 times, each time
    # within one unit of 2^-53 relative (Higham, ch. 3); Fraction is exact.
    rng = np.random.default_rng(1000 + k)
    mantissas = rng.uniform(1.0, 10.0, 400)
    scales = np.repeat([1e-30, 0.1, 1.0, 1e30], 100)  # tiny, ordinary and huge bases
    xs = mantissas * scales * rng.choice([-1.0, 1.0], 400)
    got = eval_real(Pow(Var("x"), k), {"x": xs})
    bound = (2 * abs(k) - 1) * Fraction(1, 2 ** 53)
    for x, y in zip(xs.tolist(), got.tolist()):
        exact = Fraction(x) ** k
        assert abs(Fraction(y) - exact) <= bound * abs(exact), (x, k, y)


def test_array_powers_keep_their_errors():
    xs = np.array([-2.0, 0.0, 3.0])
    for k in (-1, -2, -3, -8):
        with pytest.raises(DomainError, match="zero raised to a negative power"):
            eval_real(Pow(Var("x"), k), {"x": xs})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may escape the grid walk
        for k, x in [(3, 1e110), (-3, 1e-110), (8, -1e40), (-8, -1e-40)]:
            with pytest.raises(NotFinite):
                calculus._on_grid(Pow(Var("x"), k), "x", np.array([1.0, x]))


ALL_PRIMITIVES = "sqrt(x) + log(x) + exp(x) * sin(x) / cos(x) - x^-2"


@pytest.mark.parametrize("evaluate, tree, x, outcome", [
    (eval_real, "x^-2", 0.0, DomainError),
    (eval_hyper, "x^-2", field.zero(), DivisionByZero),
    (eval_hyper, "1/x", field.zero(), DivisionByZero),
    (eval_real, Add(Var("x"), 2.0), 1.0, TypeError),
    (eval_hyper, Add(Var("x"), 2.0), 1.0, TypeError),
    (eval_real, ALL_PRIMITIVES, 0.5, float),  # not np.float64: the CLI prints repr
    (eval_hyper, ALL_PRIMITIVES, 0.5, LCNumber),
])
def test_evaluator_contract(evaluate, tree, x, outcome):
    tree = parse_expr(tree) if isinstance(tree, str) else tree
    if issubclass(outcome, Exception):
        with pytest.raises(outcome):
            evaluate(tree, {"x": x})
    else:
        assert type(evaluate(tree, {"x": x})) is outcome


# -- natural extension -----------------------------------------------------------


def test_pythagorean_identity_transfers():
    v = eval_hyper(parse_expr("sin(x)^2 + cos(x)^2"), {"x": LCNumber([(0, 0.3), (1, 1.0)])})
    assert abs(v.coefficient(0) - 1.0) <= 1e-12
    assert all(abs(c) <= 1e-12 for q, c in v.terms if q != 0)


def test_exp_maclaurin():
    w = eval_hyper(parse_expr("exp(x)"), {"x": eps()})
    for k in range(CFG.depth + 1):
        assert abs(w.coefficient(k) - 1.0 / math.factorial(k)) <= 1e-16 / math.factorial(k) * 10


def test_infinite_argument_rejected():
    with pytest.raises(NotFinite):
        eval_hyper(parse_expr("sin(x)"), {"x": field.infinite()})
    with pytest.raises(NotFinite):
        eval_hyper(parse_expr("sqrt(x)"), {"x": field.infinite()})


@pytest.mark.parametrize("at", ["800", "800 + eps"])
def test_hyper_exp_overflow_is_not_finite(at):
    # e**800 overflows a float, as eval_real reports for the same term
    with pytest.raises(NotFinite, match="overflows"):
        eval_hyper(parse_expr("exp(x)"), {"x": field.parse_lc(at)})


@pytest.mark.parametrize("func", ["sin", "cos", "exp", "log", "sqrt"])
def test_hyper_primitive_of_overflowed_argument_is_not_finite(func):
    # x*x overflows a float to an inf coefficient; no primitive extends there
    with pytest.raises(NotFinite, match="standard part is inf"):
        eval_hyper(parse_expr(f"{func}(x*x)"), {"x": 1e200})


def test_hyper_domain_errors():
    with pytest.raises(DomainError):
        eval_hyper(parse_expr("log(x)"), {"x": eps()})  # st = 0
    with pytest.raises(DomainError):
        eval_hyper(parse_expr("sqrt(x)"), {"x": LCNumber.from_real(-1.0)})


def test_sqrt_of_infinitesimal_square():
    v = eval_hyper(parse_expr("sqrt(x)"), {"x": eps() * eps()})
    assert v.terms == ((1, 1.0),)


def test_extension_property_on_real_bindings():
    # hyper evaluation restricted to the reals reproduces eval_real
    rng = random.Random(3)
    exprs = [parse_expr(s) for s in (
        "x^3 - 2*x + 1", "sin(x) * cos(x)", "exp(x) / (1 + x^2)",
        "log(4 + x)", "sqrt(x^2 + 1)", "(x - 1) / (x^2 + 2)",
    )]
    for _ in range(1000):
        e = rng.choice(exprs)
        x = rng.uniform(-2.0, 2.0)
        want = eval_real(e, {"x": x})
        got = standard_part(eval_hyper(e, {"x": x}))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_equal_configs_share_one_field_algebra():
    # The hash is taken once per config and follows equality, so the algebra
    # cache holds one entry per distinct config.
    a, b = FieldConfig(depth=7, eq_tol=1e-9), FieldConfig(depth=7, eq_tol=1e-9)
    assert a is not b and a == b and hash(a) == hash(b)
    assert _field_algebra(a) is _field_algebra(b)
    assert _field_algebra(FieldConfig(depth=8)) is not _field_algebra(a)


def test_transfer_of_identities_on_field_bindings(monkeypatch):
    # identities keep holding coefficientwise for 1000 random finite bindings;
    # the sampler is kept in the well-conditioned regime (moderate standard
    # parts, O(1) series coefficients) so residuals reflect the algebra, not
    # float-noise amplification
    monkeypatch.setattr(formulas, "_SHAPES", {"real": (3.0, None), "mixed": (3.0, 0),
                                              "infinitesimal": (0.5, 1), "infinite": (0.5, -1)})
    cfg = SamplerConfig(seed=11)
    rng = random.Random(11)
    pyth = parse_expr("sin(x)^2 + cos(x)^2")
    expid = parse_expr("exp(x) * exp(-x)")
    logexp = parse_expr("log(exp(x))")
    for _ in range(1000):
        x = sample("finite", cfg, rng)
        assert coefficient_norm(sub(eval_hyper(pyth, {"x": x}), one())) <= 1e-10
        assert coefficient_norm(sub(eval_hyper(expid, {"x": x}), one())) <= 1e-10
        assert coefficient_norm(sub(eval_hyper(logexp, {"x": x}), x)) <= 1e-10


def test_jet_consistency_with_symbolic_derivatives():
    rng = random.Random(5)
    sources = ["exp(x) * sin(x)", "x^4 - 3*x^2 + x", "log(2 + x)", "sqrt(1 + x^2)", "cos(2*x) / (2 + x)"]
    for src in sources:
        f = parse_expr(src)
        for _ in range(20):
            x0 = rng.uniform(-1.0, 1.0)
            jet = jet_at(src, x0)
            g = f
            for k in range(6):
                sym = eval_real(g, {"x": x0})
                via_jet = jet.coefficient(k) * math.factorial(k)
                assert abs(via_jet - sym) <= 1e-8, (src, x0, k)
                g = symbolic_derivative(g, "x")


# -- symbolic derivatives ---------------------------------------------------------


def test_derivative_examples():
    assert symbolic_derivative(parse_expr("x^3"), "x") == parse_expr("3 * x^2")
    assert symbolic_derivative(parse_expr("sin(x)"), "x") == parse_expr("cos(x)")
    d = symbolic_derivative(parse_expr("x * exp(x)"), "x")
    assert d == parse_expr("exp(x) + x * exp(x)")


def test_derivative_rules():
    x0 = 0.37
    for src in ["1 / x", "x^-2", "log(x)", "sqrt(x)", "cos(x) * sin(x)", "exp(2*x) / x"]:
        f = parse_expr(src)
        d = symbolic_derivative(f, "x")
        h = 1e-6
        fd = (eval_real(f, {"x": x0 + h}) - eval_real(f, {"x": x0 - h})) / (2 * h)
        assert abs(eval_real(d, {"x": x0}) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_derivative_constant_folding():
    assert symbolic_derivative(parse_expr("3"), "x") == Const(0.0)
    assert symbolic_derivative(parse_expr("x"), "y") == Const(0.0)
    assert symbolic_derivative(parse_expr("2*x + 7"), "x") == Const(2.0)


def tree_derivative(e, var):
    """Differentiate every occurrence afresh: the rules of symbolic_derivative
    with no memo, as a reference."""
    if isinstance(e, Const):
        return _const(0)
    if isinstance(e, Var):
        return _const(1 if e.name == var else 0)
    if isinstance(e, (Add, Sub)):
        combine = _add if isinstance(e, Add) else _sub
        return combine(tree_derivative(e.left, var), tree_derivative(e.right, var))
    if isinstance(e, Mul):
        return _add(_mul(tree_derivative(e.left, var), e.right), _mul(e.left, tree_derivative(e.right, var)))
    if isinstance(e, Div):
        num = _sub(_mul(tree_derivative(e.left, var), e.right), _mul(e.left, tree_derivative(e.right, var)))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _const(0)
        return _mul(_mul(_const(e.exponent), _pow(e.base, e.exponent - 1)), tree_derivative(e.base, var))
    if isinstance(e, Neg):
        return _neg(tree_derivative(e.operand, var))
    du, u = tree_derivative(e.arg, var), e.arg
    if e.func == "log":
        return _div(du, u)
    if e.func == "sqrt":
        return _div(du, _mul(_const(2), Call("sqrt", u)))
    outer = {"sin": Call("cos", u), "cos": _neg(Call("sin", u)), "exp": Call("exp", u)}[e.func]
    return _mul(outer, du)


@pytest.mark.parametrize("src", ["exp(x) * sin(3*x) / (1 + x^2)", "sqrt(2 + sin(x)^2) * log(3 + x)",
                                 "cos(x*exp(-x))^3 - x^4 / (2 + x)", "x^0 + y*x - 2", "log(sin(x)*x)"])
def test_derivative_equals_the_tree_reference(src):
    e = parse_expr(src)
    memoised, reference = e, e
    for _ in range(3):
        memoised, reference = symbolic_derivative(memoised, "x"), tree_derivative(reference, "x")
        assert memoised == reference
