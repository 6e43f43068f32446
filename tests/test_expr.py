"""Parsing, evaluation, natural extension, and symbolic derivative tests."""

import math
import random

import numpy as np
import pytest

from levicalc import field
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
    eval_hyper,
    eval_real,
    free_variables,
    parse_expr,
    render_expr,
    symbolic_derivative,
)
from levicalc.field import LCNumber, coefficient_norm, eps, one, standard_part, sub
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


def test_free_variables():
    assert free_variables(parse_expr("x*y + sin(z)")) == {"x", "y", "z"}
    assert free_variables(parse_expr("3 + 4")) == set()


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


@pytest.mark.parametrize("src, x", [("x*x*x", 1e103), ("x*x - 2*x*x", 1e200), ("x + x", 1e308)])
def test_eval_real_arithmetic_overflow_is_not_finite(src, x):
    # float +, - and * overflow to inf (or inf - inf = nan) without raising
    with pytest.raises(NotFinite):
        eval_real(parse_expr(src), {"x": x})


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


def test_transfer_of_identities_on_field_bindings():
    # identities keep holding coefficientwise for 1000 random finite bindings;
    # the sampler is kept in the well-conditioned regime (moderate standard
    # parts, O(1) series coefficients) so residuals reflect the algebra, not
    # float-noise amplification
    cfg = SamplerConfig(seed=11, coef_range=(-3.0, 3.0), series_bound=0.5)
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
