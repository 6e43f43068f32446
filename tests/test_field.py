"""Field arithmetic, order, classification, and rendering tests."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicalc import field
from levicalc.field import (
    EQUAL,
    GREATER,
    LESS,
    Classification,
    FieldConfig,
    LCNumber,
    classify,
    coefficient_norm,
    compare,
    eps,
    is_infinitely_close,
    inv,
    mul,
    nth_root,
    one,
    parse_lc,
    sqrt,
    standard_part,
    sub,
    to_json,
    zero,
)
from levicalc.errors import DivisionByZero, NegativeLeading, NotFinite, ParseError

CFG = field.DEFAULT_CONFIG
E = eps()


def lc(*terms):
    return LCNumber(terms)


def real(x):
    return LCNumber.from_real(x)


# -- construction and normalization -------------------------------------------


def test_zero_is_empty():
    assert zero().terms == ()
    assert lc((0, 0.0)).is_zero
    assert lc((2, 1e-15)).is_zero  # below zero_tol


def test_terms_sorted_and_merged():
    u = lc((1, 2.0), (0, 1.0), (1, 3.0))
    assert u.terms == ((0, 1.0), (1, 5.0))


def test_window_relative_to_leading_exponent():
    u = lc((0, 1.0), (11, 1.0))
    assert u.terms == ((0, 1.0),)
    v = lc((5, 1.0), (14, 2.0), (16, 3.0))
    assert [q for q, _ in v.terms] == [5, 14]


def test_cancellation_renormalizes():
    # subtraction that kills the leading term re-truncates around the new lead
    a = lc((0, 1.0), (12, 7.0))
    b = lc((0, 1.0))
    d = sub(a, b)
    assert d.is_zero  # the eps^12 term was outside a's carried window
    d2 = sub(lc((0, 1.0), (3, 2.0)), lc((0, 1.0)))
    assert d2.terms == ((3, 2.0),)


def test_max_terms_cap():
    cfg = FieldConfig(depth=10, max_terms=3)
    u = LCNumber([(Fraction(k, 2), 1.0) for k in range(10)], cfg)
    assert len(u.terms) == 3


def test_exponents_must_be_exact():
    with pytest.raises(TypeError):
        lc((0.5, 1.0))
    assert lc((2.0, 1.0)).terms == ((2, 1.0),)  # integral floats are fine


# -- arithmetic examples -------------------------------------------------------


def test_add_cancellation():
    assert (lc((0, 3.0), (1, 5.0)) + lc((0, 1.0), (1, -5.0))) == 4


def test_add_identity():
    assert (E + zero()).terms == E.terms


def test_add_disjoint_supports():
    u = lc((0, 1.0), (1, 1.0)) + lc((2, 1.0))
    assert u.terms == ((0, 1.0), (1, 1.0), (2, 1.0))


def test_mul_examples():
    assert (E * E).terms == ((2, 1.0),)
    assert ((1 + E) * (1 - E)).terms == ((0, 1.0), (2, -1.0))
    assert (field.infinite() * E) == 1


def test_inv_examples():
    g = inv(1 + E)
    assert [g.coefficient(k) for k in range(4)] == [1.0, -1.0, 1.0, -1.0]
    assert inv(E).terms == ((-1, 1.0),)
    assert inv(real(2)) == 0.5
    with pytest.raises(DivisionByZero):
        inv(zero())


def test_compare_examples():
    assert compare(E, zero()) == GREATER
    assert compare(E, real(1e-9)) == LESS
    assert compare(field.infinite(), real(1e6)) == GREATER
    assert compare(1 + E, one()) == GREATER
    assert compare(real(1.0), real(1.0 + 1e-12)) == EQUAL  # within eq_tol


def test_standard_part_examples():
    assert standard_part(lc((0, 3.0), (1, 5.0), (2, 1.0))) == 3.0
    assert standard_part(E) == 0.0
    assert standard_part(zero()) == 0.0
    with pytest.raises(NotFinite):
        standard_part(field.infinite())


def test_infinite_proximity_examples():
    assert is_infinitely_close(1 + E, one())
    assert is_infinitely_close(E, E * E)
    assert not is_infinitely_close(one(), real(2))
    assert not is_infinitely_close(real(1e-11), zero())  # small real is not infinitesimal


def test_classify_examples():
    assert classify(E) is Classification.INFINITESIMAL
    assert classify(3 + E) is Classification.FINITE_WITH_INFINITESIMAL_PART
    assert classify(field.infinite()) is Classification.INFINITE
    assert classify(real(3)) is Classification.APPRECIABLE
    assert classify(zero()) is Classification.ZERO


# -- roots ---------------------------------------------------------------------


def test_sqrt_squares_back():
    # oracle: square the computed root and compare coefficientwise
    u = 1 + 2 * E
    r = sqrt(u)
    assert coefficient_norm(sub(mul(r, r), u)) <= CFG.eq_tol
    assert abs(r.coefficient(0) - 1.0) < 1e-15
    assert abs(r.coefficient(1) - 1.0) < 1e-15
    assert abs(r.coefficient(2) + 0.5) < 1e-15


def test_sqrt_trivial():
    assert sqrt(real(4)) == 2
    assert sqrt(E * E).terms == ((1, 1.0),)


def test_nth_root_general():
    u = lc((-2, 8.0), (-1, 4.0))
    r = nth_root(u, 3)
    assert r.leading_exponent == Fraction(-2, 3)
    cubed = mul(mul(r, r), r)
    # valid on the joint window of the cube
    top = cubed.leading_exponent + CFG.depth
    d = sub(cubed, u)
    assert all(abs(c) <= 1e-9 for q, c in d.terms if q <= top)


def test_nth_root_rejects_nonpositive_leading():
    with pytest.raises(NegativeLeading):
        nth_root(real(-4), 2)
    with pytest.raises(NegativeLeading):
        nth_root(zero(), 2)


# -- property tests --------------------------------------------------------------

_EXPONENTS = sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-6, 7)})
_OFFSETS = sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(1, 2 * d + 1)})

# lattice coefficients are exact in binary floating point, which makes the
# order-compatibility assertions sharp instead of tolerance-boundary-flaky
_lattice = st.integers(-128, 128).map(lambda n: n / 64.0)
_lead_coef = st.integers(-128, -32).map(lambda n: n / 64.0) | st.integers(32, 128).map(lambda n: n / 64.0)


@st.composite
def lc_values(draw, allow_zero=True):
    if allow_zero and draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return zero()
    lead_exp = draw(st.sampled_from(_EXPONENTS))
    lead = draw(_lead_coef)
    offsets = draw(st.lists(st.sampled_from(_OFFSETS), max_size=3, unique=True))
    terms = [(lead_exp, lead)]
    for off in offsets:
        # tails at most half the leading magnitude: |lead| >= 0.5, so /8 of
        # the lattice keeps series inverses well conditioned (|m| <= 1/2)
        terms.append((lead_exp + off, draw(_lattice) / 8.0))
    return LCNumber(terms)


def _window_top(*values):
    tops = [v.leading_exponent + CFG.depth for v in values if not v.is_zero]
    return min(tops, default=None)


def _agree_within(u, v, tol, top):
    d = sub(u, v)
    return all(abs(c) <= tol for q, c in d.terms if top is None or q <= top)


@given(lc_values(), lc_values(), lc_values())
def test_add_associative_on_joint_window(a, b, c):
    lhs = (a + b) + c
    rhs = a + (b + c)
    top = _window_top(a + b, lhs, b + c, rhs)
    assert _agree_within(lhs, rhs, CFG.eq_tol, top)


@given(lc_values(), lc_values())
def test_mul_commutative(a, b):
    assert _agree_within(a * b, b * a, CFG.eq_tol, _window_top(a * b, b * a))


@given(lc_values(), lc_values(), lc_values())
def test_distributive_on_joint_window(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    top = _window_top(b + c, lhs, a * b, a * c, rhs)
    assert _agree_within(lhs, rhs, CFG.eq_tol, top)


@given(lc_values(allow_zero=False))
def test_inverse_cancels(a):
    assert _agree_within(a * inv(a), one(), CFG.eq_tol, None)


@given(lc_values(), lc_values(), lc_values())
def test_order_add_compatible(a, b, c):
    # adding c shifts the carried window; the assertion is meaningful only
    # while the order that distinguishes a from b stays inside it
    if compare(a, b) != LESS:
        return
    d = sub(b, a)
    top = _window_top(a + c, b + c)
    if top is not None and d.leading_exponent > top:
        return
    assert compare(a + c, b + c) == LESS


@given(lc_values(), lc_values(), lc_values(allow_zero=False))
def test_order_mul_compatible(a, b, c):
    if compare(a, b) != LESS or compare(c, zero()) != GREATER:
        return
    d = sub(b, a)
    top = _window_top(a * c, b * c)
    if top is not None and d.leading_exponent + c.leading_exponent > top:
        return
    assert compare(a * c, b * c) == LESS


@settings(max_examples=200)
@given(st.integers(1, 10 ** 6))
def test_non_archimedean(n):
    assert compare(n * E, one()) == LESS


def test_non_archimedean_extremes():
    for n in (1, 10 ** 6):
        assert compare(n * E, one()) == LESS


def test_no_least_upper_bound_of_infinitesimals():
    # any positive non-infinitesimal bound can be halved and still bound them
    import random

    rng = random.Random(7)
    infinitesimals = [lc((Fraction(rng.randint(1, 6), rng.randint(1, 3)), rng.uniform(0.1, 2.0)))
                      for _ in range(50)]
    half = real(0.5)
    checked = 0
    while checked < 1000:
        kind = rng.choice(("appreciable", "mixed", "infinite"))
        if kind == "appreciable":
            u = real(rng.uniform(0.05, 10.0))
        elif kind == "mixed":
            u = lc((0, rng.uniform(0.05, 10.0)), (1, rng.uniform(-0.5, 0.5)))
        else:
            u = lc((-1, rng.uniform(0.05, 10.0)))
        if not all(compare(x, u) == LESS for x in infinitesimals):
            continue
        v = mul(u, half)
        assert compare(v, u) == LESS
        assert all(compare(x, v) == LESS for x in infinitesimals)
        checked += 1


# Each comparison operator with the outcomes of compare() it accepts.
_ORDER_OPERATORS = [(operator.eq, (EQUAL,)), (operator.ne, (LESS, GREATER)), (operator.lt, (LESS,)),
                    (operator.le, (LESS, EQUAL)), (operator.gt, (GREATER,)), (operator.ge, (GREATER, EQUAL))]


@given(lc_values(), lc_values())
def test_operators_agree_with_compare(a, b):
    for u, v in ((a, b), (b, a), (a, a)):
        order = compare(u, v)
        for op, accepted in _ORDER_OPERATORS:
            assert op(u, v) is (order in accepted), (op, u, v)


@given(lc_values(), st.integers(-3, 3) | _lattice)
def test_operators_with_a_scalar_agree_with_compare(u, x):
    # a scalar on the left goes through the reflected operator
    for op, accepted in _ORDER_OPERATORS:
        assert op(u, x) is (compare(u, real(x)) in accepted), (op, u, x)
        assert op(x, u) is (compare(real(x), u) in accepted), (op, x, u)


def test_comparison_with_a_non_number_is_not_implemented():
    u = 1 + E
    assert u.__eq__("x") is NotImplemented
    assert (u == "x") is False and (u != "x") is True
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(u, "x")
        with pytest.raises(TypeError):
            op("x", u)


@given(lc_values(), lc_values())
def test_standard_part_additive_for_finite(a, b):
    def finite(u):
        return u.is_zero or u.leading_exponent >= 0

    if finite(a) and finite(b):
        assert standard_part(a + b) == standard_part(a) + standard_part(b)


# -- rendering -------------------------------------------------------------------


def test_format_examples():
    assert str(zero()) == "0"
    assert str(E) == "eps"
    assert str(-E) == "-eps"
    assert str(lc((0, 1.0), (Fraction(1, 2), 2.0))) == "1 + 2*eps^(1/2)"
    assert str(lc((0, 4.0))) == "4"
    assert str(lc((-1, 1.0))) == "eps^(-1)"
    assert str(lc((0, 1.0), (2, -1.0))) == "1 - eps^2"


@given(lc_values())
def test_text_round_trip(u):
    assert parse_lc(str(u)).terms == u.terms


@given(lc_values())
def test_json_round_trip(u):
    assert field.from_json(to_json(u)).terms == u.terms


def test_parse_lc_forms():
    assert parse_lc("1 + 2*eps^(1/2)").terms == ((0, 1.0), (Fraction(1, 2), 2.0),)
    assert parse_lc("2*eps^-1").terms == ((-1, 2.0),)
    assert parse_lc("-eps").terms == ((1, -1.0),)
    assert parse_lc("0").is_zero
    assert parse_lc("1e-3").terms == ((0, 1e-3),)


def test_parse_lc_errors():
    with pytest.raises(ParseError):
        parse_lc("")
    with pytest.raises(ParseError):
        parse_lc("1 + + ")
    with pytest.raises(ParseError):
        parse_lc("2*foo")
    with pytest.raises(ParseError):
        parse_lc("eps^(1/0)")


def test_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(depth=0)
    with pytest.raises(ValueError):
        FieldConfig(eq_tol=1e-16, zero_tol=1e-14)
    with pytest.raises(ValueError):
        FieldConfig(max_terms=0)


def test_mixed_configs_rejected():
    other = FieldConfig(depth=5)
    with pytest.raises(ValueError):
        field.add(eps(), eps(other))


def test_immutability_conventions():
    u = 1 + E
    assert u.__hash__ is None
    assert abs(-u).terms == u.terms
