"""Field arithmetic, order, classification, and rendering tests."""

import math
import operator
import random
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


def _reference_compare(a, b):
    """compare() built the plain way: the whole difference in a dict, its
    kept orders filtered into a list, the leading one by min and the
    largest within its depth window by max."""
    config = a.config
    den, pa, pb = field._aligned(a, b)
    d = dict(pa)
    for k, c in pb:
        d[k] = d.get(k, 0.0) - c
    kept = [(k, c) for k, c in d.items() if abs(c) > config.zero_tol]
    if not kept:
        return EQUAL
    lead, sign = min(kept)
    if abs(sign) <= config.eq_tol:
        limit = lead + config.depth * den
        if max(abs(c) for k, c in kept if k <= limit) <= config.eq_tol:
            return EQUAL
    return GREATER if sign > 0 else LESS


def _compare_corpus(rng, config, n):
    """Pairs (a, b) where b is a perturbed at the tolerances that decide
    the outcome: by zero_tol, by eq_tol and either side of it, by 1, and at
    orders of its own, on the lattices 1, 1/2, 1/3 and 1/6."""
    zt, tol = config.zero_tol, config.eq_tol
    sizes = (0.0, zt, 0.5 * tol, tol, 2 * tol, 1.0)
    for _ in range(n):
        den = rng.choice((1, 2, 3, 6))
        coefs = {rng.randrange(-2 * den, 3 * den): rng.uniform(-2, 2) for _ in range(rng.randint(0, 4))}
        a = field.from_lattice(den, coefs, config)
        den_b = rng.choice((den, 1, 2, 3))
        step = math.lcm(den, den_b)
        moved = {k * (step // den): c for k, c in coefs.items()}
        for k in list(moved) + [rng.randrange(-2 * step, 3 * step) for _ in range(rng.randint(0, 2))]:
            moved[k] = moved.get(k, 0.0) + rng.choice((-1, 1)) * rng.choice(sizes)
        yield a, field.from_lattice(step, moved, config)


def test_compare_walk_matches_reference():
    cases = [
        # the leading difference is inside eq_tol and a later order is above it
        (real(1.0) + E ** 2, real(1.0 + 5e-11)),
        # everything in the leading order's window is inside eq_tol, and b
        # has a large order just past it (b's own window starts one higher)
        (real(5e-11), 3e-11 * E + 7 * E ** 11),
        (real(5e-11), 3e-11 * E + 7 * E ** 10),
        # empty operands
        (zero(), zero()), (zero(), E), (-E, zero()), (zero(), real(1e-11)),
        # mixed lattices
        (lc((Fraction(1, 2), 1.0), (Fraction(2, 3), 1.0)), lc((Fraction(1, 2), 1.0), (Fraction(5, 6), 1.0))),
        # inf - inf is nan, which is not kept
        (lc((0, math.inf), (1, 1.0)), lc((0, math.inf))),
    ]
    assert [compare(a, b) for a, b in cases[:3]] == [LESS, EQUAL, GREATER]
    # a leading difference of exactly zero_tol is dropped, so the next order
    # decides; one just above it is kept and decides itself
    coarse = FieldConfig(depth=3, max_terms=8, zero_tol=0.25, eq_tol=0.5)
    at_zt = [(field.from_lattice(1, {0: c, 1: 0.5}, coarse), field.from_lattice(1, {0: 0.5, 1: 1.5}, coarse))
             for c in (0.75, 0.8)]
    assert [compare(a, b) for a, b in at_zt] == [LESS, GREATER]
    # The leading terms decide alone only past eq_tol.  A leading difference
    # of exactly eq_tol, just above it and just below it: one lead alone, and
    # two leads on one order (1.5 - 1.0 is exact) ...
    tol = CFG.eq_tol
    lone = [(field.from_lattice(1, {1: c, 2: 1.0}), field.from_lattice(1, {2: 1.0}))
            for c in (tol, math.nextafter(tol, 1.0), math.nextafter(tol, 0.0))]
    same = [(field.from_lattice(1, {0: c, 1: 0.5}, coarse), field.from_lattice(1, {0: 1.0, 1: 0.5}, coarse))
            for c in (1.5, math.nextafter(1.5, 2.0), math.nextafter(1.5, 1.0))]
    # ... leads on the lattices 1/2 and 1/3, the smaller order's at +-eq_tol,
    # so the next order settles it with that lead's sign ...
    lattices = [(field.from_lattice(2, {1: c}), field.from_lattice(3, {2: 1.0})) for c in (tol, -tol)]
    # ... zero against leads of at most eq_tol, and infinite leads
    small = [(zero(), real(tol)), (zero(), field.from_lattice(1, {0: 0.5 * tol, 1: 1.0}))]
    infinite = [(lc((0, math.inf)), real(1.0)), (lc((-1, 1.0)), lc((0, math.inf))),
                (lc((0, math.inf)), lc((0, math.inf))), (lc((0, -math.inf), (1, 1.0)), lc((0, math.inf)))]
    leads = lone + same + lattices + small + infinite
    assert [compare(a, b) for a, b in leads] == [EQUAL, GREATER, EQUAL, EQUAL, GREATER, EQUAL, GREATER, LESS,
                                                 EQUAL, LESS, GREATER, GREATER, EQUAL, LESS]
    cases.extend(leads)
    narrow = FieldConfig(depth=2, max_terms=3, zero_tol=1e-6, eq_tol=1e-3)
    rng = random.Random(0)
    for config, n in ((CFG, 3000), (narrow, 3000), (coarse, 1000)):
        cases.extend(_compare_corpus(rng, config, n))
    cases.extend(at_zt)
    outcomes = set()
    for a, b in cases:
        for u, v in ((a, b), (b, a), (a, a)):
            outcome = compare(u, v)
            assert outcome == _reference_compare(u, v), (str(u), str(v))
            outcomes.add(outcome)
    assert outcomes == {LESS, EQUAL, GREATER}


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


# -- kernels against reference loops ---------------------------------------------


def _bits(u):
    return u._den, tuple((k, c.hex()) for k, c in u._pairs)


def _recurrence_by_pointers(den, tail, y0, beta, gamma, cap, shift, config, forced=None, imag=False):
    """field._recurrence with the orders to visit merged by one pointer per
    tail exponent into the orders already visited."""
    ks = [k for k, _ in tail]
    weights = [(k, c * beta * k, c * gamma) for k, c in tail]
    zt, span = config.zero_tol, config.depth * den
    v = y0.imag if imag else y0.real
    out = [(shift, v)] if abs(v) > zt else []
    limit = min(cap, span) if out else cap
    ys = {0: y0}
    support, ptr, nxt = [0], [0] * len(ks), list(ks)
    while nxt and len(out) < config.max_terms:
        K = min(nxt)
        if K > limit:
            break
        y = forced.get(K, 0.0) if forced else 0.0
        for k, a, g in weights:
            if k > K:
                break
            prev = ys.get(K - k)
            if prev is not None:
                y += prev * a / K + prev * g
        ys[K] = y
        support.append(K)
        for j, offer in enumerate(nxt):
            if offer == K:
                ptr[j] += 1
                nxt[j] = support[ptr[j]] + ks[j]
        v = y.imag if imag else y.real
        if abs(v) > zt:
            if not out:
                limit = min(cap, K + span)
            out.append((K + shift, v))
    return field._lc(den, tuple(out), config)


def _recurrence_corpus():
    rng = random.Random(20181)
    short = FieldConfig(max_terms=5)
    # (beta, gamma, forced, imag): x**alpha, exp, cos / sin, log
    forms = [(0.0, -1.0, False, False), (1.5, -1.0, False, False), (1.0, 0.0, False, False),
             (1j, 0.0, False, False), (1j, 0.0, False, True), (1.0, -1.0, True, False)]
    for den in (1, 2, 3, 6, 12, 60):
        span = CFG.depth * den
        tails = [
            list(range(1, 6)),                                    # dense
            [3, 5],                                               # sparse, gaps
            [2, 6, 12],                                           # gcd 2
            sorted(rng.sample(range(1, span + 1), min(4, span))),  # random support
            [span + 1],                                           # nothing reachable
        ]
        for ks in tails:
            tail = [(k, rng.uniform(-1.5, 1.5)) for k in ks]
            for beta, gamma, forced, imag in forms:
                for y0 in (rng.uniform(0.2, 2.0), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 0.0, 1e-15):
                    for cap, config in ((span, CFG), (span // 2, CFG), (span, short)):
                        yield (den, tail, y0, beta, gamma, cap, rng.randint(-span, span), config,
                               dict(tail) if forced else None, imag)


def test_recurrence_visits_the_orders_the_pointer_merge_visits():
    cases = 0
    for args in _recurrence_corpus():
        assert _bits(field._recurrence(*args)) == _bits(_recurrence_by_pointers(*args)), args
        cases += 1
    assert cases == 6 * 5 * 6 * 4 * 3


def test_sums_are_the_reachable_orders_in_increasing_order():
    for ks in ([1], [2, 4, 6], [3, 5], [2, 6, 12], [4, 6, 9], [5, 7, 11, 12]):
        reach = {0}
        for K in range(1, 61):
            if any(K - k in reach for k in ks):
                reach.add(K)
        got = []
        for K in field._sums(ks):
            if K > 60:
                break
            got.append(K)
        assert got == sorted(reach - {0}), ks
    assert list(field._sums([])) == []


@pytest.mark.parametrize("text", [
    "1 + eps^(1/1000000000000) + eps",
    "1 + eps + eps^(1000000000001/1000000000000)",
    "eps^(1/1000000000000) + eps^(100000000001/1000000000000) + eps^(200000000001/1000000000000)",
])
def test_recurrence_on_a_fine_lattice_matches_the_pointer_merge(text, monkeypatch):
    # The lattice is 1/10**12: the orders visited must not cost in proportion
    # to den.  The third operand's inverse steps through multiples of 10**11.
    a = parse_lc(text)
    assert a._den == 10**12

    def kernels():
        return [inv(a), sqrt(a), field.taylor_series(a, 2.0, 1.0, -1.0, forced=True)]

    got = kernels()
    monkeypatch.setattr(field, "_recurrence", _recurrence_by_pointers)
    assert [_bits(u) for u in got] == [_bits(u) for u in kernels()]
    assert len(got[0]._pairs) > 50


def _mul_by_double_loop(a, b):
    config = a.config
    if a.is_zero or b.is_zero:
        return zero(config)
    den, pa, pb = field._aligned(a, b)
    limit = pa[0][0] + pb[0][0] + config.depth * den
    acc = {}
    for ka, ca in pa:
        for kb, cb in pb:
            if ka + kb <= limit:
                acc[ka + kb] = acc.get(ka + kb, 0.0) + ca * cb
    return field._lc(den, field._settle(acc, den, config), config)


def test_one_term_products_match_the_double_loop():
    short = FieldConfig(max_terms=4)
    rng = random.Random(7)
    singles = [real(1e-7), real(-3.0), E, lc((Fraction(1, 2), 2.5)), field.infinite(), lc((-2, 1e-8)),
               lc((1, 1e-8)), LCNumber([(Fraction(-1, 3), 0.7)], short)]
    operands = [
        lc((0, 1.0), (1, 1e-8), (2, 1.0)),                                    # a product at zero_tol
        lc((0, 1.3), (Fraction(1, 3), 0.1), (1, 0.7), (2, -0.2)),             # lattice 1/3
        lc((-1, 2.0), (Fraction(-1, 2), -1.0), (3, 0.5), (9, 4.0)),           # 1/eps and a window cut
        LCNumber([(Fraction(k, 6), rng.uniform(-1, 1)) for k in range(12)], short),
    ] + [LCNumber([(Fraction(rng.randint(-12, 24), d), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 6))])
         for d in (1, 2, 3, 6) for _ in range(5)]
    for s in singles:
        for u in operands:
            if s.config != u.config:
                continue
            assert _bits(mul(s, u)) == _bits(_mul_by_double_loop(s, u)), (s, u)
            assert _bits(mul(u, s)) == _bits(_mul_by_double_loop(u, s)), (u, s)
            assert _bits(mul(s, u)) == _bits(mul(u, s))
    assert mul(lc((1, 1e-8)), real(1e-7)).is_zero  # 1e-15 is below zero_tol
    assert _bits(mul(lc((1, 1e-8)), lc((0, 1e-7), (1, 1.0)))) == (1, ((2, (1e-8).hex()),))


def test_from_lattice_normalizes():
    u = field.from_lattice(6, {9: 2.0, 3: 1.0, 5: 1e-15, 90: 1.0})
    assert (u._den, u._pairs) == (2, ((1, 1.0), (3, 2.0)))
    assert field.from_lattice(4, {2: 1e-15}).is_zero


def test_project_reals_only_when_every_value_is_real():
    assert field.project_reals({"a": real(2.5), "z": zero()}, {"b": 1.0}) == {"b": 1.0, "a": 2.5, "z": 0.0}
    assert field.project_reals({"a": real(2.5), "e": 1 + E}, {}) is None
    assert field.project_reals({"i": field.infinite()}, {}) is None


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


# Each arithmetic operator with the field function it stands for.
_ARITHMETIC_OPERATORS = [(operator.add, field.add), (operator.sub, field.sub), (operator.mul, mul),
                         (operator.truediv, lambda a, b: mul(a, inv(b)))]


@given(lc_values(allow_zero=False), lc_values(allow_zero=False),
       st.sampled_from([3, -2, 0.375, -1.5, Fraction(2, 3), Fraction(-5, 4)]))
def test_arithmetic_operators_agree_with_the_field_functions(a, b, x):
    # a scalar on the left goes through the reflected operator
    s = real(x)
    for op, fn in _ARITHMETIC_OPERATORS:
        assert op(a, b).terms == fn(a, b).terms, (op, a, b)
        assert op(a, x).terms == fn(a, s).terms, (op, a, x)
        assert op(x, a).terms == fn(s, a).terms, (op, x, a)
    assert (-a).terms == field.neg(a).terms
    assert +a is a
    assert abs(a).terms == (a if a.leading_coefficient > 0 else field.neg(a)).terms


def test_arithmetic_with_a_non_number_or_another_config_fails():
    u, other = 1 + E, eps(FieldConfig(depth=5))
    for op, _ in _ARITHMETIC_OPERATORS:
        assert getattr(u, f"__{op.__name__}__")("x") is NotImplemented
        with pytest.raises(TypeError):
            op(u, "x")
        with pytest.raises(TypeError):
            op("x", u)
        with pytest.raises(ValueError):
            op(u, other)
        with pytest.raises(ValueError):
            op(other, u)
    with pytest.raises(ValueError):
        u < other
    with pytest.raises(TypeError):
        u ** 0.5


@given(lc_values(allow_zero=False))
def test_powi_squares_from_the_low_bit(a):
    # k >= 1 multiplies in the powers a, a^2, a^4, ... of k's set bits, low
    # bits first; k < 0 raises 1/a to -k; k = 0 is one.
    for base, sign in ((a, 1), (inv(a), -1)):
        a2 = mul(base, base)
        a4 = mul(a2, a2)
        expected = {1: base, 2: a2, 3: mul(base, a2), 4: a4, 5: mul(base, a4)}
        for k, value in expected.items():
            assert field.powi(a, sign * k).terms == value.terms, (a, sign * k)
            assert (a ** (sign * k)).terms == value.terms
    assert field.powi(a, 0).terms == one().terms
    assert field.powi(a, 1) is a


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


@pytest.mark.parametrize("src, terms", [
    ("--1", ((0, 1.0),)),
    ("- - -2", ((0, -2.0),)),
    ("1 - -eps", ((0, 1.0), (1, 1.0))),
    ("1 + - - eps", ((0, 1.0), (1, 1.0))),
    ("1 - - - eps^2", ((0, 1.0), (2, -1.0))),
])
def test_parse_lc_sign_runs(src, terms):
    assert parse_lc(src).terms == terms


@pytest.mark.parametrize("src, message", [
    ("1 + + 2", "1:5: expected a term, got '+'"),
    ("", "1:1: empty series literal"),
    ("1 2", "1:3: expected '+' or '-', got '2'"),
    ("-", "1:2: expected a term, got end of input"),
    ("1 -", "1:4: expected a term, got end of input"),
])
def test_parse_lc_sign_errors(src, message):
    with pytest.raises(ParseError) as e:
        parse_lc(src)
    assert str(e.value) == message


def test_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(depth=0)
    with pytest.raises(ValueError):
        FieldConfig(eq_tol=1e-16, zero_tol=1e-14)
    with pytest.raises(ValueError):
        FieldConfig(max_terms=0)


@pytest.mark.parametrize("tols, message", [
    ({"zero_tol": math.nan}, "zero_tol must be >= 0"),
    ({"zero_tol": -math.inf}, "zero_tol must be >= 0"),
    ({"eq_tol": math.nan}, "eq_tol must be >= zero_tol"),
    ({"zero_tol": math.inf}, "eq_tol must be >= zero_tol"),
    ({"eq_tol": math.inf}, "eq_tol must be finite"),
    ({"zero_tol": math.inf, "eq_tol": math.inf}, "eq_tol must be finite"),
])
def test_config_rejects_non_finite_tolerances(tols, message):
    with pytest.raises(ValueError) as e:
        FieldConfig(**tols)
    assert str(e.value) == message


@pytest.mark.parametrize("src, col", [("1e400", 1), ("1 - 1e400*eps", 5), ("-2e308 + eps", 2)])
def test_parse_lc_rejects_overflowing_coefficients(src, col):
    with pytest.raises(ParseError) as e:
        parse_lc(src)
    assert (e.value.line, e.value.col) == (1, col) and "is not a finite number" in str(e.value)


def test_mixed_configs_rejected():
    other = FieldConfig(depth=5)
    with pytest.raises(ValueError):
        field.add(eps(), eps(other))


def test_immutability_conventions():
    u = 1 + E
    assert u.__hash__ is None
    assert abs(-u).terms == u.terms
