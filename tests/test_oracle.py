"""Differential oracle: the float series kernel against exact rational arithmetic.

Every operand has dyadic coefficients, so converting its float coefficients
to ``Fraction`` is exact.  The reference operations below work on
``{exponent: Fraction}`` dicts with the field's own truncation rules (window
of ``depth`` past the leading exponent, at most ``max_terms`` terms) and no
rounding at all; the float kernel has to agree with them within
``1e-12 * coefficient_norm`` on the orders both sides carry.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from levicalc import field
from levicalc.field import EQUAL, GREATER, LESS, LCNumber

CFG = field.DEFAULT_CONFIG
REL_TOL = Fraction(1e-12)


# -- exact reference ---------------------------------------------------------


def _exact(u: LCNumber) -> dict:
    return {Fraction(q): Fraction(c) for q, c in u.terms}


def _settle(d: dict) -> dict:
    kept = sorted((q, c) for q, c in d.items() if c != 0)
    if not kept:
        return {}
    top = kept[0][0] + CFG.depth
    return dict([t for t in kept if t[0] <= top][:CFG.max_terms])


def _ex_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for q, c in b.items():
        out[q] = out.get(q, 0) + sign * c
    return _settle(out)


def _ex_mul(a: dict, b: dict) -> dict:
    out = {}
    for qa, ca in a.items():
        for qb, cb in b.items():
            out[qa + qb] = out.get(qa + qb, 0) + ca * cb
    return _settle(out)


def _ex_inv(a: dict) -> dict:
    """Geometric series of the relative tail, every power cut to the lowest
    ``max_terms`` orders within the window (exact on the kept orders)."""
    q0 = min(a)
    c0 = a[q0]
    m = {q - q0: c / c0 for q, c in a.items() if q != q0}
    total, power, sign = {Fraction(0): Fraction(1)}, {Fraction(0): Fraction(1)}, 1
    while True:
        prod = {}
        for qa, ca in power.items():
            for qb, cb in m.items():
                if qa + qb <= CFG.depth:
                    prod[qa + qb] = prod.get(qa + qb, 0) + ca * cb
        power = dict(sorted(prod.items())[:CFG.max_terms])
        if not power:
            break
        sign = -sign
        for q, c in power.items():
            total[q] = total.get(q, 0) + sign * c
        if len(total) >= CFG.max_terms and min(power) > sorted(total)[CFG.max_terms - 1]:
            break  # later powers start above every order that can be kept
    return {q - q0: c / c0 for q, c in _settle(total).items()}


def _ex_compare(a: dict, b: dict) -> int:
    d = {q: c for q, c in _ex_add(a, b, -1).items() if abs(c) > Fraction(CFG.zero_tol)}
    if not d:
        return EQUAL
    lead = min(d)
    if max(abs(c) for q, c in d.items() if q <= lead + CFG.depth) <= Fraction(CFG.eq_tol):
        return EQUAL
    return GREATER if d[lead] > 0 else LESS


def _carried_top(d: dict):
    """Highest order a settled series speaks for: its window top, or its last
    order when max_terms cut it short."""
    if not d:
        return None
    qs = sorted(d)
    top = qs[0] + CFG.depth
    return min(top, qs[-1]) if len(qs) >= CFG.max_terms else top


def _assert_agrees(got: LCNumber, want: dict, *operands: dict):
    """got == want on the orders that got, want and the operands want was
    computed from all carry."""
    have = _exact(got)
    tops = [t for t in map(_carried_top, (have, want) + operands) if t is not None]
    top = min(tops, default=None)
    tol = REL_TOL * max((abs(c) for c in want.values()), default=0)
    for q in set(have) | set(want):
        if top is None or q <= top:
            assert abs(have.get(q, 0) - want.get(q, 0)) <= tol, (q, have.get(q), want.get(q))


# -- operands ----------------------------------------------------------------

_tail_coef = st.integers(-16, 16).map(lambda n: Fraction(n, 256))
_lead_coef = (st.integers(128, 512) | st.integers(-512, -128)).map(lambda n: Fraction(n, 256))


@st.composite
def series(draw, positive=False):
    """A value on the 1/den lattice, den in 1..6, with up to three tail terms
    no larger than an eighth of the leading coefficient."""
    den = draw(st.integers(1, 6))
    lead_num = draw(st.integers(-2 * den, 2 * den))
    lead = draw(_lead_coef)
    if positive:
        lead = abs(lead)
    offsets = draw(st.lists(st.integers(1, 3 * den), max_size=3, unique=True))
    terms = [(Fraction(lead_num, den), float(lead))]
    terms += [(Fraction(lead_num + o, den), float(draw(_tail_coef))) for o in offsets]
    return LCNumber(terms)


@st.composite
def pairs(draw):
    """Two operands; the second is often the first plus a small change, so
    that cancellation and equality are exercised."""
    a = draw(series())
    kind = draw(st.sampled_from(("free", "same", "nudged")))
    if kind == "free":
        return a, draw(series())
    if kind == "same":
        return a, LCNumber(a.terms)
    return a, field.add(a, draw(series()) * float(draw(_tail_coef)))


# -- the oracle ----------------------------------------------------------------


@given(pairs())
def test_add_sub_match_exact(ab):
    a, b = ab
    _assert_agrees(field.add(a, b), _ex_add(_exact(a), _exact(b)))
    _assert_agrees(field.sub(a, b), _ex_add(_exact(a), _exact(b), -1))


@given(pairs())
def test_mul_matches_exact(ab):
    a, b = ab
    _assert_agrees(field.mul(a, b), _ex_mul(_exact(a), _exact(b)))


@given(pairs())
def test_compare_matches_exact(ab):
    a, b = ab
    assert field.compare(a, b) == _ex_compare(_exact(a), _exact(b))
    assert field.compare(b, a) == _ex_compare(_exact(b), _exact(a))


@settings(max_examples=60, deadline=None)
@given(series())
def test_inv_matches_exact(a):
    _assert_agrees(field.inv(a), _ex_inv(_exact(a)))


@settings(max_examples=60, deadline=None)
@given(series(positive=True))
def test_sqrt_squares_back_exactly(a):
    root = _exact(field.nth_root(a, 2))
    _assert_agrees(a, _ex_mul(root, root), root)


def test_coprime_lattices_bind_max_terms():
    # eps^(1/89) and eps^(1/97) share the lattice 1/8633; the inverse and the
    # square root of their product have far more than max_terms orders inside
    # the window.
    a = field.parse_lc("1 + 0.25*eps^(1/89)")
    b = field.parse_lc("1 - 0.125*eps^(1/97)")
    ab = field.mul(a, b)
    _assert_agrees(ab, _ex_mul(_exact(a), _exact(b)))
    _assert_agrees(field.add(a, b), _ex_add(_exact(a), _exact(b)))
    _assert_agrees(field.sub(a, b), _ex_add(_exact(a), _exact(b), -1))
    assert field.compare(a, b) == _ex_compare(_exact(a), _exact(b)) == GREATER
    r = field.inv(ab)
    assert len(r.terms) == CFG.max_terms
    _assert_agrees(r, _ex_inv(_exact(ab)))
    s = _exact(field.sqrt(ab))
    assert len(s) == CFG.max_terms
    _assert_agrees(ab, _ex_mul(s, s), s)
