"""Arithmetic and order for a computable non-Archimedean ordered field.

Numbers are truncated left-finite series ``sum_q c_q * eps**q`` in a fixed
positive infinitesimal generator ``eps``, with exact rational exponents and
floating-point coefficients.  Each value holds its exponents as integers k
over one denominator of its own (q = k/den), so exponent arithmetic is exact
integer arithmetic; operands on different lattices meet on the lcm of their
denominators.  The exponent window each value carries is relative to its own
leading exponent, so arithmetic is exact on all kept orders:

* ``eps`` is smaller than every positive real, ``1/eps`` larger than every
  real, and the field order is decided by the sign of the leading
  coefficient of a difference.
* Every finite value ``u`` splits as ``st(u) + (infinitesimal part)``, which
  is what makes derivative extraction and the standard-part function work.

The field stands in for a hyperreal continuum at finite precision: it is an
ordered field extension of the reals that is not Dedekind-complete (the set
of infinitesimals is bounded above, e.g. by 1, but has no least upper
bound -- any upper bound can be halved and still bound them).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from typing import Iterable, Union

from .errors import DivisionByZero, NegativeLeading, NotFinite, ParseError
from .lexer import describe, position, scan

Exponent = Union[int, Fraction]
Scalar = Union[int, float, Fraction]

# Outcomes of compare().
LESS, EQUAL, GREATER = -1, 0, 1

# The outcomes of compare() that each comparison operator accepts.
ACCEPTS = {"<": (LESS,), "<=": (LESS, EQUAL), "=": (EQUAL,), ">": (GREATER,), ">=": (GREATER, EQUAL)}


@dataclass(frozen=True)
class FieldConfig:
    """Truncation budget and tolerances shared by every number in a computation.

    depth      orders past the leading exponent that every value carries
    max_terms  hard cap on the number of stored terms
    zero_tol   coefficients at or below this magnitude are dropped
    eq_tol     coefficientwise tolerance used by compare() for equality

    depth and max_terms must be integers (not bools) of at least 1: a NaN
    depth would never end a series recurrence.  The tolerances must satisfy
    0 <= zero_tol <= eq_tol < inf (so neither is NaN).

    The hash is computed once: configs key the caches of every field-side
    evaluation, so it is taken far more often than a config is made.
    """

    depth: int = 10
    max_terms: int = 64
    zero_tol: float = 1e-14
    eq_tol: float = 1e-10

    def __post_init__(self):
        for name in ("depth", "max_terms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.zero_tol >= 0:  # NaN fails every comparison
            raise ValueError("zero_tol must be >= 0")
        if not self.eq_tol >= self.zero_tol:
            raise ValueError("eq_tol must be >= zero_tol")
        if self.eq_tol == math.inf:
            raise ValueError("eq_tol must be finite")
        object.__setattr__(self, "_hash", hash((self.depth, self.max_terms, self.zero_tol, self.eq_tol)))

    def __hash__(self):
        return self._hash


DEFAULT_CONFIG = FieldConfig()


class Classification(str, Enum):
    ZERO = "zero"
    INFINITESIMAL = "infinitesimal"
    APPRECIABLE = "appreciable-finite"
    FINITE_WITH_INFINITESIMAL_PART = "finite-with-infinitesimal-part"
    INFINITE = "infinite"


def _as_exponent(q) -> Exponent:
    if type(q) is int or isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return int(q)
    if isinstance(q, float) and q.is_integer():
        return int(q)
    raise TypeError(f"exponent must be an exact rational, got {q!r}")


def _exponent(k: int, den: int) -> Exponent:
    """The exponent k/den, as an int when it is one."""
    return k // den if k % den == 0 else Fraction(k, den)


def _settle(acc: dict, den: int, config: FieldConfig) -> tuple:
    """Normalization tail: drop coefficients at or below zero_tol, sort, and
    keep at most max_terms orders within depth of the new leading order."""
    zt = config.zero_tol
    kept = [(k, c) for k, c in acc.items() if (c if c >= 0 else -c) > zt]
    if not kept:
        return ()
    kept.sort()
    top = kept[0][0] + config.depth * den
    return tuple(kept[:bisect_right(kept, (top, math.inf), 0, min(len(kept), config.max_terms))])


def _reduced(den: int, pairs: tuple) -> tuple:
    """(den, pairs) on the coarsest lattice that holds every exponent."""
    if den > 1:
        g = math.gcd(den, *[k for k, _ in pairs])
        if g > 1:
            return den // g, tuple((k // g, c) for k, c in pairs)
    return den, pairs


def _aligned(a: "LCNumber", b: "LCNumber") -> tuple:
    """(den, pairs of a, pairs of b) on the common lattice 1/lcm(den_a, den_b)."""
    da, db = a._den, b._den
    if da == db:
        return da, a._pairs, b._pairs
    den = math.lcm(da, db)
    fa, fb = den // da, den // db
    pa = a._pairs if fa == 1 else tuple((k * fa, c) for k, c in a._pairs)
    pb = b._pairs if fb == 1 else tuple((k * fb, c) for k, c in b._pairs)
    return den, pa, pb


class LCNumber:
    """One field element: an immutable, normalized, truncated series.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    increasing exact-rational exponents; zero is the empty tuple.  Inside,
    the exponents are integers k over one denominator per value (exponent
    k/den), kept as sorted (k, coefficient) pairs; ``terms`` is derived from
    them on first use.  Instances are value objects: every operation returns
    a fresh number, so they are safe to share between threads.
    """

    __slots__ = ("_den", "_pairs", "_terms", "config")

    def __init__(self, terms: Iterable[tuple], config: FieldConfig = DEFAULT_CONFIG):
        items = []
        den = 1
        for q, c in terms:
            if type(q) is not int:
                q = _as_exponent(q)
                den = math.lcm(den, q.denominator)
            items.append((q, float(c)))
        acc: dict = {}
        for q, c in items:
            k = q * den if type(q) is int else q.numerator * (den // q.denominator)
            acc[k] = acc.get(k, 0.0) + c
        self._den, self._pairs = _reduced(den, _settle(acc, den, config))
        self._terms = None
        self.config = config

    @classmethod
    def from_real(cls, x: Scalar, config: FieldConfig = DEFAULT_CONFIG) -> "LCNumber":
        x = float(x)
        return _lc(1, ((0, x),) if abs(x) > config.zero_tol else (), config)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple:
        terms = self._terms
        if terms is None:
            den = self._den
            terms = self._pairs if den == 1 else tuple((_exponent(k, den), c) for k, c in self._pairs)
            self._terms = terms
        return terms

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    @property
    def leading_exponent(self):
        return _exponent(self._pairs[0][0], self._den) if self._pairs else None

    @property
    def leading_coefficient(self):
        return self._pairs[0][1] if self._pairs else None

    @property
    def is_real(self) -> bool:
        """True when the value is zero or a single exponent-0 term."""
        return not self._pairs or (len(self._pairs) == 1 and self._pairs[0][0] == 0)

    def coefficient(self, q) -> float:
        k = _as_exponent(q) * self._den
        if type(k) is not int:
            if k.denominator != 1:
                return 0.0
            k = k.numerator
        for e, c in self._pairs:
            if e == k:
                return c
        return 0.0

    def truncated(self, max_exponent) -> "LCNumber":
        """Drop every term with exponent above ``max_exponent``."""
        top = math.floor(max_exponent * self._den)
        return _lc(self._den, tuple(t for t in self._pairs if t[0] <= top), self.config)

    # -- arithmetic --------------------------------------------------------

    def _dispatch(self, other, fn, reflected: bool = False):
        """fn(self, other), or fn(other, self) when ``reflected``, with a
        scalar operand lifted into the field; NotImplemented for any other
        operand type."""
        if isinstance(other, LCNumber):
            _require_same_config(self, other)
        elif isinstance(other, (int, float, Fraction)):
            other = LCNumber.from_real(other, self.config)
        else:
            return NotImplemented
        return fn(other, self) if reflected else fn(self, other)

    def __add__(self, other):
        return self._dispatch(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._dispatch(other, sub)

    def __rsub__(self, other):
        return self._dispatch(other, sub, True)

    def __mul__(self, other):
        return self._dispatch(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._dispatch(other, div)

    def __rtruediv__(self, other):
        return self._dispatch(other, div, True)

    def __neg__(self):
        return neg(self)

    def __pos__(self):
        return self

    def __abs__(self):
        return neg(self) if (self._pairs and self._pairs[0][1] < 0) else self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return powi(self, k)

    # -- order -------------------------------------------------------------

    def _order(self, other, op: str):
        order = self._dispatch(other, compare)
        return order if order is NotImplemented else order in ACCEPTS[op]

    def __eq__(self, other):
        return self._order(other, "=")

    def __lt__(self, other):
        return self._order(other, "<")

    def __le__(self, other):
        return self._order(other, "<=")

    def __gt__(self, other):
        return self._order(other, ">")

    def __ge__(self, other):
        return self._order(other, ">=")

    __hash__ = None  # equality is tolerance-based

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return format_lc(self)

    def __repr__(self):
        return f"LCNumber({format_lc(self)!r})"


def _require_same_config(a: LCNumber, b: LCNumber) -> FieldConfig:
    if a.config is not b.config and a.config != b.config:
        raise ValueError("operands carry different FieldConfig values")
    return a.config


def _lc(den: int, pairs: tuple, config: FieldConfig) -> LCNumber:
    # Fast path for pairs already in normalized form.
    u = object.__new__(LCNumber)
    u._den = den
    u._pairs = pairs
    u._terms = None
    u.config = config
    return u


def from_lattice(den: int, coefs: dict, config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """The value sum_k coefs[k] * eps**(k/den), normalized as LCNumber is."""
    return _lc(*_reduced(den, _settle(coefs, den, config)), config)


def zero(config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    return _lc(1, (), config)


def one(config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    return LCNumber.from_real(1.0, config)


def eps(config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """The distinguished positive infinitesimal generator."""
    return LCNumber(((1, 1.0),), config)


def infinite(config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """A canonical positive infinite element, 1/eps."""
    return LCNumber(((-1, 1.0),), config)


def _combine(a: LCNumber, b: LCNumber, negate: bool) -> LCNumber:
    config = _require_same_config(a, b)
    if not b._pairs:
        return a
    if not a._pairs:
        return neg(b) if negate else b
    den, pa, pb = _aligned(a, b)
    out = dict(pa)
    get = out.get
    if negate:
        for k, c in pb:
            out[k] = get(k, 0.0) - c
    else:
        for k, c in pb:
            out[k] = get(k, 0.0) + c
    return _lc(den, _settle(out, den, config), config)


def add(a: LCNumber, b: LCNumber) -> LCNumber:
    return _combine(a, b, False)


def neg(a: LCNumber) -> LCNumber:
    return _lc(a._den, tuple((k, -c) for k, c in a._pairs), a.config)


def sub(a: LCNumber, b: LCNumber) -> LCNumber:
    return _combine(a, b, True)


def mul(a: LCNumber, b: LCNumber) -> LCNumber:
    """The product, truncated as every value is.

    When either operand has one term (a constant, ``eps``, ``1/c``), each
    product lands on an order of its own, in increasing order.  The other
    operand already lies within its depth window and holds at most
    max_terms terms, so the product only drops what falls to zero_tol: one
    pass, with no accumulator and no sort.
    """
    config = _require_same_config(a, b)
    if not a._pairs or not b._pairs:
        return zero(config)
    den, pa, pb = _aligned(a, b)
    if len(pa) == 1:
        pa, pb = pb, pa
    if len(pb) == 1:
        (kb, cb), = pb
        zt = config.zero_tol
        out = []
        for ka, ca in pa:
            c = ca * cb
            if (c if c >= 0 else -c) > zt:
                out.append((ka + kb, c))
        return _lc(den, tuple(out), config)
    lead_b = pb[0][0]
    limit = pa[0][0] + lead_b + config.depth * den
    out: dict = {}
    get = out.get
    for ka, ca in pa:
        if ka + lead_b > limit:
            break
        for kb, cb in pb:
            k = ka + kb
            if k > limit:
                break
            out[k] = get(k, 0.0) + ca * cb
    return _lc(den, _settle(out, den, config), config)


def div(a: LCNumber, b: LCNumber) -> LCNumber:
    """The quotient a/b, as a times the inverse of b."""
    return mul(a, inv(b))


def powi(a: LCNumber, k: int) -> LCNumber:
    """Integer power by repeated squaring; negative k routes through inv()."""
    if k < 0:
        return powi(inv(a), -k)
    return _by_squaring(a, k, mul) if k else one(a.config)


def _by_squaring(a, k: int, times):
    """a**k for k >= 1: a is squared once per bit of k, and the set bits'
    powers are multiplied in from the low end.  ``times`` is the product,
    so the same schedule serves `powi` and `expr._real_pow` on arrays.
    """
    result = None
    while k:
        if k & 1:
            result = a if result is None else times(result, a)
        k >>= 1
        if k:
            a = times(a, a)
    return result


def _sums(ks: list):
    """The positive sums of the exponents ks (sorted, distinct), each once, in
    increasing order: the orders a series with those exponents reaches."""
    heap, last = list(ks), 0
    while heap:
        K = heappop(heap)
        if K != last:
            yield K
            last = K
            for k in ks:
                heappush(heap, K + k)


def _recurrence(den: int, tail, y0, beta, gamma: float, cap: int, shift: int,
                config: FieldConfig, forced: "dict | None" = None, imag: bool = False) -> LCNumber:
    """Coefficients of y = sum_K y_K * t**K, t = eps**(1/den), from a recurrence
    over the sparse series ``tail`` = ((k_j, c_j), ...), 0 < k_1 < k_2 < ...:

        y_K = forced.get(K, 0) + sum_j c_j * y_(K - k_j) * (beta * k_j / K + gamma)

    This is Taylor-mode differentiation (Griewank & Walther, ch. 13): with
    x = 1 + tail, beta = alpha + 1 and gamma = -1 give y = y0 * x**alpha;
    (1, 0) gives y = y0 * exp(tail), (1j, 0) gives y = y0 * exp(i * tail), and
    (1, -1) with ``forced = dict(tail)`` gives y = y0 + log(x).  Only the
    orders K reachable as sums of the k_j are visited, in increasing order:
    every multiple of k_1 when k_1 divides each k_j, else the sums drawn
    from a heap (_sums).  So each visited order costs O(len(tail)), times a
    heap's log factor in the second case, whatever den is.  The result is y
    (its imaginary part with ``imag``) shifted by ``shift``/den, normalized
    as every value is: no order above ``cap`` or past depth from its own
    leading order, at most max_terms.
    """
    ks = [k for k, _ in tail]
    weights = [(k, c * beta * k, c * gamma) for k, c in tail]
    zt, span, most = config.zero_tol, config.depth * den, config.max_terms
    v = y0.imag if imag else y0.real
    out = [(shift, v)] if abs(v) > zt else []
    limit = min(cap, span) if out else cap
    ys = {0: y0}
    orders = count(ks[0], ks[0]) if ks and all(k % ks[0] == 0 for k in ks) else _sums(ks)
    for K in orders:
        if K > limit or len(out) >= most:
            break
        y = forced.get(K, 0.0) if forced else 0.0
        for k, a, g in weights:
            if k > K:
                break
            prev = ys.get(K - k)
            if prev is not None:
                y += prev * a / K + prev * g
        ys[K] = y
        v = y.imag if imag else y.real
        if abs(v) > zt:
            if not out:
                limit = min(cap, K + span)
            out.append((K + shift, v))
    return _lc(den, tuple(out), config)


def taylor_series(u: LCNumber, y0, beta, gamma: float, scale: float = 1.0,
                  forced: bool = False, imag: bool = False) -> LCNumber:
    """Extend a smooth function to a finite u from its value y0 at st(u):
    _recurrence over delta = scale * (u - st(u)), on u's own lattice.  Nothing
    past u's window top is kept, because u carries no orders beyond it (and
    log raises the leading exponent, which would otherwise let the window
    creep upward)."""
    tail = [(k, scale * c) for k, c in u._pairs if k > 0]
    top = (u._pairs[0][0] if u._pairs else 0) + u.config.depth * u._den
    return _recurrence(u._den, tail, y0, beta, gamma, top, 0, u.config, dict(tail) if forced else None, imag)


def inv(a: LCNumber) -> LCNumber:
    """Multiplicative inverse: a = c * eps**q * (1 + m) gives
    1/a = (1/c) * eps**(-q) * (1 + m)**(-1), by the Taylor recurrence."""
    if not a._pairs:
        raise DivisionByZero("inverse of zero")
    (k0, c), tail = a._pairs[0], a._pairs[1:]
    m = [(k - k0, x / c) for k, x in tail]
    return _recurrence(a._den, m, 1.0 / c, 0.0, -1.0, a.config.depth * a._den, -k0, a.config)


def nth_root(a: LCNumber, n: int) -> LCNumber:
    """The positive n-th root; exact on exponents, binomial series on the tail."""
    if n < 1:
        raise ValueError("root index must be a positive integer")
    if not a._pairs or a._pairs[0][1] <= 0:
        raise NegativeLeading(f"{n}-th root requires a positive leading coefficient")
    # On the lattice 1/(n*den) the root's leading exponent q/n is an integer.
    den = a._den * n
    (k0, c), tail = a._pairs[0], a._pairs[1:]
    m = [((k - k0) * n, x / c) for k, x in tail]
    root_c = math.sqrt(c) if n == 2 else c ** (1.0 / n)
    root = _recurrence(den, m, root_c, 1.0 / n + 1.0, -1.0, a.config.depth * den, k0, a.config)
    return _lc(*_reduced(den, root._pairs), a.config)


def sqrt(a: LCNumber) -> LCNumber:
    return nth_root(a, 2)


def compare(a: LCNumber, b: LCNumber) -> int:
    """Return LESS/EQUAL/GREATER; equality is coefficientwise within eq_tol.

    The order is the sign of the leading coefficient of the difference
    a - b.  Most pairs are decided by their leading terms alone, so those
    are read first, before the operands are brought to one lattice: when the
    leading difference exceeds eq_tol (>= zero_tol) it is the difference's
    leading kept order, and its sign is the answer.  Otherwise the whole
    difference is taken on the common lattice, without the max_terms cap
    that sub() applies, and its orders above zero_tol are sorted: the first
    gives the sign, and the pair is EQUAL unless some kept order within
    depth of it exceeds eq_tol.
    """
    config = _require_same_config(a, b)
    zt, tol = config.zero_tol, config.eq_tol
    pa, pb = a._pairs, b._pairs
    if pa and pb:
        (ka, ca), (kb, cb) = pa[0], pb[0]
        ka, kb = ka * b._den, kb * a._den
        d = ca if ka < kb else -cb if kb < ka else ca - cb
    else:
        d = pa[0][1] if pa else -pb[0][1] if pb else 0.0
    if (d if d >= 0 else -d) > tol:
        return GREATER if d > 0 else LESS
    den, pa, pb = _aligned(a, b)
    diff = dict(pa)
    for k, c in pb:
        diff[k] = diff.get(k, 0.0) - c
    kept = sorted((k, c) for k, c in diff.items() if abs(c) > zt)
    if kept and any(abs(c) > tol for k, c in kept if k <= kept[0][0] + config.depth * den):
        return GREATER if kept[0][1] > 0 else LESS
    return EQUAL


def project_reals(values: dict, reals: dict) -> "dict | None":
    """``reals`` extended with each of ``values`` as a float when every value
    is real (zero or a single exponent-0 term), else None.  The formula
    checker projects every binding this way for its float path."""
    for name, u in values.items():
        pairs = u._pairs
        if pairs and (len(pairs) > 1 or pairs[0][0] != 0):
            return None
        reals[name] = pairs[0][1] if pairs else 0.0
    return reals


def compare_real(x: float, y: float, config: FieldConfig = DEFAULT_CONFIG) -> int:
    """compare() for two exponent-0 values given as floats: EQUAL when they
    differ by at most eq_tol, else the sign of x - y."""
    d = x - y
    return EQUAL if abs(d) <= config.eq_tol else (GREATER if d > 0 else LESS)


def classify(u: LCNumber) -> Classification:
    if not u._pairs:
        return Classification.ZERO
    lead = u._pairs[0][0]
    if lead > 0:
        return Classification.INFINITESIMAL
    if lead < 0:
        return Classification.INFINITE
    if len(u._pairs) == 1:
        return Classification.APPRECIABLE
    return Classification.FINITE_WITH_INFINITESIMAL_PART


def standard_part(u: LCNumber) -> float:
    """The real number infinitely close to a finite u (its shadow)."""
    if not u._pairs:
        return 0.0
    k, c = u._pairs[0]
    if k < 0:
        raise NotFinite("standard part of an infinite element")
    return c if k == 0 else 0.0


def is_infinitely_close(a: LCNumber, b: LCNumber) -> bool:
    """True iff a - b is zero or infinitesimal."""
    diff = sub(a, b)
    return diff.is_zero or diff._pairs[0][0] > 0


def coefficient_norm(u: LCNumber) -> float:
    """Largest coefficient magnitude; 0.0 for the zero element."""
    return max([abs(c) for _, c in u._pairs], default=0.0)


# -- text and JSON rendering ------------------------------------------------


def _fmt_scalar(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _fmt_exponent(q) -> str:
    if q == 1:
        return "eps"
    if isinstance(q, int) and q > 1:
        return f"eps^{q}"
    return f"eps^({q})"


def format_lc(u: LCNumber) -> str:
    """Render as e.g. ``1 - 2*eps + 0.5*eps^(1/2)``; parse_lc inverts this."""
    if not u.terms:
        return "0"
    pieces = []
    for q, c in u.terms:
        mag = abs(c)
        if q == 0:
            body = _fmt_scalar(mag)
        elif mag == 1.0:
            body = _fmt_exponent(q)
        else:
            body = f"{_fmt_scalar(mag)}*{_fmt_exponent(q)}"
        pieces.append((c < 0, body))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def parse_lc(text: str, config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """Parse the text rendering of a field element: terms joined by '+' or
    '-', each read after its run of '-' signs (a joining '-' is the run's
    first).  A term is a number, 'eps' with an optional exponent, or both
    joined by '*'."""
    texts = scan(text)
    if not texts[0]:
        raise ParseError("empty series literal")
    terms, i = [], 0
    while tok := texts[i]:
        if terms and tok != "-":
            if tok != "+":
                raise ParseError(f"expected '+' or '-', got '{tok}'", *position(text, i))
            i += 1
        sign = 1.0
        while texts[i] == "-":
            sign, i = -sign, i + 1
        tok = texts[i]
        if tok == "eps":
            q, i = _parse_lc_exponent(text, texts, i + 1)
            terms.append((q, sign))
            continue
        if not "0" <= tok[:1] <= "9":
            raise ParseError(f"expected a term, got {describe(tok)}", *position(text, i))
        coef = sign * float(tok)
        if not math.isfinite(coef):
            raise ParseError(f"'{tok}' is not a finite number", *position(text, i))
        q, i = 0, i + 1
        if texts[i] == "*":
            if texts[i + 1] != "eps":
                raise ParseError(f"expected 'eps', got {describe(texts[i + 1])}", *position(text, i + 1))
            q, i = _parse_lc_exponent(text, texts, i + 2)
        terms.append((q, coef))
    return LCNumber(terms, config)


def _parse_lc_exponent(text: str, texts: list, i: int) -> tuple:
    """(the exponent of an 'eps' whose next token is i, the index after it):
    1 without a '^', else an integer or a ratio of integers, with an
    optional '-', in parentheses or not."""
    if texts[i] != "^":
        return 1, i
    grouped = texts[i + 1] == "("
    i += 1 + grouped
    sign = 1
    if texts[i] == "-":
        sign, i = -1, i + 1
    num = texts[i]
    if not "0" <= num[:1] <= "9":
        raise ParseError(f"expected an integer exponent, got {describe(num)}", *position(text, i))
    if not num.isdigit():
        raise ParseError(f"exponent parts must be integers, got '{num}'", *position(text, i))
    q, i = sign * int(num), i + 1
    if texts[i] == "/":
        den, i = texts[i + 1], i + 1
        if not "0" <= den[:1] <= "9":
            raise ParseError(f"expected an integer denominator, got {describe(den)}", *position(text, i))
        if not den.isdigit() or int(den) == 0:
            raise ParseError(f"bad exponent denominator '{den}'", *position(text, i))
        q, i = Fraction(q, int(den)), i + 1
    if grouped:
        if texts[i] != ")":
            raise ParseError(f"expected ')', got {describe(texts[i])}", *position(text, i))
        i += 1
    return q, i


def to_json(u: LCNumber) -> list:
    """JSON-ready form: a list of {"exp": "p/q", "coef": float} objects."""
    return [{"exp": str(Fraction(q)), "coef": c} for q, c in u.terms]


def from_json(data, config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    return LCNumber([(Fraction(item["exp"]), float(item["coef"])) for item in data], config)
