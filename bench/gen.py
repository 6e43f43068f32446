"""Seeded inputs for the benchmark, and references computed without levicalc.

Expressions are trees of tuples::

    ("x",)  ("c", value)  ("add"|"sub"|"mul"|"div", a, b)  ("pow", a, k)
    ("neg", a)  ("call", name, a)

Every tree stays inside each primitive's open domain for every real, and every
finite field, argument: ``log`` and ``sqrt`` only ever see ``c + u^2`` with
``c > 0``, and division is only by ``c + u^2``.  A tree is rendered to source
text for levicalc, and evaluated here with ``math`` (scalars), numpy (grids)
or truncated Taylor jets of floats (derivatives), so every reference is
independent of the code under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

X = ("x",)
PRIMITIVES = ("sin", "cos", "exp", "log", "sqrt")
_TERM_KINDS = ("sin", "cos", "exp", "log", "sqrt", "recip", "poly")


def rng_for(*parts) -> random.Random:
    """A generator fixed by its parts, e.g. ``rng_for(seed, "jets", pass_no)``."""
    return random.Random("/".join(str(p) for p in parts))


def num(rng, lo, hi, floor=0.0):
    """A 3-decimal constant in [lo, hi] whose magnitude is at least ``floor``."""
    while True:
        v = round(rng.uniform(lo, hi), 3)
        if abs(v) >= floor:
            return v


def _c(v):
    return ("c", v)


def _positive_square(rng, u):
    return ("add", _c(num(rng, 0.5, 2.0)), ("pow", u, 2))


def _linear(rng):
    return ("add", ("mul", _c(num(rng, -2.0, 2.0, 0.5)), X), _c(num(rng, -1.0, 1.0)))


def _term(rng, nest):
    """One smooth factor; with probability 0.4 (while ``nest`` allows) its
    argument is itself a factor, so compositions show up."""
    u = _term(rng, nest - 1) if nest > 0 and rng.random() < 0.4 else _linear(rng)
    kind = rng.choice(_TERM_KINDS)
    if kind in ("sin", "cos"):
        return ("call", kind, u)
    if kind == "exp":
        return ("call", "exp", ("mul", _c(num(rng, -0.8, 0.8, 0.1)), u))
    if kind in ("log", "sqrt"):
        return ("call", kind, _positive_square(rng, u))
    if kind == "recip":
        return ("div", _c(num(rng, -2.0, 2.0, 0.5)), _positive_square(rng, u))
    return ("pow", u, rng.choice((2, 3)))


def gen_expr(rng, terms=3, nest=1):
    """``terms`` factors joined by +, - or *."""
    e = _term(rng, nest)
    for _ in range(terms - 1):
        e = (rng.choice(("add", "sub", "mul")), e, _term(rng, nest))
    return e


_OPS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def render(e) -> str:
    """Fully parenthesized source text in levicalc's expression syntax."""
    tag = e[0]
    if tag == "x":
        return "x"
    if tag == "c":
        return f"{e[1]:.3f}" if e[1] >= 0 else f"(-{-e[1]:.3f})"
    if tag in _OPS:
        return f"({render(e[1])} {_OPS[tag]} {render(e[2])})"
    if tag == "pow":
        base = render(e[1])
        return f"({base})^{e[2]}" if e[1][0] == "pow" else f"{base}^{e[2]}"
    if tag == "neg":
        return f"(-{render(e[1])})"
    return f"{e[1]}({render(e[2])})"


# -- scalar and grid references ------------------------------------------------

_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt}


def evaluate(e, x, funcs=_MATH):
    """Evaluate at a float (``funcs=_MATH``) or an ndarray (``funcs=_NUMPY``)."""
    tag = e[0]
    if tag == "x":
        return x
    if tag == "c":
        return e[1]
    if tag == "add":
        return evaluate(e[1], x, funcs) + evaluate(e[2], x, funcs)
    if tag == "sub":
        return evaluate(e[1], x, funcs) - evaluate(e[2], x, funcs)
    if tag == "mul":
        return evaluate(e[1], x, funcs) * evaluate(e[2], x, funcs)
    if tag == "div":
        return evaluate(e[1], x, funcs) / evaluate(e[2], x, funcs)
    if tag == "pow":
        return evaluate(e[1], x, funcs) ** e[2]
    if tag == "neg":
        return -evaluate(e[1], x, funcs)
    return funcs[e[1]](evaluate(e[2], x, funcs))


def evaluate_grid(e, xs):
    return np.broadcast_to(np.asarray(evaluate(e, xs, _NUMPY), dtype=float), xs.shape)


def simpson(e, a, b, panels=2000):
    """Composite Simpson's rule with an even number of panels."""
    xs = np.linspace(a, b, panels + 1)
    ys = evaluate_grid(e, xs)
    h = (b - a) / panels
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def dense_max(e, a, b, points=4001) -> float:
    return float(np.max(evaluate_grid(e, np.linspace(a, b, points))))


# -- truncated Taylor jets of floats ---------------------------------------------
# A jet is the list [f(x0), f'(x0), f''(x0)/2!, ...] of Taylor coefficients.


def _jmul(a, b):
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def _jdiv(a, b):
    out = []
    for k in range(len(a)):
        out.append((a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))) / b[0])
    return out


def _jexp(a):
    out = [math.exp(a[0])]
    for k in range(1, len(a)):
        out.append(sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def _jlog(a):
    out = [math.log(a[0])]
    for k in range(1, len(a)):
        out.append((a[k] - sum(j * out[j] * a[k - j] for j in range(1, k)) / k) / a[0])
    return out


def _jsqrt(a):
    out = [math.sqrt(a[0])]
    for k in range(1, len(a)):
        out.append((a[k] - sum(out[j] * out[k - j] for j in range(1, k))) / (2 * out[0]))
    return out


def _jsincos(a):
    s, c = [math.sin(a[0])], [math.cos(a[0])]
    for k in range(1, len(a)):
        s.append(sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k)
    return s, c


def jet(e, x0: float, order: int) -> list:
    """Taylor coefficients of the tree at x0, up to ``order``."""
    tag = e[0]
    if tag == "x":
        return [x0, 1.0] + [0.0] * (order - 1)
    if tag == "c":
        return [e[1]] + [0.0] * order
    if tag == "neg":
        return [-v for v in jet(e[1], x0, order)]
    if tag == "pow":
        base = jet(e[1], x0, order)
        out = [1.0] + [0.0] * order
        for _ in range(abs(e[2])):
            out = _jmul(out, base)
        return out if e[2] >= 0 else _jdiv([1.0] + [0.0] * order, out)
    if tag == "call":
        a = jet(e[2], x0, order)
        if e[1] in ("sin", "cos"):
            s, c = _jsincos(a)
            return s if e[1] == "sin" else c
        return {"exp": _jexp, "log": _jlog, "sqrt": _jsqrt}[e[1]](a)
    a, b = jet(e[1], x0, order), jet(e[2], x0, order)
    if tag == "add":
        return [p + q for p, q in zip(a, b)]
    if tag == "sub":
        return [p - q for p, q in zip(a, b)]
    if tag == "mul":
        return _jmul(a, b)
    return _jdiv(a, b)


def derivative(e, x0: float, order: int) -> float:
    return jet(e, x0, order)[order] * math.factorial(order)


# -- field elements as data ------------------------------------------------------


def series_at(terms, delta: float) -> float:
    """A series ``sum c_q eps^q`` with the infinitesimal replaced by a small real."""
    return sum(c * delta ** float(q) for q, c in terms)


def json_terms(data) -> list:
    """levicalc's JSON series form, as (exponent, coefficient) pairs."""
    return [(Fraction(item["exp"]), float(item["coef"])) for item in data]


def hyper_point(rng, den: int):
    """A finite point ``x0 + a*eps^(1/den) + b*eps`` with its source text."""
    x0 = num(rng, -1.0, 1.0)
    a = num(rng, -1.0, 1.0, 0.2)
    b = num(rng, -1.0, 1.0, 0.2)
    terms = [(Fraction(0), x0), (Fraction(1, den), a), (Fraction(1), b)]
    text = f"{x0} {'+' if a >= 0 else '-'} {abs(a)}*eps^(1/{den}) {'+' if b >= 0 else '-'} {abs(b)}*eps"
    return terms, text
