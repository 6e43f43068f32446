"""First-order formula DSL over field terms, with a randomized checker.

Formulas are prenex: a prefix of typed quantifiers over strata of the field
(reals, infinitesimals, finite or infinite elements, ...) and a
quantifier-free matrix of comparisons between terms.  The checker evaluates
them as a sampling game:

* each maximal block of universal quantifiers is instantiated jointly with
  stratified random draws (plus a deterministic set of coverage probes so
  every compatible stratum, and pairs such as (eps, 1/eps), always appear);
* each existential block runs a bounded witness search over distinguished
  candidates (0, 1, eps, eps^2, 1/eps, the values of already-bound siblings
  and their halves and squares) followed by random draws.

A "falsified" verdict always carries a concrete counterexample that
re-evaluates to false; a failed witness search is reported as inconclusive
("witness-not-found"), never as falsity.  Equality between terms means
coefficientwise agreement within the field's eq_tol, and the report records
the tolerance that was used.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from . import field
from .errors import BindingError, EvaluationError, LevicalcError, ParseError
from .expr import Expr, Var, _eval_hyper, _parse_at, eval_real, free_variables, render_expr
from .field import DEFAULT_CONFIG, Classification, FieldConfig, LCNumber
from .lexer import NAME_START, describe, position, scan

_KEYWORDS = {"forall", "exists", "and", "or", "not"}


@dataclass(frozen=True)
class Quantifier:
    kind: str  # "forall" | "exists"
    var: str
    stratum: str = "any"


@dataclass(frozen=True)
class Atom:
    op: str  # "<" | "<=" | "="
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Formula:
    prefix: tuple  # of Quantifier
    matrix: object


# -- parsing -----------------------------------------------------------------

# Precedence and keyword of each binary connective, read by the parser (as
# _JOINS), by _render_matrix and by _matrix_source: "=>" groups to the right,
# "or" and "and" to the left.  "not" binds at 4, above all of them.
_CONNECTIVES = {Implies: (1, "=>"), Or: (2, "or"), And: (3, "and")}
_JOINS = {word: (prec, node) for node, (prec, word) in _CONNECTIVES.items()}


def parse_formula(src: str) -> Formula:
    """A prenex formula: quantifiers ("forall" or "exists", a variable, an
    optional ": stratum") joined by "," and ended by ".", then the matrix."""
    texts = scan(src)
    prefix, i = [], 0
    while texts[i] in ("forall", "exists"):
        name = texts[i + 1]
        if name[:1] not in NAME_START:
            raise ParseError(f"expected a variable name, got {describe(name)}", *position(src, i + 1))
        if name in _KEYWORDS or name == "eps":
            raise ParseError(f"'{name}' cannot be a quantified variable", *position(src, i + 1))
        quantifier, stratum, i = texts[i], "any", i + 2
        if texts[i] == ":":
            stratum, at = texts[i + 1], i + 1
            if stratum[:1] not in NAME_START:
                raise ParseError(f"expected a stratum name, got {describe(stratum)}", *position(src, at))
            i += 2
            if stratum == "positive" and texts[i:i + 2] == ["-", "real"]:
                stratum, i = "positive-real", i + 2
            if stratum not in _STRATA:
                raise ParseError(f"unknown stratum '{stratum}'", *position(src, at))
        prefix.append(Quantifier(quantifier, name, stratum))
        tok = texts[i]
        if tok not in (",", "."):
            raise ParseError(f"expected ',' or '.' after quantifier, got '{tok or 'end of input'}'", *position(src, i))
        i += 1
        if tok == ".":
            break
    matrix, i = _parse_matrix(src, texts, i)
    if texts[i]:
        raise ParseError(f"unexpected trailing input '{texts[i]}'", *position(src, i))
    formula = Formula(tuple(prefix), matrix)
    _check_bindings(formula)
    return formula


def _parse_matrix(src: str, texts: list, i: int) -> tuple:
    """(the matrix at token i of src, the index of the token after it).

    Connectives by one precedence loop over _JOINS, as expressions by
    _INFIX: "=>" groups to the right, "or" and "and" to the left, and "not"
    takes the operand after it.  Pending work sits on an explicit stack: a
    connective's (left operand, node, precedence), Not, and "(" for a group."""
    stack = []
    while True:
        if texts[i] == "not":
            stack.append(Not)
            i += 1
            continue
        node, i = _parse_atomf(src, texts, i)
        if node is None:
            stack.append("(")
            continue
        while True:
            while stack and stack[-1] is Not:
                stack.pop()
                node = Not(node)
            prec, join = _JOINS.get(texts[i], (0, None))  # any other token: below every connective
            while stack and type(stack[-1]) is tuple and stack[-1][2] >= prec + (join is Implies):
                left, outer, _ = stack.pop()
                node = outer(left, node)
            if join is not None:
                stack.append((node, join, prec))
                i += 1
                break
            if not stack:
                return node, i
            if texts[i] != ")":
                raise ParseError(f"expected ')', got {describe(texts[i])}", *position(src, i))
            stack.pop()
            i += 1


def _parse_atomf(src: str, texts: list, i: int) -> tuple:
    """(a comparison, the index after it), or (None, the index after the "("
    of a parenthesized sub-formula).  Both can start with "(": the
    comparison is tried first, and on failure the "(" is read as a
    sub-formula's."""
    try:
        left, j = _parse_at(src, texts, i)
        op = texts[j]
        if op in ("<", "<=", "="):
            right, j = _parse_at(src, texts, j + 1)
            return Atom(op, left, right), j
        if texts[i] != "(":
            raise ParseError("expected a comparison operator after the term", *position(src, j))
    except ParseError:
        if texts[i] != "(":
            raise
    return None, i + 1


def _matrix_variables(node) -> set:
    names, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names |= free_variables(node.left) | free_variables(node.right)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Implies)):
            stack += (node.left, node.right)
        else:
            raise TypeError(f"not a matrix node: {node!r}")
    return names


def _check_bindings(formula: Formula) -> None:
    seen = set()
    for q in formula.prefix:
        if q.var in seen:
            raise BindingError(f"variable '{q.var}' is bound more than once")
        seen.add(q.var)
    unbound = _matrix_variables(formula.matrix) - seen - {"eps"}
    if unbound:
        name = sorted(unbound)[0]
        raise BindingError(f"variable '{name}' is not bound by any quantifier")


def render_formula(formula: Formula) -> str:
    parts = []
    for q in formula.prefix:
        piece = f"{q.kind} {q.var}"
        if q.stratum != "any":
            piece += f": {q.stratum}"
        parts.append(piece)
    head = ", ".join(parts) + ". " if parts else ""
    return head + _render_matrix(formula.matrix)


def _render_matrix(node, min_prec: int = 0) -> str:
    """Render with parentheses chosen so the output reparses to the same tree."""
    if isinstance(node, Atom):
        return f"{render_expr(node.left)} {node.op} {render_expr(node.right)}"
    if isinstance(node, Not):
        prec, out = 4, f"not {_render_matrix(node.operand, 4)}"
    else:
        prec, word = _CONNECTIVES[type(node)]
        to_right = isinstance(node, Implies)
        left, right = _render_matrix(node.left, prec + to_right), _render_matrix(node.right, prec + (not to_right))
        out = f"{left} {word} {right}"
    return f"({out})" if prec < min_prec else out


def parse_formula_file(text: str) -> list:
    """One formula per line; '#' starts a comment, blank lines are skipped.
    Returns a list of (line_number, source, Formula), the source stripped.
    A ParseError's column is the one in the file's line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        src = raw.split("#", 1)[0].rstrip()
        if not src:
            continue
        try:
            out.append((lineno, src.lstrip(), parse_formula(src)))
        except ParseError as e:
            raise ParseError(e.message, lineno, e.col) from None
        except BindingError as e:
            raise BindingError(f"line {lineno}: {e}") from None
    return out


# -- sampling -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Budgets and seed of the randomized checker.

    samples        draws per universal quantifier block
    witness_pool   random candidates per existential block (after the
                   distinguished ones)
    nested_samples draws for a universal block nested under an existential
                   one (witness verification budget)

    The three budgets must be integers of at least 1: a verdict needs
    evaluations, and the sampler counts them.  The seed must be an int, so
    that a report can be drawn again from the seed it records.
    """

    samples: int = 1000
    witness_pool: int = 200
    nested_samples: int = 60
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "witness_pool", "nested_samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


def _draw_coef(rand, bound: float, positive: bool, zero_tol: float) -> float:
    """Uniform on [-bound, bound] by ``uniform``'s formula on ``rand``, a
    generator's ``random``, drawn again until its magnitude is at least 0.05
    and above zero_tol, so that normalization keeps it as the lead and the
    value stays in its stratum."""
    while True:
        c = -bound + (bound + bound) * rand()
        m = abs(c)
        if m >= 0.05 and m > zero_tol:
            return m if positive else c


def _draw_real(config: FieldConfig, positive: bool, rng: random.Random) -> float:
    """A real draw's one coefficient, which is also its float projection."""
    return _draw_coef(rng.random, _SHAPES["real"][0], positive, config.zero_tol)


# The sampler's support, which is all that a "not-falsified" verdict
# covers.  Per shape: the half-width of its uniform lead range and the sign
# of its leading exponent (None: a real, with no tail; 0: a real part with
# infinitesimal terms).  Tail coefficients lie below min(|lead|, 1)/2, as
# O(1) series keep inverses and jets well conditioned, so identities are
# checked against eq_tol, not float-noise blowup.  Exponents are num/den,
# den <= _EXP_DEN_BOUND.  A composite stratum's shapes are equally likely.
_SHAPES = {"real": (10.0, None), "mixed": (10.0, 0), "infinitesimal": (2.0, 1), "infinite": (2.0, -1)}
_EXP_DEN_BOUND = 3

_C = Classification
# One row per stratum: the shapes its sampler picks from, the classifications
# it holds, and whether it holds only the values among them with a positive
# leading coefficient.
_Stratum = namedtuple("_Stratum", "shapes kinds positive")
_STRATA = {
    "real": _Stratum(("real",), {_C.ZERO, _C.APPRECIABLE}, False),
    "positive-real": _Stratum(("real",), {_C.APPRECIABLE}, True),
    "infinitesimal": _Stratum(("infinitesimal",), {_C.INFINITESIMAL}, False),
    "positive": _Stratum(("real", "infinitesimal", "infinite", "mixed"),
                         {_C.INFINITESIMAL, _C.APPRECIABLE, _C.FINITE_WITH_INFINITESIMAL_PART, _C.INFINITE}, True),
    "finite": _Stratum(("real", "infinitesimal", "mixed"),
                       {_C.ZERO, _C.INFINITESIMAL, _C.APPRECIABLE, _C.FINITE_WITH_INFINITESIMAL_PART}, False),
    "infinite": _Stratum(("infinite",), {_C.INFINITE}, False),
    "any": _Stratum(("real", "infinitesimal", "infinite", "mixed"), set(Classification), False),
}
STRATA = tuple(_STRATA)


def _stratum(name: str) -> _Stratum:
    row = _STRATA.get(name)
    if row is None:
        raise ValueError(f"unknown stratum '{name}'")
    return row


def _drawer(stratum: str, config: FieldConfig):
    """A function of the RNG that draws one element of ``stratum`` in one
    pass, straight from ``random()`` and ``getrandbits()`` as the stdlib
    calls would: a composite stratum's shape as ``shapes[int(random() * n)]``,
    the index ``random.choices`` with cumulative weights 1, 2, ..., n returns
    (``random.choice`` draws differently); a coefficient by ``uniform``'s
    formula; an integer below m by rejection on ``getrandbits(m.bit_length())``
    as ``randrange(m)``.  A series (the lead, its exponent unless sign 0, up
    to two higher orders) is built on the lattice 1/(den * lcm(1, ...,
    _EXP_DEN_BOUND)) and normalized there as LCNumber is.

    A lead is drawn again until it clears ``max(0.05, zero_tol)``, about
    ``bound / (bound - max(0.05, zero_tol))`` times on average, where
    ``bound`` is the lead range's half-width in _SHAPES.  So the sampler
    slows without limit as ``zero_tol`` approaches a bound, and a
    ``zero_tol`` at or past it raises ``ValueError`` here."""
    shapes, _, positive = _stratum(stratum)
    # A drawn lead must clear zero_tol; where its range cannot, the redraw
    # would never end.
    bound = min(_SHAPES[s][0] for s in shapes)
    if not bound > config.zero_tol:
        raise ValueError(f"zero_tol {config.zero_tol:g} leaves no leading coefficient in "
                         f"[-{bound:g}, {bound:g}] to draw for stratum '{stratum}'")
    rows, n, dens, lc, gcd = [_SHAPES[s] for s in shapes], len(shapes), _EXP_DEN_BOUND, field._lc, math.gcd
    zt, depth, max_terms, grid = config.zero_tol, config.depth, config.max_terms, math.lcm(*range(1, dens + 1))
    width, widths = dens.bit_length(), [(2 * d).bit_length() for d in range(dens + 1)]

    def draw(rng):
        random, bits = rng.random, rng.getrandbits
        bound, sign = rows[int(random() * n)] if n > 1 else rows[0]
        while True:
            lead = -bound + (bound + bound) * random()
            m = lead if lead >= 0 else -lead
            if m >= 0.05 and m > zt:
                break
        if positive:
            lead = m
        if sign is None:
            return lc(1, ((0, lead),), config)
        num, den = 0, 1
        if sign:
            while (den := bits(width) + 1) > dens:
                pass
            while (num := bits(widths[den])) >= 2 * den:
                pass
            num = sign * (num + 1)
        cap, lattice, k0 = 0.5 * min(m, 1.0), den * grid, num * grid
        while (count := bits(2)) > 2:
            pass
        pairs, g = [(k0, lead)], gcd(lattice, k0)
        if count:
            tail, last = {}, k0 + depth * lattice
            for _ in range(count):
                while (d := bits(width) + 1) > dens:
                    pass
                while (t := bits(widths[d])) >= 2 * d:
                    pass
                k = k0 + (t + 1) * (lattice // d)
                tail[k] = tail.get(k, 0.0) + (-cap + (cap + cap) * random())
            for k, c in sorted(tail.items()):
                if (c if c >= 0 else -c) > zt and k <= last and len(pairs) < max_terms:
                    pairs.append((k, c))
                    g = gcd(g, k)
        return lc(lattice // g, tuple(pairs) if g == 1 else tuple((k // g, c) for k, c in pairs), config)

    return draw


def sample(stratum: str, cfg: "SamplerConfig | None" = None, rng: "random.Random | None" = None,
           config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """Draw one stratified random field element."""
    cfg = cfg or SamplerConfig()
    return _drawer(stratum, config)(rng or random.Random(cfg.seed))


def stratum_contains(u: LCNumber, stratum: str) -> bool:
    _, kinds, positive = _stratum(stratum)
    return field.classify(u) in kinds and (not positive or u.leading_coefficient > 0)


def _coverage_values(stratum: str, config: FieldConfig) -> list:
    """Deterministic probes guaranteeing every compatible shape shows up."""
    one, e = field.one(config), field.eps(config)
    candidates = [field.zero(config), one, e, field.infinite(config), field.add(one, e), field.neg(one)]
    return [u for u in candidates if stratum_contains(u, stratum)]


# -- checking -----------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one randomized transfer check; reproducible from the seed."""

    verdict: str  # not-falsified | falsified | witness-found | witness-not-found
    samples_used: int
    seed: int
    eq_tol: float
    counterexample: "dict | None" = None
    witness: "dict | None" = None
    assignment: "dict | None" = None  # forall values behind an inconclusive search

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "eq_tol": self.eq_tol,
        }
        for key in ("counterexample", "witness", "assignment"):
            value = getattr(self, key)
            if value is not None:
                out[key] = {name: str(u) for name, u in value.items()}
        return out


def _bind(binding, eps_value) -> tuple:
    """The field binding with the eps literal bound, and the same binding
    projected to floats when every value is real (else None) for the cheap
    scalar path."""
    reals = field.project_reals(binding, {})
    if "eps" not in binding:
        binding = {**binding, "eps": eps_value}
    return binding, reals


def _compile(node, config: FieldConfig, inner=None, cache: bool = True):
    """The matrix as one predicate ``holds(outer, sample, outer_reals,
    reals, s0=None, s1=None)`` generated from _matrix_source: ``outer``
    binds eps and the outer blocks' variables, ``sample`` the innermost
    block's, each with its float projection (None unless every value is
    real).  Connectives short-circuit left to right; an atom without eps
    compares floats (``field.compare_real``) when both projections are
    given, field values (``field.compare``) otherwise.

    ``inner`` names the sample's variables; without it the predicate merges
    the two bindings at each call.  With it, a side reads the mapping that
    binds its variables (both merged only for a side that mixes them or a
    sample side with eps on the field path).  With ``cache`` too (a check
    with outer blocks) the caller passes two dicts, the outer scope s0 and
    the sample's scope s1, and the predicate keeps nothing between calls.
    A side in none of the sample's variables is kept in s0, which the loop
    makes anew under each new outer binding; one in sample variables alone
    in s1, shared by every witness candidate that replays the sample.
    Either is computed at its first read (so a guard still protects it),
    once per path, and sides that render alike share the entry.
    """
    source, values = _matrix_source(node, inner, cache)
    return _maker(source)(config, *values)


def _matrix_source(node, inner, cache: bool = True) -> tuple:
    """The source of ``make(config, v0, v1, ...)``, which returns the
    predicate, and the values of v0, v1, ...: Exprs, variable names and
    accepted orders.  No formula text enters the source, so one ``make``
    serves every matrix of its shape.  A cached side is kept in s0 (outer)
    or s1 (sample) under an index per rendering and path.  Every operand
    of a connective is parenthesized, so no precedence is tracked."""
    slots, kept = {}, {}  # a value's key -> (parameter, value); a cached side's -> (Expr, index)
    evaluate = {"reals": "eval_real({}, {})", "binding": "_eval_hyper({}, {}, config)"}
    # Per path: the outer mapping, the sample's, and the two merged.
    reads = {"reals": ("outer_reals", "reals", "{**outer_reals, **reals}"),
             "binding": ("outer", "sample", "{**outer, **sample}")}
    known, cache = (set(), False) if inner is None else (inner, cache)  # without inner, outer holds both

    def slot(value, key) -> str:
        return slots.setdefault(key, (f"v{len(slots)}", value))[0]

    def side(e: Expr, free: set, path: str) -> str:
        if inner is not None and type(e) is Var:
            return f"{reads[path][e.name in inner]}[{slot(e.name, ('name', e.name))}]"
        drawn, rest = free & known, free - known
        scope = 1 if drawn else 0
        mapping = reads[path][2 if drawn and rest else scope]
        if not cache or (drawn and not rest <= {"eps"}):
            return evaluate[path].format(slot(e, id(e)), mapping)
        e, key = kept.setdefault((render_expr(e), path), (e, len(kept)))
        compute, store = evaluate[path].format(slot(e, id(e)), mapping), f"s{scope}"
        return f"({store}[{key}] if {key} in {store} else {store}.setdefault({key}, {compute}))"

    def matrix(node, scalar_path: bool) -> str:
        if isinstance(node, Atom):
            accept = field.ACCEPTS.get(node.op)
            if accept is None:
                raise TypeError(f"not a comparison operator: {node.op!r}")
            left_vars, right_vars = free_variables(node.left), free_variables(node.right)
            path = "reals" if scalar_path and "eps" not in left_vars | right_vars else "binding"
            sides = f"{side(node.left, left_vars, path)}, {side(node.right, right_vars, path)}"
            order = f"field.compare_real({sides}, config)" if path == "reals" else f"field.compare({sides})"
            return f"{order} in {slot(accept, ('accept', node.op))}"
        if isinstance(node, Not):
            return f"not ({matrix(node.operand, scalar_path)})"
        if type(node) not in _CONNECTIVES:
            raise TypeError(f"not a matrix node: {node!r}")
        left, right = (f"({matrix(operand, scalar_path)})" for operand in (node.left, node.right))
        word = _CONNECTIVES[type(node)][1]
        return f"not {left} or {right}" if word == "=>" else f"{left} {word} {right}"

    on_fields, on_reals = matrix(node, False), matrix(node, True)
    body = on_fields if on_reals == on_fields else \
        f"{on_reals} if reals is not None and outer_reals is not None else {on_fields}"
    merge = "" if inner is not None else ("        outer, outer_reals = {**outer, **sample}, None if outer_reals "
                                          "is None or reals is None else {**outer_reals, **reals}\n")
    names, values = zip(*slots.values())  # every atom has a slot
    return (f"def make(config, {', '.join(names)}):\n"
            f"    def holds(outer, sample, outer_reals, reals, s0=None, s1=None):\n{merge}"
            f"        try:\n            return {body}\n        except LevicalcError as e:\n"
            "            raise _evaluation_error(e, {**outer, **sample}) from e\n    return holds\n"), values


@lru_cache(maxsize=256)
def _maker(source: str):
    """The ``make`` that source defines, compiled once per distinct source.
    Its globals are this module's, so a tracer or a test that replaces
    ``field.compare``, ``eval_real`` or ``_eval_hyper`` sees every call."""
    namespace = {}
    exec(compile(source, "<levicalc matrix>", "exec"), globals(), namespace)
    return namespace["make"]


def _evaluation_error(e: LevicalcError, binding) -> EvaluationError:
    rendered = ", ".join(f"{name} = {u}" for name, u in binding.items() if name != "eps")
    return EvaluationError(f"{type(e).__name__}: {e}" + (f" (at {rendered})" if rendered else ""))


def evaluate_matrix(node, binding: Mapping[str, LCNumber], config: FieldConfig = DEFAULT_CONFIG) -> bool:
    """Evaluate a quantifier-free matrix under a field-valued binding.

    Connectives short-circuit left to right, so guards like
    ``not (a = 0) => ...`` protect the terms they dominate.  An int or float
    value is taken as the real ``LCNumber.from_real(value, config)``; any
    other value that is not an LCNumber raises TypeError.
    """
    for name, u in binding.items():
        if not isinstance(u, (LCNumber, int, float)):
            raise TypeError(f"variable '{name}' is bound to a {type(u).__name__}, not a number")
    values = {name: u if isinstance(u, LCNumber) else LCNumber.from_real(u, config) for name, u in binding.items()}
    return _compile(node, config)({"eps": field.eps(config)}, values, {}, field.project_reals(values, {}))


def _blocks(prefix):
    return [(kind, list(group)) for kind, group in itertools.groupby(prefix, key=lambda q: q.kind)]


class _Game:
    """What one check sets up once: the quantifier blocks, the compiled
    matrix, each stratum's drawer and the RNG, the eps binding and each
    stratum's coverage probes.  ``evaluations`` counts matrix evaluations."""

    __slots__ = ("blocks", "holds", "rng", "draw", "cfg", "config", "eps", "probes", "evaluations")

    def __init__(self, formula: Formula, cfg: SamplerConfig, config: FieldConfig):
        self.blocks = _blocks(formula.prefix)
        inner = {q.var for q in self.blocks[-1][1]} if self.blocks else set()
        self.holds = _compile(formula.matrix, config, inner, len(self.blocks) > 1)
        self.rng = random.Random(cfg.seed)
        self.draw = {q.stratum: _drawer(q.stratum, config) for q in formula.prefix}
        self.cfg, self.config = cfg, config
        self.eps = field.eps(config)
        self.probes = {q.stratum: _coverage_values(q.stratum, config) for q in formula.prefix}
        self.evaluations = 0


def _forall_assignments(quants, n, game: _Game, project: bool):
    """Coverage probes (a deterministic product over per-variable probe lists,
    capped at half the budget) followed by joint random draws, n in total.
    Each assignment comes with its float projection (``project_reals``,
    None unless every value is real; made once when it is drawn, and only
    if ``project``, else None) and a scope of its own for the cached sides.
    A one-variable block of a real stratum projects to the float its draw
    gives back instead."""
    names = [q.var for q in quants]
    produced = 0
    for combo in itertools.islice(itertools.product(*[game.probes[q.stratum] for q in quants]),
                                  max(1, n // 2)):
        assignment = dict(zip(names, combo))
        yield assignment, field.project_reals(assignment, {}) if project else None, {}
        produced += 1
    rng, row = game.rng, _STRATA[quants[0].stratum]
    if project and len(quants) == 1 and row.shapes == ("real",):
        name, config, positive, draw, lift = names[0], game.config, row.positive, _draw_real, LCNumber.from_real
        for _ in range(n - produced):
            x = draw(config, positive, rng)
            yield {name: lift(x, config)}, {name: x}, {}
        return
    draws = [(q.var, game.draw[q.stratum]) for q in quants]
    for _ in range(n - produced):
        assignment = {name: draw(rng) for name, draw in draws}
        yield assignment, field.project_reals(assignment, {}) if project else None, {}


def _witness_candidates(quant, binding, game: _Game):
    config, e = game.config, game.eps
    distinguished = []
    for u in binding.values():
        half = field.mul(u, field.LCNumber.from_real(0.5, config))
        distinguished.extend([u, half, field.mul(u, u)])
    distinguished.extend([field.zero(config), field.one(config), e, field.mul(e, e), field.infinite(config)])
    seen = set()
    for u in distinguished:
        if stratum_contains(u, quant.stratum) and u.terms not in seen:
            seen.add(u.terms)
            yield u
    draw, rng = game.draw[quant.stratum], game.rng
    for _ in range(game.cfg.witness_pool):
        yield draw(rng)


def _diagonals(streams, sizes):
    """Tuples of one candidate from each stream by increasing sum of their
    ranks (Cantor diagonals), lexicographic within a sum, so that a budget
    cut short still takes every variable past its first candidates.  Stream
    i gives its first sizes[i] candidates, each drawn when the first
    diagonal that needs it begins."""
    pools = [[] for _ in streams]
    for total in range(sum(sizes) - len(sizes) + 1):
        for pool, stream, size in zip(pools, streams, sizes):
            if total < size:
                pool.append(next(stream))
        yield from _with_sum(pools, total)


def _with_sum(pools, total):
    if len(pools) == 1:
        return [(pools[0][total],)] if total < len(pools[0]) else []
    return [(u, *rest) for i, u in enumerate(pools[0][:total + 1]) for rest in _with_sum(pools[1:], total - i)]


def _eval_blocks(game: _Game, blocks, binding, batch=None):
    """Recursive game evaluation.  Returns (truth, info) where info carries
    the interesting assignment: a counterexample path for a failing forall,
    or the witness values for a succeeding exists.

    Both kinds of block walk a stream of (assignment, reals, scope) triples
    (the assignment, its float projection and its scope; only the innermost
    block reads the projection, so only it makes one) and stop at the
    first whose truth is the block's deciding value: true for an exists,
    false for a forall.  ``batch`` is the list an existential entry gives
    the universal block under it, so that every witness candidate is
    verified against the same drawn forall batch, and the projections and
    the sides cached per sample are computed once.  A universal block draws
    ``samples`` assignments at the root and ``nested_samples`` under an
    existential block; blocks alternate in kind, so it is nested exactly
    when its parent gave it a ``batch``.  A block with no variables (a
    formula without quantifiers) has one assignment, the empty one.
    """
    (kind, quants), rest = blocks[0], blocks[1:]
    exists, project = kind == "exists", not rest
    if exists:
        # Candidates per variable, first distinguished then random, walked
        # jointly by rank sum within pool * len(quants) tries; each is drawn
        # at first use, since most searches succeed within the first few.
        names = [q.var for q in quants]
        pool = game.cfg.witness_pool
        streams = [_witness_candidates(q, binding, game) for q in quants]
        combos = itertools.islice(_diagonals(streams, [pool] * len(quants)), pool * len(quants))
        assignments = (dict(zip(names, combo)) for combo in combos)
        triples = ((a, field.project_reals(a, {}) if project else None, {}) for a in assignments)
    elif not quants:  # a formula without quantifiers
        triples = [({}, {}, {})]
    else:
        n = game.cfg.nested_samples if batch is not None else game.cfg.samples
        triples = _forall_assignments(quants, n, game, project)
        if batch is not None:
            if not batch:
                batch.extend(triples)
            triples = batch
    if rest:
        replayed = [] if exists else None  # the batch every witness candidate replays
        for assignment, _, _ in triples:
            truth, info = _eval_blocks(game, rest, {**binding, **assignment}, replayed)
            if truth == exists:
                return truth, {**assignment, **info}
        return not exists, {}
    # The innermost block runs the matrix itself.  A new outer binding, so
    # a new outer scope, and its eps entry and float projection are built
    # once for the whole loop; each sample is passed beside it, unmerged.
    # ``binding`` itself stays free of eps, since the witness candidates are
    # drawn from its values.
    outer, outer_reals = _bind(binding, game.eps)
    outer_scope, holds = {}, game.holds
    for assignment, reals, scope in triples:
        game.evaluations += 1
        if holds(outer, assignment, outer_reals, reals, outer_scope, scope) == exists:
            return exists, dict(assignment)
    return not exists, {}


def check(formula: Formula, cfg: "SamplerConfig | None" = None,
          config: FieldConfig = DEFAULT_CONFIG) -> CheckReport:
    """Randomized falsification run over stratified samples.

    The verdict vocabulary is deliberately modest: universally quantified
    statements come back "not-falsified" or "falsified" (with a verified
    counterexample), existentially rooted ones "witness-found" or
    "witness-not-found".  A failed witness search below universal
    quantifiers is inconclusive and also reports "witness-not-found".
    """
    cfg = cfg or SamplerConfig()
    game = _Game(formula, cfg, config)
    blocks = game.blocks
    truth, info = _eval_blocks(game, blocks or [("forall", [])], {})

    has_exists = any(kind == "exists" for kind, _ in blocks)
    root_exists = bool(blocks) and blocks[0][0] == "exists"
    report = CheckReport("not-falsified", game.evaluations, cfg.seed, config.eq_tol)
    if truth:
        if root_exists:
            report.verdict = "witness-found"
            report.witness = info
    else:
        if has_exists:
            report.verdict = "witness-not-found"
            if info:
                report.assignment = info
        else:
            report.verdict = "falsified"
            report.counterexample = info
    return report
