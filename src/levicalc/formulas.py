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
import random
from dataclasses import dataclass
from functools import partial
from typing import Mapping

from . import field
from .errors import BindingError, EvaluationError, LevicalcError, ParseError
from .expr import Expr, Var, _eval_hyper, eval_real, free_variables, parse_expr_tokens, render_expr
from .field import DEFAULT_CONFIG, Classification, FieldConfig, LCNumber
from .lexer import TokenStream, tokenize

STRATA = ("real", "positive-real", "infinitesimal", "positive", "finite", "infinite", "any")

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
# _JOINS) and by _render_matrix: "=>" groups to the right, "or" and "and" to
# the left.  "not" binds at 4, above all of them.
_CONNECTIVES = {Implies: (1, "=>"), Or: (2, "or"), And: (3, "and")}
_JOINS = {word: (prec, node) for node, (prec, word) in _CONNECTIVES.items()}


def parse_formula(src: str) -> Formula:
    stream = TokenStream(tokenize(src))
    formula = _parse_formula(stream)
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.line, tok.col)
    _check_bindings(formula)
    return formula


def _parse_formula(stream: TokenStream) -> Formula:
    prefix = []
    while stream.peek().kind == "ident" and stream.peek().text in ("forall", "exists"):
        prefix.append(_parse_quantifier(stream))
        tok = stream.next()
        if tok.kind == ",":
            continue
        if tok.kind == ".":
            break
        raise ParseError(f"expected ',' or '.' after quantifier, got '{tok.text or 'end of input'}'",
                         tok.line, tok.col)
    return Formula(tuple(prefix), _parse_matrix(stream))


def _parse_quantifier(stream: TokenStream) -> Quantifier:
    kind = stream.next().text
    name = stream.expect("ident", "a variable name")
    if name.text in _KEYWORDS or name.text == "eps":
        raise ParseError(f"'{name.text}' cannot be a quantified variable", name.line, name.col)
    stratum = "any"
    if stream.match(":"):
        stratum = _parse_stratum(stream)
    return Quantifier(kind, name.text, stratum)


def _parse_stratum(stream: TokenStream) -> str:
    tok = stream.expect("ident", "a stratum name")
    name = tok.text
    if name == "positive" and [t.text for t in stream.tokens[stream.pos:stream.pos + 2]] == ["-", "real"]:
        stream.pos += 2
        name = "positive-real"
    if name not in STRATA:
        raise ParseError(f"unknown stratum '{name}'", tok.line, tok.col)
    return name


def _parse_matrix(stream: TokenStream, min_prec: int = 1):
    """Connectives by precedence climbing over _JOINS: "=>" groups to the
    right, so its right operand is parsed at its own precedence; "or" and
    "and" group to the left and parse it one level up."""
    node = _parse_atomf(stream)
    while True:
        prec, join = _JOINS.get(stream.peek().text, (0, None))
        if prec < min_prec:
            return node
        stream.next()
        node = join(node, _parse_matrix(stream, prec + (join is not Implies)))


def _parse_atomf(stream: TokenStream):
    tok = stream.peek()
    if tok.kind == "ident" and tok.text == "not":
        stream.next()
        return Not(_parse_atomf(stream))
    # A comparison and a parenthesized sub-formula can both start with "(";
    # try the comparison first and fall back on failure.
    save = stream.pos
    try:
        left = parse_expr_tokens(stream)
        op_tok = stream.peek()
        if op_tok.kind in ("<", "<=", "="):
            stream.next()
            right = parse_expr_tokens(stream)
            return Atom(op_tok.kind, left, right)
        if tok.kind != "(":
            raise ParseError("expected a comparison operator after the term",
                             op_tok.line, op_tok.col)
    except ParseError:
        if tok.kind != "(":
            raise
    stream.pos = save
    stream.expect("(")
    node = _parse_matrix(stream)
    stream.expect(")")
    return node


def _matrix_variables(node) -> set:
    if isinstance(node, Atom):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Not):
        return _matrix_variables(node.operand)
    if isinstance(node, (And, Or, Implies)):
        return _matrix_variables(node.left) | _matrix_variables(node.right)
    raise TypeError(f"not a matrix node: {node!r}")


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
    Returns a list of (line_number, source, Formula)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        src = raw.split("#", 1)[0].strip()
        if not src:
            continue
        try:
            out.append((lineno, src, parse_formula(src)))
        except ParseError as e:
            raise ParseError(str(e).split(": ", 1)[-1], lineno, e.col) from None
        except BindingError as e:
            raise BindingError(f"line {lineno}: {e}") from None
    return out


# -- sampling -----------------------------------------------------------------


# The sampling distribution: the range of exponent-0 (real-part)
# coefficients; the magnitude bound for the leading coefficient of drawn
# infinitesimal and infinite elements, whose tail coefficients are further
# damped below min(|lead|, 1)/2 (keeping series coefficients O(1) keeps
# inverses and function jets well conditioned, so identities are checked
# against eq_tol rather than against float-noise blowup); and the largest
# denominator of drawn exponents.  The shapes of a composite stratum are
# equally likely.
_COEF_RANGE = (-10.0, 10.0)
_SERIES_BOUND = 2.0
_EXP_DEN_BOUND = 3


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Budgets and seed of the randomized checker.

    samples        draws per universal quantifier block
    witness_pool   random candidates per existential block (after the
                   distinguished ones)
    nested_samples draws for a universal block nested under an existential
                   one (witness verification budget)

    The three budgets must be at least 1: a verdict needs evaluations.
    """

    samples: int = 1000
    witness_pool: int = 200
    nested_samples: int = 60
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "witness_pool", "nested_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _below(bits, n: int) -> int:
    """A uniform integer in [0, n) by rejection on ``bits``, a generator's
    ``getrandbits``: the algorithm of ``randrange(n)``, so it makes the same
    draws and leaves the generator in the same state."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _draw_coef(rand, lo: float, hi: float, positive: bool) -> float:
    """Uniform on [lo, hi] by ``uniform``'s formula on ``rand``, a
    generator's ``random``, drawn again until its magnitude is at least 0.05."""
    while True:
        c = lo + (hi - lo) * rand()
        if abs(c) >= 0.05:
            return abs(c) if positive else c


def _draw_exponent(bits) -> tuple:
    """A positive exponent num/den, den <= _EXP_DEN_BOUND, as (num, den)."""
    den = 1 + _below(bits, _EXP_DEN_BOUND)
    return _below(bits, 2 * den) + 1, den


def _draw_terms(rng, lead_exp, lead, config):
    """The series with leading order lead_exp = (num, den) and coefficient
    lead, plus up to two drawn higher orders, built on the integer lattice
    1/(den * lcm of the drawn denominators) and normalized as LCNumber is."""
    lead_num, lead_den = lead_exp
    bits = rng.getrandbits
    cap = 0.5 * min(abs(lead), 1.0)
    tail = [(_draw_exponent(bits), -cap + (cap + cap) * rng.random())  # uniform(-cap, cap)
            for _ in range(_below(bits, 3))]
    step = math.lcm(*[den for (_, den), _ in tail])
    den, k0 = lead_den * step, lead_num * step
    acc = {k0: lead}
    for (num, d), c in tail:
        k = k0 + num * lead_den * (step // d)
        acc[k] = acc.get(k, 0.0) + c
    return field.from_lattice(den, acc, config)


def _sample_shape(shape: str, rng: random.Random, config: FieldConfig, positive: bool) -> LCNumber:
    if shape == "real":
        return LCNumber.from_real(_draw_coef(rng.random, *_COEF_RANGE, positive), config)
    if shape == "infinitesimal":
        lead = _draw_coef(rng.random, -_SERIES_BOUND, _SERIES_BOUND, positive)
        return _draw_terms(rng, _draw_exponent(rng.getrandbits), lead, config)
    if shape == "infinite":
        lead = _draw_coef(rng.random, -_SERIES_BOUND, _SERIES_BOUND, positive)
        num, den = _draw_exponent(rng.getrandbits)
        return _draw_terms(rng, (-num, den), lead, config)
    if shape == "mixed":
        return _draw_terms(rng, (0, 1), _draw_coef(rng.random, *_COEF_RANGE, positive), config)
    raise ValueError(f"unknown shape '{shape}'")


_STRATUM_SHAPES = {
    "real": ("real",),
    "positive-real": ("real",),
    "infinitesimal": ("infinitesimal",),
    "infinite": ("infinite",),
    "finite": ("real", "infinitesimal", "mixed"),
    "positive": ("real", "infinitesimal", "infinite", "mixed"),
    "any": ("real", "infinitesimal", "infinite", "mixed"),
}


_C = Classification
# The classifications each stratum holds; a stratum in _POSITIVE holds only
# the values among them with a positive leading coefficient.
_STRATUM_KINDS = {
    "real": {_C.ZERO, _C.APPRECIABLE},
    "positive-real": {_C.APPRECIABLE},
    "infinitesimal": {_C.INFINITESIMAL},
    "infinite": {_C.INFINITE},
    "finite": {_C.ZERO, _C.INFINITESIMAL, _C.APPRECIABLE, _C.FINITE_WITH_INFINITESIMAL_PART},
    "positive": {_C.INFINITESIMAL, _C.APPRECIABLE, _C.FINITE_WITH_INFINITESIMAL_PART, _C.INFINITE},
    "any": set(Classification),
}
_POSITIVE = {"positive", "positive-real"}


def _drawer(stratum: str, config: FieldConfig):
    """A function of the RNG that draws one element of ``stratum``, with the
    stratum's shapes and sign resolved once.  A composite stratum picks its
    shape as ``shapes[int(random() * n)]``, the index that ``random.choices``
    with cumulative weights 1, 2, ..., n returns from the same one draw
    (``random.choice`` draws differently)."""
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum '{stratum}'")
    shapes = _STRATUM_SHAPES[stratum]
    positive = stratum in _POSITIVE
    if len(shapes) == 1:
        return partial(_sample_shape, shapes[0], config=config, positive=positive)
    n = len(shapes)
    return lambda rng: _sample_shape(shapes[int(rng.random() * n)], rng, config, positive)


def sample(stratum: str, cfg: "SamplerConfig | None" = None, rng: "random.Random | None" = None,
           config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """Draw one stratified random field element."""
    cfg = cfg or SamplerConfig()
    return _drawer(stratum, config)(rng or random.Random(cfg.seed))


def stratum_contains(u: LCNumber, stratum: str) -> bool:
    kinds = _STRATUM_KINDS.get(stratum)
    if kinds is None:
        raise ValueError(f"unknown stratum '{stratum}'")
    return field.classify(u) in kinds and (stratum not in _POSITIVE or u.leading_coefficient > 0)


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


_UNSET = object()  # a cached side not yet computed in its scope
_REALS = object()  # a sample's own float projection, kept in its scope


def _bind(binding, eps_value) -> tuple:
    """The field binding with the eps literal bound, and the same binding
    projected to floats when every value is real (else None) for the cheap
    scalar path."""
    reals = field.project_reals(binding, {})
    if "eps" not in binding:
        binding = {**binding, "eps": eps_value}
    return binding, reals


def _compile(node, config: FieldConfig, inner=None, scopes=None, sides=None):
    """The matrix as one predicate of (binding, reals), resolved once: each
    connective becomes a closure over its compiled operands, and each atom
    knows up front its accepted orders and whether a side uses eps.
    Connectives short-circuit left to right.

    ``inner`` names the variables of a check's innermost block when outer
    blocks bind the rest; ``scopes`` is then [outer scope, sample scope].
    An atom side in none of the innermost variables is kept in the outer
    scope, which the loop empties when it starts under a new outer binding;
    one in innermost variables alone is kept in its drawn sample's scope,
    shared by every witness candidate that replays the sample.  Either is
    computed at its first read (so a guard still protects it), once per
    path, float or field, and sides that render alike share the entry
    (``sides``).  A bare-variable side is read from the binding.
    """
    if sides is None:
        sides = {}
    if isinstance(node, Atom):
        return _compile_atom(node, config, inner, scopes, sides)
    if isinstance(node, Not):
        operand = _compile(node.operand, config, inner, scopes, sides)
        return lambda binding, reals: not operand(binding, reals)
    if isinstance(node, (And, Or, Implies)):
        left = _compile(node.left, config, inner, scopes, sides)
        right = _compile(node.right, config, inner, scopes, sides)
        if isinstance(node, And):
            return lambda binding, reals: left(binding, reals) and right(binding, reals)
        if isinstance(node, Or):
            return lambda binding, reals: left(binding, reals) or right(binding, reals)
        return lambda binding, reals: not left(binding, reals) or right(binding, reals)
    raise TypeError(f"not a matrix node: {node!r}")


def _compile_atom(atom: Atom, config: FieldConfig, inner, scopes, sides):
    accept = field.ACCEPTS.get(atom.op)
    if accept is None:
        raise TypeError(f"not a comparison operator: {atom.op!r}")
    left_vars, right_vars = free_variables(atom.left), free_variables(atom.right)
    scalar = "eps" not in left_vars | right_vars
    left_real, left_field = _side(atom.left, left_vars, config, inner, scopes, sides)
    right_real, right_field = _side(atom.right, right_vars, config, inner, scopes, sides)

    def holds(binding, reals) -> bool:
        try:
            if scalar and reals is not None:
                order = field.compare_real(left_real(reals), right_real(reals), config)
            else:
                order = field.compare(left_field(binding), right_field(binding))
        except LevicalcError as e:
            raise _evaluation_error(e, binding) from e
        return order in accept

    return holds


def _side(e: Expr, free: set, config: FieldConfig, inner, scopes, sides) -> tuple:
    """The (float, field) readers of one side of an atom: read from the
    binding, cached in the scope its variables allow, or evaluated."""
    if inner is not None and type(e) is Var:
        name = e.name
        return (lambda reals: reals[name]), (lambda binding: binding[name])
    real, hyper = partial(eval_real, e), partial(_eval_hyper, e, config=config)
    scope = 1 if inner and free & inner else 0
    if inner is None or (scope and not free - inner <= {"eps"}):
        return real, hyper
    key = render_expr(e)
    if key not in sides:
        sides[key] = _cached(real, scopes, scope), _cached(hyper, scopes, scope)
    return sides[key]


def _cached(compute, scopes, scope: int):
    """compute, run at the first read in ``scopes[scope]`` (so a guard still
    protects it and an error is raised where it was), keyed there by
    compute itself."""

    def read(values):
        kept = scopes[scope]
        value = kept.get(compute, _UNSET)
        if value is _UNSET:
            value = kept[compute] = compute(values)
        return value

    return read


def _evaluation_error(e: LevicalcError, binding) -> EvaluationError:
    rendered = ", ".join(f"{name} = {u}" for name, u in binding.items() if name != "eps")
    return EvaluationError(f"{type(e).__name__}: {e} (at {rendered})")


def evaluate_matrix(node, binding: Mapping[str, LCNumber], config: FieldConfig = DEFAULT_CONFIG) -> bool:
    """Evaluate a quantifier-free matrix under a field-valued binding.

    Connectives short-circuit left to right, so guards like
    ``not (a = 0) => ...`` protect the terms they dominate.
    """
    return _compile(node, config)(*_bind(dict(binding), field.eps(config)))


def _blocks(prefix):
    return [(kind, list(group)) for kind, group in itertools.groupby(prefix, key=lambda q: q.kind)]


class _Game:
    """What one check sets up once: the quantifier blocks, the compiled
    matrix and the scopes of its cached sides, each stratum's drawer and
    the RNG, the eps binding and each stratum's coverage probes.
    ``evaluations`` counts matrix evaluations."""

    __slots__ = ("blocks", "holds", "scopes", "rng", "draw", "cfg", "config", "eps", "probes", "evaluations")

    def __init__(self, formula: Formula, cfg: SamplerConfig, config: FieldConfig):
        self.blocks = _blocks(formula.prefix)
        inner = {q.var for q in self.blocks[-1][1]} if len(self.blocks) > 1 else None
        self.scopes = [{}, {}]
        self.holds = _compile(formula.matrix, config, inner, self.scopes)
        self.rng = random.Random(cfg.seed)
        self.draw = {q.stratum: _drawer(q.stratum, config) for q in formula.prefix}
        self.cfg, self.config = cfg, config
        self.eps = field.eps(config)
        self.probes = {q.stratum: _coverage_values(q.stratum, config) for q in formula.prefix}
        self.evaluations = 0


def _forall_assignments(quants, n, game: _Game):
    """Coverage probes (a deterministic product over per-variable probe lists,
    capped at half the budget) followed by joint random draws, n in total.
    Each assignment comes with a scope of its own for the cached sides."""
    names = [q.var for q in quants]
    produced = 0
    for combo in itertools.islice(itertools.product(*[game.probes[q.stratum] for q in quants]),
                                  max(1, n // 2)):
        yield dict(zip(names, combo)), {}
        produced += 1
    rng, draws = game.rng, [(q.var, game.draw[q.stratum]) for q in quants]
    for _ in range(n - produced):
        yield {name: draw(rng) for name, draw in draws}, {}


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


def _eval_blocks(game: _Game, blocks, binding, inside_exists, batch=None):
    """Recursive game evaluation.  Returns (truth, info) where info carries
    the interesting assignment: a counterexample path for a failing forall,
    or the witness values for a succeeding exists.

    Both kinds of block walk a stream of (assignment, scope) pairs and stop
    at the first whose truth is the block's deciding value: true for an
    exists, false for a forall.  ``batch`` is the list an existential entry
    gives the universal block under it, so that every witness candidate is
    verified against the same drawn forall batch, and the sides cached per
    sample are computed once.
    """
    (kind, quants), rest = blocks[0], blocks[1:]
    exists = kind == "exists"
    if exists:
        # Candidates per variable, first distinguished then random, walked
        # jointly by rank sum within pool * len(quants) tries; each is drawn
        # at first use, since most searches succeed within the first few.
        names = [q.var for q in quants]
        pool = game.cfg.witness_pool
        streams = [_witness_candidates(q, binding, game) for q in quants]
        combos = itertools.islice(_diagonals(streams, [pool] * len(quants)), pool * len(quants))
        pairs = ((dict(zip(names, combo)), {}) for combo in combos)
    else:
        n = game.cfg.nested_samples if inside_exists else game.cfg.samples
        pairs = _forall_assignments(quants, n, game)
        if batch is not None:
            if not batch:
                batch.extend(pairs)
            pairs = batch
    descend = _descend(game, rest, binding, inside_exists or exists, [] if exists else None)
    for assignment, scope in pairs:
        truth, info = descend(assignment, scope)
        if truth == exists:
            return truth, {**assignment, **info}
    return not exists, {}


def _descend(game: _Game, rest, binding, inside_exists, batch=None):
    """The evaluation of the blocks after the current one, as a function of
    an assignment of the current block made under ``binding`` and the
    assignment's scope.  With no blocks left it evaluates the matrix; a
    formula without quantifiers is that one evaluation, of the empty
    assignment."""
    if rest:
        return lambda assignment, scope: _eval_blocks(game, rest, {**binding, **assignment}, inside_exists, batch)
    # The innermost block: a new outer binding, so the outer scope is
    # emptied, and its eps entry and real projection are built once for
    # the whole loop.  ``binding`` itself stays free of eps, since the
    # witness candidates are drawn from its values.
    scopes = game.scopes
    scopes[0] = {}
    outer, outer_reals = _bind(binding, game.eps)
    holds = game.holds

    def evaluate(assignment, scope):
        game.evaluations += 1
        scopes[1] = scope
        reals = None
        if outer_reals is not None:
            own = scope.get(_REALS, _UNSET)
            if own is _UNSET:
                own = scope[_REALS] = field.project_reals(assignment, {})
            if own is not None:
                reals = {**outer_reals, **own}
        return holds({**outer, **assignment}, reals), {}

    return evaluate


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
    truth, info = _descend(game, blocks, {}, False)({}, {})

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
