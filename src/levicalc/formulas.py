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
from dataclasses import dataclass, field as dc_field
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
    if name == "positive" and stream.peek().kind == "-":
        save = stream.pos
        stream.next()
        nxt = stream.peek()
        if nxt.kind == "ident" and nxt.text == "real":
            stream.next()
            name = "positive-real"
        else:
            stream.pos = save
    if name not in STRATA:
        raise ParseError(f"unknown stratum '{name}'", tok.line, tok.col)
    return name


def _parse_matrix(stream: TokenStream):
    left = _parse_disjunction(stream)
    if stream.match("=>"):
        return Implies(left, _parse_matrix(stream))
    return left


def _parse_disjunction(stream: TokenStream):
    node = _parse_conjunction(stream)
    while stream.peek().kind == "ident" and stream.peek().text == "or":
        stream.next()
        node = Or(node, _parse_conjunction(stream))
    return node


def _parse_conjunction(stream: TokenStream):
    node = _parse_atomf(stream)
    while stream.peek().kind == "ident" and stream.peek().text == "and":
        stream.next()
        node = And(node, _parse_atomf(stream))
    return node


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


# Precedence and keyword of each binary connective: "=>" groups to the
# right, "or" and "and" to the left.  "not" binds at 4, above all of them.
_CONNECTIVES = {Implies: (1, "=>"), Or: (2, "or"), And: (3, "and")}


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


def _default_weights() -> dict:
    return {"real": 1.0, "infinitesimal": 1.0, "infinite": 1.0, "mixed": 1.0}


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Knobs of the randomized checker.

    samples        draws per universal quantifier block
    witness_pool   random candidates per existential block (after the
                   distinguished ones)
    nested_samples draws for a universal block nested under an existential
                   one (witness verification budget)
    weights        relative frequency of the basic sample shapes within the
                   composite strata (any/finite/positive)
    coef_range     range of exponent-0 (real-part) coefficients
    series_bound   magnitude bound for the leading coefficient of drawn
                   infinitesimal and infinite elements; tail coefficients
                   are further damped below min(|lead|, 1)/2.  Keeping
                   series coefficients O(1) keeps inverses and function
                   jets well conditioned, so identities are checked against
                   eq_tol rather than against float-noise blowup.
    exp_den_bound  largest denominator of randomly drawn exponents

    The three budgets must be at least 1: a verdict needs evaluations.  The
    draws must be able to finish: coef_range is finite with lo < hi and
    reaches past 0.05 in magnitude, series_bound is finite and above 0.05,
    exp_den_bound is at least 1, and the weights are finite and >= 0 with a
    positive total over the shapes of "finite" and over those of "any".  A
    weights key that names no shape is rejected, not ignored.
    """

    samples: int = 1000
    witness_pool: int = 200
    nested_samples: int = 60
    weights: Mapping[str, float] = dc_field(default_factory=_default_weights)
    coef_range: tuple = (-10.0, 10.0)
    series_bound: float = 2.0
    exp_den_bound: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "witness_pool", "nested_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        lo, hi = self.coef_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and max(-lo, hi) > 0.05):
            raise ValueError("coef_range must be finite with lo < hi and reach past 0.05 in magnitude")
        if not (math.isfinite(self.series_bound) and self.series_bound > 0.05):
            raise ValueError("series_bound must be finite and > 0.05")
        if self.exp_den_bound < 1:
            raise ValueError("exp_den_bound must be >= 1")
        shapes = _default_weights()
        for key in self.weights:
            if key not in shapes:
                raise ValueError(f"weights: {key!r} names no shape; the shapes are {sorted(shapes)}")
        if not all(math.isfinite(w) and w >= 0 for w in self.weights.values()) or not all(
                sum(self.weights.get(s, 1.0) for s in _STRATUM_SHAPES[stratum]) > 0
                for stratum in ("finite", "any")):
            raise ValueError("weights must be finite and >= 0, with a positive total over the "
                             "shapes of 'finite' and of 'any'")


def _draw_coef(rng: random.Random, lo: float, hi: float, positive: bool) -> float:
    """Uniform on [lo, hi], drawn again until its magnitude is at least 0.05."""
    while True:
        c = rng.uniform(lo, hi)
        if abs(c) >= 0.05:
            return abs(c) if positive else c


def _draw_exponent(rng: random.Random, cfg: SamplerConfig) -> tuple:
    """A positive exponent num/den, den <= exp_den_bound, as (num, den)."""
    den = rng.randint(1, cfg.exp_den_bound)
    return rng.randrange(2 * den) + 1, den


def _draw_terms(rng, cfg, lead_exp, lead, config):
    """The series with leading order lead_exp = (num, den) and coefficient
    lead, plus up to two drawn higher orders, built on the integer lattice
    1/(den * lcm of the drawn denominators) and normalized as LCNumber is."""
    lead_num, lead_den = lead_exp
    cap = 0.5 * min(abs(lead), 1.0)
    tail = [(_draw_exponent(rng, cfg), rng.uniform(-cap, cap)) for _ in range(rng.randint(0, 2))]
    step = math.lcm(*[den for (_, den), _ in tail])
    den, k0 = lead_den * step, lead_num * step
    acc = {k0: lead}
    for (num, d), c in tail:
        k = k0 + num * lead_den * (step // d)
        acc[k] = acc.get(k, 0.0) + c
    return field.from_lattice(den, acc, config)


def _sample_shape(shape: str, rng: random.Random, cfg: SamplerConfig,
                  config: FieldConfig, positive: bool) -> LCNumber:
    if shape == "real":
        return LCNumber.from_real(_draw_coef(rng, *cfg.coef_range, positive), config)
    if shape == "infinitesimal":
        lead = _draw_coef(rng, -cfg.series_bound, cfg.series_bound, positive)
        return _draw_terms(rng, cfg, _draw_exponent(rng, cfg), lead, config)
    if shape == "infinite":
        lead = _draw_coef(rng, -cfg.series_bound, cfg.series_bound, positive)
        num, den = _draw_exponent(rng, cfg)
        return _draw_terms(rng, cfg, (-num, den), lead, config)
    if shape == "mixed":
        return _draw_terms(rng, cfg, (0, 1), _draw_coef(rng, *cfg.coef_range, positive), config)
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


def sample(stratum: str, cfg: "SamplerConfig | None" = None, rng: "random.Random | None" = None,
           config: FieldConfig = DEFAULT_CONFIG) -> LCNumber:
    """Draw one stratified random field element."""
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum '{stratum}'")
    cfg = cfg or SamplerConfig()
    rng = rng or random.Random(cfg.seed)
    shapes = _STRATUM_SHAPES[stratum]
    weights = [cfg.weights.get(s, 1.0) for s in shapes]
    shape = rng.choices(shapes, weights)[0] if len(shapes) > 1 else shapes[0]
    positive = stratum in ("positive", "positive-real")
    return _sample_shape(shape, rng, cfg, config, positive)


def stratum_contains(u: LCNumber, stratum: str) -> bool:
    if stratum == "any":
        return True
    if u.is_zero:
        return stratum in ("real", "finite")
    kind = field.classify(u)
    if stratum == "real":
        return u.is_real
    if stratum == "positive-real":
        return u.is_real and u.leading_coefficient > 0
    if stratum == "infinitesimal":
        return kind is Classification.INFINITESIMAL
    if stratum == "infinite":
        return kind is Classification.INFINITE
    if stratum == "finite":
        return kind is not Classification.INFINITE
    if stratum == "positive":
        return u.leading_coefficient > 0
    raise ValueError(f"unknown stratum '{stratum}'")


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


_UNSET = object()  # a hoisted side not yet computed in this run of the innermost loop


def _bind(binding, eps_value) -> tuple:
    """The field binding with the eps literal bound, and the same binding
    projected to floats when every value is real (else None) for the cheap
    scalar path."""
    reals = field.project_reals(binding, {})
    if "eps" not in binding:
        binding = {**binding, "eps": eps_value}
    return binding, reals


def _compile(node, config: FieldConfig, inner=None, hoisted=None):
    """The matrix as one predicate of (binding, reals), resolved once: each
    connective becomes a closure over its compiled operands, and each atom
    knows up front its accepted orders and whether a side uses eps.
    Connectives short-circuit left to right.

    ``inner`` names the variables of a check's innermost block when outer
    blocks bind the rest.  An atom side that mentions none of them does not
    change while that block's loop runs: it is kept in ``hoisted``, which
    the loop clears each time it starts, with separate entries for the
    float and the field path.  A side that is a bare variable is then read
    from the binding.
    """
    if isinstance(node, Atom):
        return _compile_atom(node, config, inner, hoisted)
    if isinstance(node, Not):
        operand = _compile(node.operand, config, inner, hoisted)
        return lambda binding, reals: not operand(binding, reals)
    if isinstance(node, (And, Or, Implies)):
        left = _compile(node.left, config, inner, hoisted)
        right = _compile(node.right, config, inner, hoisted)
        if isinstance(node, And):
            return lambda binding, reals: left(binding, reals) and right(binding, reals)
        if isinstance(node, Or):
            return lambda binding, reals: left(binding, reals) or right(binding, reals)
        return lambda binding, reals: not left(binding, reals) or right(binding, reals)
    raise TypeError(f"not a matrix node: {node!r}")


def _compile_atom(atom: Atom, config: FieldConfig, inner, hoisted):
    accept = field.ACCEPTS.get(atom.op)
    if accept is None:
        raise TypeError(f"not a comparison operator: {atom.op!r}")
    left_vars, right_vars = free_variables(atom.left), free_variables(atom.right)
    scalar = "eps" not in left_vars | right_vars
    left_real, left_field = _side(atom.left, left_vars, config, inner, hoisted)
    right_real, right_field = _side(atom.right, right_vars, config, inner, hoisted)

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


def _side(e: Expr, free: set, config: FieldConfig, inner, hoisted) -> tuple:
    """The (float, field) readers of one side of an atom.  In a check with
    an innermost block (``inner``), a bare variable is read from the
    binding, and a side mentioning no innermost variable is cached; any
    other side is evaluated."""
    if inner is not None and type(e) is Var:
        name = e.name
        return (lambda reals: reals[name]), (lambda binding: binding[name])
    real, hyper = partial(eval_real, e), partial(_eval_hyper, e, config=config)
    if inner is None or not free.isdisjoint(inner):
        return real, hyper
    return _cached(real, hoisted), _cached(hyper, hoisted)


def _cached(compute, hoisted):
    """compute, run at the first read after ``hoisted`` is cleared (so a
    guard still protects it and an error is raised where it was), keyed in
    ``hoisted`` by compute itself."""

    def read(values):
        value = hoisted.get(compute, _UNSET)
        if value is _UNSET:
            value = hoisted[compute] = compute(values)
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
    matrix and the memo of its sides hoisted out of the innermost block, the
    sampler and its RNG, the eps binding and each stratum's coverage probes.
    ``evaluations`` counts matrix evaluations."""

    __slots__ = ("blocks", "holds", "hoisted", "rng", "cfg", "config", "eps", "probes", "evaluations")

    def __init__(self, formula: Formula, cfg: SamplerConfig, config: FieldConfig):
        self.blocks = _blocks(formula.prefix)
        inner = {q.var for q in self.blocks[-1][1]} if len(self.blocks) > 1 else None
        self.hoisted = {}
        self.holds = _compile(formula.matrix, config, inner, self.hoisted)
        self.rng = random.Random(cfg.seed)
        self.cfg, self.config = cfg, config
        self.eps = field.eps(config)
        self.probes = {q.stratum: _coverage_values(q.stratum, config) for q in formula.prefix}
        self.evaluations = 0


def _forall_assignments(quants, n, game: _Game):
    """Coverage probes (a deterministic product over per-variable probe lists,
    capped at half the budget) followed by joint random draws, n in total."""
    produced = 0
    for combo in itertools.islice(itertools.product(*[game.probes[q.stratum] for q in quants]),
                                  max(1, n // 2)):
        if produced >= n:
            return
        yield dict(zip((q.var for q in quants), combo))
        produced += 1
    rng, cfg, config = game.rng, game.cfg, game.config
    while produced < n:
        yield {q.var: sample(q.stratum, cfg, rng, config) for q in quants}
        produced += 1


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
    for _ in range(game.cfg.witness_pool):
        yield sample(quant.stratum, game.cfg, game.rng, config)


def _eval_blocks(game: _Game, blocks, binding, inside_exists, memo=None):
    """Recursive game evaluation.  Returns (truth, info) where info carries
    the interesting assignment: a counterexample path for a failing forall,
    or the witness values for a succeeding exists.

    ``memo`` shares the drawn forall batches between the candidates of one
    existential entry, so every witness candidate is verified against the
    same sample set.
    """
    if not blocks:
        game.evaluations += 1
        return game.holds(*_bind(binding, game.eps)), {}
    kind, quants = blocks[0]
    rest = blocks[1:]
    if kind == "forall":
        n = game.cfg.nested_samples if inside_exists else game.cfg.samples
        if memo is not None:
            assignments = memo.get(len(blocks))
            if assignments is None:
                assignments = list(_forall_assignments(quants, n, game))
                memo[len(blocks)] = assignments
        else:
            assignments = _forall_assignments(quants, n, game)
        descend = _descend(game, rest, binding, inside_exists, memo)
        for assignment in assignments:
            ok, info = descend(assignment)
            if not ok:
                return False, {**assignment, **info}
        return True, {}
    # existential block: search candidates per variable, first distinguished
    # then random; candidates are drawn lazily since most searches succeed
    # within the first few.
    names = [q.var for q in quants]
    pool = game.cfg.witness_pool
    if len(quants) == 1:
        combos = ((u,) for u in itertools.islice(_witness_candidates(quants[0], binding, game), pool))
    else:
        pools = [list(itertools.islice(_witness_candidates(q, binding, game), pool)) for q in quants]
        combos = itertools.islice(itertools.product(*pools), pool * len(quants))
    descend = _descend(game, rest, binding, True, {})
    for combo in combos:
        assignment = dict(zip(names, combo))
        ok, info = descend(assignment)
        if ok:
            return True, {**assignment, **info}
    return False, {}


def _descend(game: _Game, rest, binding, inside_exists, memo):
    """The evaluation of the blocks after the current one, as a function of
    an assignment of the current block made under ``binding``."""
    if rest:
        return lambda assignment: _eval_blocks(game, rest, {**binding, **assignment}, inside_exists, memo)
    # The innermost block: a new outer binding, so the hoisted sides are
    # forgotten, and its eps entry and real projection are built once for
    # the whole loop.  ``binding`` itself stays free of eps, since the
    # witness candidates are drawn from its values.
    game.hoisted.clear()
    outer, outer_reals = _bind(binding, game.eps)
    holds = game.holds

    def evaluate(assignment):
        game.evaluations += 1
        reals = None if outer_reals is None else field.project_reals(assignment, dict(outer_reals))
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
    truth, info = _eval_blocks(game, blocks, {}, False)

    has_exists = any(kind == "exists" for kind, _ in blocks)
    root_exists = bool(blocks) and blocks[0][0] == "exists"
    report = CheckReport("not-falsified", game.evaluations, cfg.seed, config.eq_tol)
    if truth:
        if root_exists:
            report.verdict = "witness-found"
            report.witness = info
    else:
        if root_exists or has_exists:
            report.verdict = "witness-not-found"
            if info:
                report.assignment = info
        else:
            report.verdict = "falsified"
            report.counterexample = info
    return report
