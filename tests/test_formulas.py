"""Formula DSL parsing, sampling, and transfer-checker tests."""

import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from levicalc import field, formulas, lexer
from levicalc.errors import BindingError, EvaluationError, ParseError
from levicalc.expr import Var
from levicalc.formulas import (
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    Quantifier,
    SamplerConfig,
    STRATA,
    check,
    evaluate_matrix,
    parse_formula,
    parse_formula_file,
    render_formula,
    sample,
    stratum_contains,
)

FORMULA_DIR = Path(__file__).resolve().parents[1] / "demos" / "formulas"
GOLDEN_REPORTS = Path(__file__).with_name("check_golden.json")

RECIPROCAL = "forall x: positive, forall y: positive. x < y => 1/y < 1/x"
RECIPROCAL_NEGATED = "forall x: positive, forall y: positive. x < y => 1/x < 1/y"


# -- parsing ------------------------------------------------------------------


def test_parse_reciprocal_formula():
    f = parse_formula(RECIPROCAL)
    assert [q.kind for q in f.prefix] == ["forall", "forall"]
    assert [q.stratum for q in f.prefix] == ["positive", "positive"]
    assert isinstance(f.matrix, Implies)


def test_parse_trivial():
    f = parse_formula("forall x: any. x = x")
    assert f.prefix == (Quantifier("forall", "x", "any"),)
    assert isinstance(f.matrix, Atom)


def test_unbound_variable_rejected():
    with pytest.raises(BindingError):
        parse_formula("forall x. y < x")


def test_double_binding_rejected():
    with pytest.raises(BindingError):
        parse_formula("forall x, exists x. x = x")


def test_eps_is_a_literal_not_a_variable():
    f = parse_formula("forall x: positive-real. x * eps < x")
    assert check(f, SamplerConfig(samples=100, seed=0)).verdict == "not-falsified"
    with pytest.raises(ParseError):
        parse_formula("forall eps. eps = eps")


def test_parse_connective_structure():
    f = parse_formula("0 < 1 and 1 < 2 or 2 < 1 => 1 = 1")
    assert isinstance(f.matrix, Implies)
    assert isinstance(f.matrix.left, Or)
    assert isinstance(f.matrix.left.left, And)
    g = parse_formula("not (0 < 1 => 1 < 0)")
    assert isinstance(g.matrix, Not)
    assert isinstance(g.matrix.operand, Implies)


def test_parenthesized_term_vs_subformula():
    f = parse_formula("forall x: any. (x + 1) * 2 = 2*x + 2")
    assert isinstance(f.matrix, Atom)
    g = parse_formula("forall x: any. (x = x) and (0 < 1)")
    assert isinstance(g.matrix, And)


def test_parse_errors_positions():
    with pytest.raises(ParseError):
        parse_formula("forall x: bogus. x = x")
    with pytest.raises(ParseError):
        parse_formula("forall x x = x")
    with pytest.raises(ParseError):
        parse_formula("forall x. x +")


def test_formula_file_lines_and_comments():
    text = "# heading\n\nforall x: any. x = x\n0 < 1  # trailing comment\n"
    parsed = parse_formula_file(text)
    assert [line for line, _, _ in parsed] == [3, 4]
    with pytest.raises(ParseError) as e:
        parse_formula_file("forall x. x = x\nforall y. y <\n")
    assert e.value.line == 2
    with pytest.raises(BindingError) as e:
        parse_formula_file("forall x. x = x\nforall y. z < y\n")
    assert "line 2" in str(e.value)


# The kinds of ParseError a formula can raise: a bad character, the prefix's,
# the matrix's and the terms'.
FORMULA_ERROR_KINDS = (
    "unexpected character", "expected a variable name", "cannot be a quantified variable",
    "expected a stratum name", "unknown stratum", "expected ',' or '.' after quantifier",
    "unexpected trailing input", "expected a comparison operator", "expected ')'", "expected an expression",
    "unknown function", "expected '(' after function name", "is not a finite number",
    "expected an integer exponent", "power exponents must be integers")


def test_formula_file_errors_keep_message_and_column():
    # Broken lines, each read as line n of a file after n - 1 blank or comment
    # lines, raise parse_formula's error with its line replaced by n.
    rng = random.Random(27)
    broken = ["forall", "forall 1. 1 < 2", "forall x:", "forall x: 2. x < 1", "forall x: positive-",
              "forall x: real x < 1", "forall x: bogus. x < 1", "forall eps. eps < 1", "forall not. 1 < 2",
              "(1 < 2", "(x)", "1 < 2 )", "1", "forall x. 1e400 < x", "forall x. x^1.5 < 1",
              "forall x. sin < x", "forall x. foo(x) < 1", "forall x. x^ < 1"]
    for path in sorted(FORMULA_DIR.glob("*.fof")):
        for line in filter(None, (raw.split("#", 1)[0].strip() for raw in path.read_text().splitlines())):
            texts = lexer.scan(line)[:-1]
            for _ in range(12):
                how, i = rng.choice(("delete", "duplicate", "swap", "bad")), rng.randrange(len(texts))
                if how == "bad":
                    at = rng.randint(0, len(line))
                    broken.append(line[:at] + rng.choice(("²", ">", "<=>", "@")) + line[at:])
                    continue
                pieces = list(texts)
                if how == "delete":
                    del pieces[i]
                elif how == "duplicate":
                    pieces.insert(i, pieces[i])
                else:
                    pieces[i:i + 2] = reversed(pieces[i:i + 2])
                broken.append(" ".join(pieces))
    kinds = set()
    for src in broken:
        try:
            parse_formula(src)
            continue
        except BindingError:
            continue
        except ParseError as e:
            want = e
        n = rng.randint(1, 6)
        filler = [rng.choice(("", "  ", "# a comment", "  # forall x. x <")) for _ in range(n - 1)]
        with pytest.raises(ParseError) as got:
            parse_formula_file("\n".join([*filler, src, "forall x. x = x"]) + "\n")
        assert (got.value.message, got.value.line, got.value.col) == (want.message, n, want.col), src
        assert str(got.value) == f"{n}:{want.col}: {want.message}"
        kinds.update(kind for kind in FORMULA_ERROR_KINDS if kind in want.message)
    assert kinds == set(FORMULA_ERROR_KINDS)


@pytest.mark.parametrize("line", ["    forall x: bogus. x = x", "\tforall x. x <", "  (0 < 1", "   1 < 2 )  # note",
                                  " forall eps. eps < 1", "  forall x. x @ 1"])
def test_formula_file_columns_count_leading_whitespace(line):
    # A line's error gives its column in the file's line, leading whitespace
    # included; the source returned for a good line is stripped.
    with pytest.raises(ParseError) as want:
        parse_formula(line.split("#", 1)[0])
    with pytest.raises(ParseError) as got:
        parse_formula_file(f"1 = 1\n{line}\n")
    assert (got.value.message, got.value.line, got.value.col) == (want.value.message, 2, want.value.col)
    assert want.value.col > 1


def test_formula_file_reports_columns_of_the_file():
    with pytest.raises(ParseError, match=r"^2:15: unknown stratum 'bogus'$"):
        parse_formula_file("1 = 1\n    forall x: bogus. x = x\n")
    assert parse_formula_file("  forall x: real. x = x  # note\n")[0][:2] == (1, "forall x: real. x = x")


def test_parse_error_survives_pickle():
    # An error handed back from a worker process keeps its message, its
    # position and the text it prints.
    raised = [ParseError("bad", 2, 5), ParseError("bad")]
    for parse, src in ((parse_formula, "forall x: bogus. x = x"), (parse_formula_file, "1 = 1\n  1 <\n"),
                       (field.parse_lc, "eps^(1/0)"), (parse_formula, "x + #")):
        with pytest.raises(ParseError) as e:
            parse(src)
        raised.append(e.value)
    for e in raised:
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is ParseError
        assert (back.message, back.line, back.col, str(back)) == (e.message, e.line, e.col, str(e))
    assert [str(e) for e in raised[:2]] == ["2:5: bad", "1:1: bad"]


def test_dropped_comparison_trials_scan_the_source_once(monkeypatch):
    # At each "(" that opens a sub-formula a comparison is tried first, and
    # its error, with its position, is dropped.  The token starts behind
    # those positions are scanned once per source, not once per trial.
    calls = []

    class Counting:
        def __init__(self, pattern):
            self.pattern = pattern

        def findall(self, src):
            return self.pattern.findall(src)

        def finditer(self, src):
            calls.append(src)
            return self.pattern.finditer(src)

    monkeypatch.setattr(lexer, "_TOKEN", Counting(lexer._TOKEN))
    depth = 300
    assert parse_formula("(" * depth + "0 < 1 and 1 < 3" + ")" * depth) == parse_formula("0 < 1 and 1 < 3")
    assert len(calls) <= 1
    src = "(" * depth + "0 < 1 and 4" + ")" * depth
    with pytest.raises(ParseError, match="expected a comparison operator") as e:
        parse_formula(src)
    assert (e.value.line, e.value.col) == (1, src.index(")") + 1)
    assert len(calls) <= 2


# Every pair of binary connectives without parentheses: "=>" groups to the
# right, "or" and "and" to the left, and "and" binds tightest.
@pytest.mark.parametrize("src, shape", [
    ("0 < 1 => 1 < 2 => 2 < 3", "Implies(p, Implies(q, r))"),
    ("0 < 1 => 1 < 2 or 2 < 3", "Implies(p, Or(q, r))"),
    ("0 < 1 => 1 < 2 and 2 < 3", "Implies(p, And(q, r))"),
    ("0 < 1 or 1 < 2 => 2 < 3", "Implies(Or(p, q), r)"),
    ("0 < 1 or 1 < 2 or 2 < 3", "Or(Or(p, q), r)"),
    ("0 < 1 or 1 < 2 and 2 < 3", "Or(p, And(q, r))"),
    ("0 < 1 and 1 < 2 => 2 < 3", "Implies(And(p, q), r)"),
    ("0 < 1 and 1 < 2 or 2 < 3", "Or(And(p, q), r)"),
    ("0 < 1 and 1 < 2 and 2 < 3", "And(And(p, q), r)"),
    ("not not 0 < 1 and 1 < 2", "And(Not(Not(p)), q)"),
    ("0 < 1 or not 1 < 2 and 2 < 3", "Or(p, And(Not(q), r))"),
])
def test_connective_pairs_group_by_precedence(src, shape):
    def show(node):
        if isinstance(node, Atom):
            return "pqr"[int(node.left.value)]
        if isinstance(node, Not):
            return f"Not({show(node.operand)})"
        return f"{type(node).__name__}({show(node.left)}, {show(node.right)})"

    assert show(parse_formula(src).matrix) == shape


@pytest.mark.parametrize("src, message", [
    ("0 < 1 and", "1:10: expected an expression, got end of input"),
    ("0 < 1 =>", "1:9: expected an expression, got end of input"),
    ("0 < 1 and => 1 < 2", "1:11: expected an expression, got '=>'"),
    ("0 < 1 or or 1 < 2", "1:13: expected a comparison operator after the term"),
    ("not", "1:4: expected an expression, got end of input"),
    ("(0 < 1", "1:7: expected ')', got end of input"),
    ("0 < 1 1 < 2", "1:7: unexpected trailing input '1'"),
    ("forall x: positive-imag. x = x", "1:19: expected ',' or '.' after quantifier, got '-'"),
    ("forall x: positive - 1. x = x", "1:20: expected ',' or '.' after quantifier, got '-'"),
    ("forall x: positive -", "1:20: expected ',' or '.' after quantifier, got '-'"),
    ("forall x: real - real. x = x", "1:16: expected ',' or '.' after quantifier, got '-'"),
])
def test_malformed_formula_messages(src, message):
    with pytest.raises(ParseError) as e:
        parse_formula(src)
    assert str(e.value) == message


def test_positive_real_may_be_spaced():
    for src in ("forall x: positive - real. x = x", "forall x: positive-real. x = x"):
        assert parse_formula(src).prefix == (Quantifier("forall", "x", "positive-real"),)


# -- render round trip -----------------------------------------------------------


def _corpus():
    fixed = [
        RECIPROCAL,
        "forall x: any. x = x",
        "forall a: any, forall b: any. a + b = b + a",
        "forall e: positive-real, exists d: positive-real, forall x: real. (0 - d < x and x < d) => (0 - e < x^2 and x^2 < e)",
        "exists x: infinitesimal. x * x < x",
        "forall x: finite. sin(x)^2 + cos(x)^2 = 1",
        "forall n: positive-real. n * eps < 1",
        "forall a: any. not (a = 0) => a * (1 / a) = 1",
        "forall x: any. (x < 0 or x = 0) or 0 < x",
        "not 1 < 0",
        "forall x: infinite, forall y: finite. y < x or x < y",
        "forall x: any. x <= x and not x < x",
    ]
    rng = random.Random(42)
    strata = list(STRATA)
    terms = ["x", "y", "x + y", "x * y", "x - y", "1 / (1 + x * x)", "x^2", "2*x + 1", "eps * x", "sqrt(x^2 + 1)"]
    ops = ["<", "<=", "="]
    while len(fixed) < 50:
        nvars = rng.randint(1, 3)
        names = ["x", "y", "z"][:nvars]
        prefix = ", ".join(
            f"{rng.choice(['forall', 'exists'])} {n}: {rng.choice(strata)}" for n in names)
        chosen = [t for t in rng.sample(terms, 2) if set("xyz") & set(t) <= set(names)] or ["x"]
        left = chosen[0] if "y" not in chosen[0] or nvars > 1 else "x"
        right = "1" if len(chosen) < 2 else chosen[1]
        if "y" in right and nvars < 2:
            right = "0"
        if "z" in (left + right) and nvars < 3:
            continue
        mat = f"{left} {rng.choice(ops)} {right}"
        if rng.random() < 0.4:
            mat = f"not ({mat}) or {names[0]} = {names[0]}"
        fixed.append(f"{prefix}. {mat}")
    return fixed


def test_render_formula_parentheses():
    x, y = Var("x"), Var("y")
    p, q, r = Atom("<", x, y), Atom("<=", y, x), Atom("=", x, y)
    prefix = (Quantifier("forall", "x", "real"), Quantifier("exists", "y"))
    expected = {
        Implies(Implies(p, q), r): "(x < y => y <= x) => x = y",
        Implies(p, Implies(q, r)): "x < y => y <= x => x = y",
        Or(p, Or(q, r)): "x < y or (y <= x or x = y)",
        Or(Or(p, q), r): "x < y or y <= x or x = y",
        And(Or(p, q), r): "(x < y or y <= x) and x = y",
        And(p, Or(q, r)): "x < y and (y <= x or x = y)",
        Or(And(p, q), r): "x < y and y <= x or x = y",
        Not(And(p, q)): "not (x < y and y <= x)",
        Not(Implies(p, q)): "not (x < y => y <= x)",
        Not(Not(p)): "not not x < y",
    }
    for matrix, text in expected.items():
        formula = Formula(prefix, matrix)
        assert render_formula(formula) == "forall x: real, exists y. " + text
        assert parse_formula(render_formula(formula)) == formula


def test_render_round_trip_corpus():
    corpus = _corpus()
    assert len(corpus) == 50
    for src in corpus:
        f = parse_formula(src)
        assert parse_formula(render_formula(f)) == f, src


# -- sampling -----------------------------------------------------------------------


def test_sample_contracts():
    cfg = SamplerConfig(seed=2)
    rng = random.Random(9)
    for stratum in STRATA:
        for _ in range(300):
            u = sample(stratum, cfg, rng)
            assert stratum_contains(u, stratum), (stratum, str(u))


@pytest.mark.parametrize("budget", ["samples", "witness_pool", "nested_samples"])
def test_sampler_rejects_empty_budget(budget):
    # a verdict drawn from zero evaluations says nothing
    with pytest.raises(ValueError, match=budget):
        SamplerConfig(**{budget: 0})


@pytest.mark.parametrize("budget", ["samples", "witness_pool", "nested_samples"])
def test_sampler_rejects_budget_that_is_not_an_int(budget):
    # A float budget would fail inside the sampler (range, islice), and
    # nan passed the >= 1 test; each is one ValueError naming the field.
    for value in (2.5, 3.0, float("nan"), "3", True):
        with pytest.raises(ValueError, match=f"^{budget} must be an integer >= 1"):
            SamplerConfig(**{budget: value})
    # Any integral type other than bool is a budget: range and islice take
    # it through __index__.
    assert getattr(SamplerConfig(**{budget: np.int64(3)}), budget) == 3


def test_sampler_rejects_seed_that_is_not_an_int():
    # With seed=None, check() seeded from the operating system and reported
    # "seed: None"; a float or a string seeded a generator the report could
    # not name again.  numpy integers cannot seed random.Random.
    for value in (None, 1.5, 2.0, "a", True, np.int64(3)):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            SamplerConfig(seed=value)
    assert SamplerConfig(seed=-7).seed == -7


def _reference_sample(stratum, rng, config):
    """The sampler built the plain way: Fraction exponents, normalized by
    the LCNumber constructor, with the same random draws in the same order."""
    def coef(lo, hi, positive):
        while True:
            c = rng.uniform(lo, hi)
            if abs(c) >= 0.05:
                return abs(c) if positive else c

    def exponent():
        den = rng.randint(1, formulas._EXP_DEN_BOUND)
        return rng.randrange(2 * den) + 1, den

    def terms(lead_exp, lead):
        lead_num, lead_den = lead_exp
        out = [(Fraction(lead_num, lead_den), lead)]
        cap = 0.5 * min(abs(lead), 1.0)
        for _ in range(rng.randint(0, 2)):
            num, den = exponent()
            out.append((Fraction(lead_num * den + num * lead_den, lead_den * den), rng.uniform(-cap, cap)))
        return out

    shapes = formulas._STRATA[stratum].shapes
    shape = rng.choices(shapes, [1.0] * len(shapes))[0] if len(shapes) > 1 else shapes[0]
    positive = stratum in ("positive", "positive-real")
    bound = formulas._SHAPES[shape][0]
    if shape == "real":
        return field.LCNumber([(0, coef(-bound, bound, positive))], config)
    if shape == "infinitesimal":
        lead = coef(-bound, bound, positive)
        return field.LCNumber(terms(exponent(), lead), config)
    if shape == "infinite":
        lead = coef(-bound, bound, positive)
        num, den = exponent()
        return field.LCNumber(terms((-num, den), lead), config)
    return field.LCNumber(terms((0, 1), coef(-bound, bound, positive)), config)


@pytest.mark.parametrize("stratum", STRATA)
def test_sampler_matches_fraction_reference(stratum, monkeypatch):
    # The default distribution over 10^4 draws, then a narrow window (depth
    # 1, two terms, a coarse zero_tol) on finer lattices (denominators up to
    # 6), where normalization drops orders: the same lattice, the same pairs
    # and the same RNG state.
    narrow = field.FieldConfig(depth=1, max_terms=2, zero_tol=0.01, eq_tol=0.01)
    for den_bound, config, draws in ((3, field.DEFAULT_CONFIG, 10_000), (6, narrow, 2_000)):
        monkeypatch.setattr(formulas, "_EXP_DEN_BOUND", den_bound)
        rng, ref_rng = random.Random(17), random.Random(17)
        for _ in range(draws):
            u, v = sample(stratum, SamplerConfig(), rng, config), _reference_sample(stratum, ref_rng, config)
            assert (u._den, u._pairs) == (v._den, v._pairs), (str(u), str(v))
        assert rng.getstate() == ref_rng.getstate()


def test_draw_primitives_match_the_stdlib(monkeypatch):
    # A composite stratum's draw is the shape that choices(shapes,
    # cum_weights=[1, 2, ...]) picks, then that shape's own draw: the same
    # values and the same state over 10^5 mixed draws.  The draw's integers
    # (randrange and randint, by rejection on getrandbits) are pinned by
    # test_sampler_matches_fraction_reference.
    def lattice(u):
        return u._den, u._pairs

    ops = []
    for stratum in STRATA:
        shapes, _, positive = formulas._STRATA[stratum]
        if len(shapes) == 1:  # drawn without a pick
            continue
        alone = {}
        for shape in shapes:  # a one-shape stratum per shape, with the stratum's sign
            name = f"{stratum}/{shape}"
            monkeypatch.setitem(formulas._STRATA, name, formulas._Stratum((shape,), set(), positive))
            alone[shape] = formulas._drawer(name, field.DEFAULT_CONFIG)
        ops.append((lambda r, draw=formulas._drawer(stratum, field.DEFAULT_CONFIG): lattice(draw(r)),
                    lambda r, s=shapes, a=alone: lattice(a[r.choices(s, cum_weights=[1, 2, 3, 4][:len(s)])[0]](r))))
    pick, rng, ref = random.Random(5), random.Random(11), random.Random(11)
    for _ in range(100_000):
        ours, stdlib = pick.choice(ops)
        assert ours(rng) == stdlib(ref)
    assert rng.getstate() == ref.getstate()


def test_coarse_zero_tol_keeps_draws_in_their_strata():
    # A lead at or below zero_tol would be dropped by normalization, leaving
    # 0 in a stratum that excludes it; the sampler draws such a lead again.
    coarse = field.FieldConfig(zero_tol=0.2, eq_tol=0.2)
    rng = random.Random(5)
    for stratum in STRATA:
        for _ in range(2_000):
            u = sample(stratum, rng=rng, config=coarse)
            assert stratum_contains(u, stratum), (stratum, str(u))
    for src in ("forall x: positive-real. 0 < x", "forall x: positive. 0 < x"):
        assert check(parse_formula(src), SamplerConfig(seed=5), coarse).verdict == "not-falsified", src


@pytest.mark.parametrize("zero_tol, stratum", [(2.0, "infinitesimal"), (3.0, "positive"), (3.0, "any"),
                                               (10.0, "real"), (10.0, "positive-real")])
def test_lead_range_within_zero_tol_is_rejected(zero_tol, stratum):
    # No lead of the shape's range clears zero_tol: one ValueError when the
    # drawer is built, never an endless redraw.
    config = field.FieldConfig(zero_tol=zero_tol, eq_tol=zero_tol)
    with pytest.raises(ValueError, match="zero_tol"):
        sample(stratum, config=config)
    with pytest.raises(ValueError, match="zero_tol"):
        check(parse_formula(f"forall x: {stratum}. x = x"), SamplerConfig(samples=5), config)


@pytest.mark.parametrize("zero_tol, stratum", [(1.98, "infinitesimal"), (1.98, "positive"), (1.98, "any"),
                                               (9.9, "real"), (9.9, "positive-real")])
def test_lead_range_just_past_zero_tol_still_draws(zero_tol, stratum):
    # One lead in a hundred clears zero_tol: the redraw is slow but ends, and
    # every draw keeps a lead above zero_tol in its stratum.
    config = field.FieldConfig(zero_tol=zero_tol, eq_tol=zero_tol)
    rng = random.Random(11)
    for _ in range(200):
        u = sample(stratum, rng=rng, config=config)
        assert stratum_contains(u, stratum) and abs(u.leading_coefficient) > zero_tol, str(u)
    report = check(parse_formula(f"forall x: {stratum}. x = x"), SamplerConfig(samples=20), config)
    assert report.verdict == "not-falsified"


@pytest.mark.parametrize("stratum", ["real", "positive-real"])
@pytest.mark.parametrize("config", [field.DEFAULT_CONFIG, field.FieldConfig(zero_tol=0.2, eq_tol=0.2)],
                         ids=["default", "coarse"])
def test_drawn_reals_are_from_real_values(stratum, config):
    # A real draw builds its value in one call: it must be the value
    # from_real makes of the same coefficient, with the same RNG calls.
    positive = formulas._STRATA[stratum].positive
    draw, rng, twin = formulas._drawer(stratum, config), random.Random(23), random.Random(23)
    for _ in range(2_000):
        u = draw(rng)
        c = formulas._draw_coef(twin.random, formulas._SHAPES["real"][0], positive, config.zero_tol)
        v = field.LCNumber.from_real(c, config)
        assert (u._den, u._pairs, u.config) == (v._den, v._pairs, v.config)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("config", [field.DEFAULT_CONFIG,
                                    field.FieldConfig(depth=1, max_terms=2, zero_tol=0.01, eq_tol=0.01)],
                         ids=["default", "narrow"])
@pytest.mark.parametrize("prefix", ["forall x: real", "forall x: positive-real", "forall x: finite",
                                    "forall x: real, forall y: positive-real", "forall x: finite, forall y: real"])
def test_forall_batch_matches_drawing_each_variable(prefix, config):
    # A universal block's random part draws each variable in turn, as
    # sample() does from the same generator: the same values, the
    # projection project_reals gives, a fresh scope per sample and the same
    # final RNG state.
    formula = parse_formula(prefix + ". x = x")
    game = formulas._Game(formula, SamplerConfig(), config)
    game.rng, twin = random.Random(31), random.Random(31)
    quants, n = formula.prefix, 400
    triples = list(formulas._forall_assignments(quants, n, game, True))
    probes = len(list(itertools.product(*[game.probes[q.stratum] for q in quants])))
    assert len(triples) == n and probes < n // 2
    for assignment, reals, scope in triples[probes:]:
        want = {q.var: sample(q.stratum, rng=twin, config=config) for q in quants}
        assert list(assignment) == list(want)
        for name, u in assignment.items():
            assert (u._den, u._pairs, u.config) == (want[name]._den, want[name]._pairs, config), str(u)
        projected = field.project_reals(want, {})
        assert reals == projected and (reals is None or list(reals) == list(projected))
        assert scope == {}
    assert len({id(scope) for _, _, scope in triples}) == n
    assert game.rng.getstate() == twin.getstate()


def test_sample_specific_contracts():
    cfg = SamplerConfig(seed=3)
    rng = random.Random(4)
    for _ in range(100):
        u = sample("infinitesimal", cfg, rng)
        assert field.classify(u) is field.Classification.INFINITESIMAL
        v = sample("real", cfg, rng)
        assert v.is_real and not v.is_zero
        w = sample("infinite", cfg, rng)
        assert field.compare(abs(w), field.LCNumber.from_real(1e9)) == field.GREATER


# Which strata hold each probe value; every stratum holds exactly these.
_MEMBERS = {
    "0": {"real", "finite", "any"},
    "1": {"real", "positive-real", "positive", "finite", "any"},
    "-1": {"real", "finite", "any"},
    "eps": {"infinitesimal", "positive", "finite", "any"},
    "-eps": {"infinitesimal", "finite", "any"},
    "1/eps": {"positive", "infinite", "any"},
    "-1/eps": {"infinite", "any"},
    "1 + eps": {"positive", "finite", "any"},
    "-1 + eps": {"finite", "any"},
}


@pytest.mark.parametrize("text", list(_MEMBERS))
def test_stratum_contains_truth_table(text):
    u = field.parse_lc(text.replace("1/eps", "eps^-1"))
    assert {s for s in STRATA if stratum_contains(u, s)} == _MEMBERS[text]
    if not u.is_zero:
        for lookup in (partial(stratum_contains, u), sample):
            with pytest.raises(ValueError, match="unknown stratum 'bogus'"):
                lookup("bogus")


@pytest.mark.parametrize("stratum", STRATA)
def test_stratum_row_matches_its_probes_and_draws(stratum):
    # A row's classifications are exactly those of the stratum's coverage
    # probes and 2,000 seeded draws, the draws giving every one but zero;
    # the row is positive exactly when every such value has a positive lead.
    rng = random.Random(23)
    probes = formulas._coverage_values(stratum, field.DEFAULT_CONFIG)
    draws = [sample(stratum, SamplerConfig(), rng) for _ in range(2000)]
    row = formulas._STRATA[stratum]
    assert {field.classify(u) for u in probes + draws} == row.kinds
    assert {field.classify(u) for u in draws} == row.kinds - {field.Classification.ZERO}
    assert all(not u.is_zero and u.leading_coefficient > 0 for u in probes + draws) is row.positive


# -- checking -----------------------------------------------------------------------


def test_commutativity_not_falsified():
    rep = check(parse_formula("forall a: any, forall b: any. a + b = b + a"),
                SamplerConfig(samples=2000, seed=1))
    assert rep.verdict == "not-falsified"
    assert rep.samples_used >= 2000


def test_reciprocal_not_falsified_and_covers_eps_pair():
    rep = check(parse_formula(RECIPROCAL), SamplerConfig(samples=2000, seed=2))
    assert rep.verdict == "not-falsified"


def test_negated_reciprocal_falsified_quickly():
    rep = check(parse_formula(RECIPROCAL_NEGATED), SamplerConfig(samples=100, seed=3))
    assert rep.verdict == "falsified"
    assert rep.samples_used <= 100
    assert rep.counterexample is not None
    # the counterexample re-evaluates to false
    assert evaluate_matrix(parse_formula(RECIPROCAL_NEGATED).matrix, rep.counterexample) is False


def test_falsification_is_sound_across_seeds():
    f = parse_formula("forall x: any. x * x = x")
    for seed in range(5):
        rep = check(f, SamplerConfig(samples=50, seed=seed))
        assert rep.verdict == "falsified"
        assert evaluate_matrix(f.matrix, rep.counterexample) is False


def test_witness_found():
    rep = check(parse_formula("exists x: infinitesimal. x * x < x"), SamplerConfig(seed=4))
    assert rep.verdict == "witness-found"
    assert rep.witness is not None
    assert evaluate_matrix(parse_formula("exists x. x * x < x").matrix, rep.witness) is True


def test_witness_not_found_is_inconclusive():
    rep = check(parse_formula("exists x: positive-real. x < 0"), SamplerConfig(seed=5))
    assert rep.verdict == "witness-not-found"
    rep2 = check(parse_formula("forall y: positive-real, exists x: positive-real. x < 0 - y"),
                 SamplerConfig(samples=20, seed=5))
    assert rep2.verdict == "witness-not-found"
    assert rep2.assignment


def test_existential_block_searches_jointly():
    # Walking the product of the pools in lexicographic order tried only the
    # first two candidates for a; by rank sum, a and b both go deeper.
    for src in ("exists a: any, exists b: any. a < 0 and b < 0",
                "exists a: real, exists b: real. a < -2 and b < -2"):
        f = parse_formula(src)
        rep = check(f, SamplerConfig(witness_pool=200, seed=5))
        assert rep.verdict == "witness-found", src
        assert rep.samples_used <= 400
        assert evaluate_matrix(f.matrix, rep.witness) is True


def test_universal_budget_follows_block_position():
    # A universal block draws `samples` at the root and `nested_samples`
    # under an existential block; each witness here is the first candidate.
    cfg = SamplerConfig(samples=7, nested_samples=3, seed=0)
    used = [check(parse_formula(src), cfg).samples_used for src in (
        "forall z: real. z = z",
        "exists y: real, forall z: real. z = z",
        "forall x: real, exists y: real, forall z: real. z = z",
        "forall x: real, exists y: real, forall z: real, exists w: real, forall v: real. v = v")]
    assert used == [7, 3, 21, 63]


def test_diagonals_cover_the_product_by_rank_sum():
    assert list(formulas._diagonals([iter(range(2)), iter(range(3))], [2, 3])) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
    for sizes in ([1, 1], [3, 1], [2, 4, 3], [5, 2, 1, 2]):
        index = list(formulas._diagonals([itertools.count() for _ in sizes], sizes))
        assert sorted(index) == list(itertools.product(*map(range, sizes)))
        assert [sum(t) for t in index] == sorted(sum(t) for t in index)


def test_determinism():
    f = parse_formula(RECIPROCAL)
    r1 = check(f, SamplerConfig(samples=500, seed=11))
    r2 = check(f, SamplerConfig(samples=500, seed=11))
    assert r1.to_json() == r2.to_json()
    r3 = check(f, SamplerConfig(samples=500, seed=12))
    assert r3.verdict == r1.verdict  # same verdict, possibly different path


def test_matrix_only_formula():
    assert check(parse_formula("0 < 1")).verdict == "not-falsified"
    rep = check(parse_formula("1 < 0"))
    assert rep.verdict == "falsified"
    assert rep.counterexample == {}


def test_short_circuit_guards_division():
    f = parse_formula("forall a: any. not (a = 0) => a * (1 / a) = 1")
    rep = check(f, SamplerConfig(samples=500, seed=6))
    assert rep.verdict == "not-falsified"


def test_unguarded_division_reports_evaluation_error():
    f = parse_formula("forall a: any. 1 / a = 1 / a")
    with pytest.raises(EvaluationError) as e:
        check(f, SamplerConfig(samples=50, seed=7))
    # real-mode bindings surface DomainError, field-mode DivisionByZero;
    # either way the binding is reported, not swallowed
    assert "division by zero" in str(e.value) or "DivisionByZero" in str(e.value)
    assert "a = " in str(e.value)


def test_field_overflow_reports_evaluation_error():
    f = parse_formula("forall x: infinitesimal. exp(800 + x) < 1")
    with pytest.raises(EvaluationError, match=r"^NotFinite: exp\(800 \+ eps\) overflows \(at x = eps\)$"):
        check(f, SamplerConfig(samples=50, seed=7))


def test_hoisted_side_waits_for_its_guard():
    # 1/a does not change under "forall c", so it is hoisted out of that
    # loop; the a = 0 probe must still reach it only through the guard.
    guarded = parse_formula(
        "forall a: any, exists b: any, forall c: any. not (a = 0) => (c < 1 / a or 1 / a <= c)")
    assert check(guarded, SamplerConfig(samples=50, seed=7)).verdict == "not-falsified"
    bare = parse_formula("forall a: any, exists b: any, forall c: any. c < 1 / a or 1 / a <= c")
    with pytest.raises(EvaluationError) as e:
        check(bare, SamplerConfig(samples=50, seed=7))
    assert "a = " in str(e.value)


def test_hoisted_sides_are_computed_once_per_innermost_loop(monkeypatch):
    # continuity.fof line 4: "0.3 - d" does not mention x, "x^2" mentions x
    # alone and stands in two atoms.
    lines = parse_formula_file((FORMULA_DIR / "continuity.fof").read_text())
    matrix = lines[1][2].matrix
    guard, goal = matrix.left, matrix.right
    delta_low, x_var = guard.left.left, guard.left.right
    squares = {id(goal.left.right), id(goal.right.left)}
    calls = []
    eval_real, eval_hyper, compile_matrix = formulas.eval_real, formulas._eval_hyper, formulas._compile

    # A side reads only the mapping that binds its variables, so e and d
    # are taken from the outer binding of the evaluation under way.
    outer = {}

    def spy_real(e, reals):
        calls.append((id(e), "real", outer["reals"]["e"], outer["reals"]["d"], reals.get("x")))
        return eval_real(e, reals)

    def spy_hyper(e, binding, config):
        x = binding["x"].terms if "x" in binding else None
        calls.append((id(e), "field", outer["binding"]["e"].terms, outer["binding"]["d"].terms, x))
        return eval_hyper(e, binding, config)

    evaluations = []

    def recording_compile(node, *args):
        holds = compile_matrix(node, *args)
        if node is not matrix:
            return holds

        def recorded(*bindings_and_scopes):
            evaluations.append(bindings_and_scopes[:4])
            outer.update(binding=bindings_and_scopes[0], reals=bindings_and_scopes[2])
            return holds(*bindings_and_scopes)

        return recorded

    monkeypatch.setattr(formulas, "eval_real", spy_real)
    monkeypatch.setattr(formulas, "_eval_hyper", spy_hyper)
    monkeypatch.setattr(formulas, "_compile", recording_compile)
    report = check(lines[1][2], SamplerConfig(samples=300, seed=5)).to_json()
    assert report == json.loads(GOLDEN_REPORTS.read_text())["continuity.fof:4:5"]
    assert len(evaluations) == report["samples_used"]

    hoisted = [key[:4] for key in calls if key[0] == id(delta_low)]
    assert {path for _, path, _, _ in hoisted} == {"real", "field"}
    assert len(hoisted) == len(set(hoisted))  # once per (e, d) pair and path
    assert not any(key[0] == id(x_var) for key in calls)  # bare variables are read directly
    # x^2 once per drawn x (each e draws its own batch) and path, whatever
    # the witness candidate d, and one value serves both atoms
    per_sample = [(path, e, x) for key, path, e, _, x in calls if key in squares]
    assert len(per_sample) == len(set(per_sample)) > 0
    assert len({key[0] for key in calls if key[0] in squares}) == 1

    # The same evaluations through the matrix compiled without caching.
    calls.clear()
    plain = compile_matrix(matrix, field.DEFAULT_CONFIG)
    for bindings in evaluations:
        outer.update(binding=bindings[0], reals=bindings[2])
        plain(*bindings)
    assert sum(key[0] in squares for key in calls) > 2 * len(per_sample)
    assert sum(key[0] == id(delta_low) for key in calls) > 10 * len(hoisted)


def test_each_sample_is_projected_once(monkeypatch):
    # continuity.fof line 3: every witness candidate d replays the drawn x
    # batch, so projecting each evaluation's sample would make more calls
    # than there are evaluations; projecting each sample when it is drawn
    # makes fewer.
    formula = parse_formula_file((FORMULA_DIR / "continuity.fof").read_text())[0][2]
    project, calls = field.project_reals, []
    monkeypatch.setattr(field, "project_reals", lambda values, reals: calls.append(1) or project(values, reals))
    report = check(formula, SamplerConfig(samples=300, seed=5)).to_json()
    assert report == json.loads(GOLDEN_REPORTS.read_text())["continuity.fof:3:5"]
    assert 0 < len(calls) < report["samples_used"]


def _uncached(monkeypatch):
    """Make check() compile its matrix without any cached side."""
    compile_matrix = formulas._compile
    monkeypatch.setattr(formulas, "_compile", lambda node, config, *scoping: compile_matrix(node, config))


# Under "forall e, exists d, forall x": a guarded side in x alone, sides in
# x alone that raise at a probe or at a drawn sample, and a side mixing x
# with the witness d.  Then, with the reads of split bindings: a
# two-variable innermost block, a side in both sample variables and eps, a
# side mixing one sample variable with an outer one (raising), and a bare
# outer variable.
CACHED_SIDES = [
    "forall e: positive-real, exists d: positive-real, forall x: finite. "
    "not (x = 0) => (1/x < e + d or e + d <= 1/x)",
    "forall e: positive-real, exists d: positive-real, forall x: any. 1/x < e or e <= 1/x",
    "forall e: positive-real, exists d: positive-real, forall x: finite. x*d < e or e < 2 or 1/(x - 1) < e + x*x",
    "forall e: positive-real, exists d: positive-real, forall x: finite. x*d < e and -e < x*d",
    "forall e: positive, exists d: positive, forall x: any. (0 - d < x and x < d) => x*x < e",
    "forall e: positive-real, exists d: positive-real, forall x: finite, forall y: finite. "
    "(x*x < d and y*y < d) => x*y < e",
    "forall e: positive, exists d: positive, forall x: any, forall y: finite. x*y*eps < e or d <= x + y + eps",
    "forall e: positive-real, exists d: real, forall x: finite, forall y: real. x - e < y or 1/(x - d) < y",
    "forall e: positive-real, exists d: positive-real, forall x: finite. d < x or e <= x*x",
]


@pytest.mark.parametrize("src", CACHED_SIDES)
def test_cached_sides_keep_reports_errors_and_counts(src, monkeypatch):
    formula = parse_formula(src)
    game_init, games = formulas._Game.__init__, []

    def counting_init(game, *args):
        game_init(game, *args)
        games.append(game)

    monkeypatch.setattr(formulas._Game, "__init__", counting_init)
    outcomes = []
    for cached in (True, False):
        if not cached:
            _uncached(monkeypatch)
        runs = []
        for seed in (0, 5):
            try:
                runs.append(check(formula, SamplerConfig(samples=40, nested_samples=30, seed=seed)).to_json())
            except EvaluationError as e:
                runs.append(str(e))
        outcomes.append((runs, [game.evaluations for game in games]))
        games.clear()
    assert outcomes[0] == outcomes[1]


def test_guarded_inner_side_waits_for_its_guard():
    # 1/x mentions only x, so it is cached per sample; the x = 0 probe must
    # still reach it only through the guard.
    guarded = parse_formula(CACHED_SIDES[0])
    assert check(guarded, SamplerConfig(samples=50, seed=7)).verdict == "not-falsified"
    with pytest.raises(EvaluationError, match=r"division by zero \(at e = 1, d = 1, x = 0\)"):
        check(parse_formula(CACHED_SIDES[1]), SamplerConfig(samples=50, seed=7))


def test_mixed_side_is_computed_for_each_candidate(monkeypatch):
    formula = parse_formula(CACHED_SIDES[3])
    mixed = formula.matrix.left.left
    seen = []
    eval_hyper, compile_matrix = formulas._eval_hyper, formulas._compile

    def spy_hyper(e, binding, config):
        if e is mixed:
            seen.append((binding["x"].terms, binding["d"].terms))
        return eval_hyper(e, binding, config)

    def recording_compile(node, *args):
        holds = compile_matrix(node, *args)

        def recorded(outer, sample, *projections_and_scopes):
            seen.append(("holds", {**outer, **sample}, holds(outer, sample, *projections_and_scopes)))
            return seen[-1][2]

        return recorded if node is formula.matrix else holds

    monkeypatch.setattr(formulas, "_eval_hyper", spy_hyper)
    monkeypatch.setattr(formulas, "_compile", recording_compile)
    check(formula, SamplerConfig(samples=40, nested_samples=30, seed=3))
    monkeypatch.undo()
    candidates = {}
    for entry in seen:
        if entry[0] == "holds":
            _, binding, truth = entry
            assert evaluate_matrix(formula.matrix, binding) is truth
        else:
            candidates.setdefault(entry[0], set()).add(entry[1])
    # the same drawn x meets several witness candidates d
    assert max(len(ds) for ds in candidates.values()) > 1


def test_sample_draws_match_recorded():
    # The first 20 draws of each stratum from one seed-0 RNG, as drawn before
    # each stratum's shapes and cumulative weights were resolved once.
    recorded = json.loads(Path(__file__).with_name("sample_golden.json").read_text())
    assert set(recorded) == set(STRATA)
    for stratum in STRATA:
        rng = random.Random(0)
        assert [str(sample(stratum, SamplerConfig(), rng)) for _ in range(20)] == recorded[stratum]


def test_atom_without_invariant_side_is_evaluated_at_every_draw(monkeypatch):
    atom = parse_formula("forall a: any, exists b: any. a * b < b * b").matrix
    calls = []
    eval_real, eval_hyper = formulas.eval_real, formulas._eval_hyper

    def spy_real(e, reals):
        calls.append((e, "real"))
        return eval_real(e, reals)

    def spy_hyper(e, binding, config):
        calls.append((e, "field"))
        return eval_hyper(e, binding, config)

    monkeypatch.setattr(formulas, "eval_real", spy_real)
    monkeypatch.setattr(formulas, "_eval_hyper", spy_hyper)
    s0, s1 = {}, {}
    holds = formulas._compile(atom, field.DEFAULT_CONFIG, {"b"})
    a = field.LCNumber.from_real(2.0)
    outer = {"a": a, "eps": field.eps()}
    for b in (-1.0, 0.5, 3.0, -1.0):
        b_lc = field.LCNumber.from_real(b)
        s1 = {}  # a new draw of b
        for path, reals in (("real", {"b": b}), ("field", None)):
            calls.clear()
            assert holds(outer, {"b": b_lc}, {"a": 2.0}, reals, s0, s1) is (2.0 * b < b * b)
            assert calls == [(atom.left, path), (atom.right, path)]
            # the same draw again: "b * b" is kept in its scope, "a * b" is not
            calls.clear()
            holds(outer, {"b": b_lc}, {"a": 2.0}, reals, s0, s1)
            assert calls == [(atom.left, path)]
    assert s0 == {}
    # with "a" innermost, "b * b" does not change and is kept in the outer scope
    holds = formulas._compile(atom, field.DEFAULT_CONFIG, {"a"})
    holds({"b": a, "eps": field.eps()}, {"a": a}, {"b": 2.0}, {"a": 2.0}, s0, s1)
    assert len(s0) == 1


def test_one_predicate_serves_interleaved_scopes(monkeypatch):
    # continuity.fof line 4's matrix: "0.3 - d" is kept in the outer scope,
    # "x^2" in the sample's.  Two outer bindings, each with a sample drawn
    # twice, take turns on one compiled predicate; each must see the side
    # evaluations and answers of a predicate compiled for it alone.
    formula = parse_formula(RENAMED[0].format("e", "d", "x"))
    calls = []
    eval_real, eval_hyper = formulas.eval_real, formulas._eval_hyper
    monkeypatch.setattr(formulas, "eval_real", lambda e, reals: calls.append((id(e), reals)) or eval_real(e, reals))
    monkeypatch.setattr(formulas, "_eval_hyper",
                        lambda e, binding, config: calls.append((id(e), None)) or eval_hyper(e, binding, config))

    def events(outer):
        lift = field.LCNumber.from_real
        binding = {**{name: lift(v) for name, v in outer.items()}, "eps": field.eps()}
        for x in (0.29, 0.31, 0.29, 0.5):
            for reals in ({"x": x}, None):
                yield binding, {"x": lift(x)}, outer, reals, x

    def run(holds, s0, s1s, outer, sample, outer_reals, reals, x):
        calls.clear()
        return holds(outer, sample, outer_reals, reals, s0, s1s.setdefault(x, {})), list(calls)

    outers = [{"e": 0.01, "d": 0.02}, {"e": 0.5, "d": 0.3}]
    shared = formulas._compile(formula.matrix, field.DEFAULT_CONFIG, {"x"})
    scopes = [({}, {}) for _ in outers]
    interleaved = [[], []]
    for pair in zip(*(events(outer) for outer in outers)):
        for i, event in enumerate(pair):
            interleaved[i].append(run(shared, *scopes[i], *event))
    for i, outer in enumerate(outers):
        alone = formulas._compile(formula.matrix, field.DEFAULT_CONFIG, {"x"})
        s0, s1s = {}, {}
        assert [run(alone, s0, s1s, *event) for event in events(outer)] == interleaved[i]
    # the drawn-again sample reads "x^2" from its scope, the outer scope "0.3 - d"
    assert len(interleaved[0][4][1]) < len(interleaved[0][0][1])


@pytest.mark.parametrize("binding", [{"x": field.LCNumber.from_real(1.5)}, {"x": 1 + field.eps()}],
                         ids=["real", "series"])
def test_missing_variable_reports_evaluation_error(binding):
    matrix = parse_formula("forall x: any, forall y: any. x < y").matrix
    with pytest.raises(EvaluationError) as e:
        evaluate_matrix(matrix, binding)
    assert "BindingError: unbound variable 'y'" in str(e.value)
    assert "x = " in str(e.value)


def test_evaluate_matrix_takes_numbers_as_reals():
    matrix = parse_formula("forall x: real, forall n: real. x < n").matrix
    assert evaluate_matrix(matrix, {"x": 0.5, "n": 1}) is True
    assert evaluate_matrix(matrix, {"x": 2, "n": field.LCNumber.from_real(1.0)}) is False
    assert evaluate_matrix(matrix, {"x": 0.5, "n": 1 + field.eps()}) is True
    with pytest.raises(TypeError, match=r"^variable 'n' is bound to a str, not a number$"):
        evaluate_matrix(matrix, {"x": 0.5, "n": "1"})


def test_evaluation_error_without_binding_has_no_location():
    with pytest.raises(EvaluationError, match=r"^DomainError: division by zero$"):
        check(parse_formula("1/0 < 1"))
    matrix = parse_formula("forall x: any. x < 1").matrix
    with pytest.raises(EvaluationError, match=r"^BindingError: unbound variable 'x'$"):
        evaluate_matrix(matrix, {})


def _innermost(formula):
    """The innermost block's variables, as check() passes them to _compile."""
    blocks = formulas._blocks(formula.prefix)
    return {q.var for q in blocks[-1][1]} if len(blocks) > 1 else None


# Three blocks with cached sides and bare variables, a guard and eps, and
# one block; {0}-{2} are the variable names.
RENAMED = [
    "forall {0}: positive-real, exists {1}: positive-real, forall {2}: finite. "
    "(0.3 - {1} < {2} and {2} < 0.3 + {1}) => (0.09 - {0} < {2}^2 and {2}^2 < 0.09 + {0})",
    "forall {0}: any, exists {1}: real, forall {2}: any. not ({2} = 0) => {0} * {1} < {2} * {2} + eps",
    "forall {0}: any, forall {1}: real, forall {2}: finite. {0} + {1} < {2} or not ({2} * {1} <= {0})",
]
# Python keywords and builtins, and names the generated function uses itself.
HYGIENE_NAMES = [("lambda", "None", "reals"), ("binding", "s0", "compare"), ("config", "v0", "field"),
                 ("holds", "scopes", "eval_real")]


@pytest.mark.parametrize("names", HYGIENE_NAMES, ids="-".join)
def test_generated_source_carries_no_formula_text(names):
    for template in RENAMED:
        plain, renamed = parse_formula(template.format("p", "q", "r")), parse_formula(template.format(*names))
        back = dict(zip(names, ("p", "q", "r")))
        for seed in (5, 13):
            cfg = SamplerConfig(samples=60, nested_samples=20, witness_pool=20, seed=seed)
            report = check(renamed, cfg).to_json()
            for key in ("counterexample", "witness", "assignment"):
                if key in report:
                    report[key] = {back[name]: value for name, value in report[key].items()}
            assert report == check(plain, cfg).to_json(), (template, seed)
        # the same source whatever the names and constants
        source = formulas._matrix_source(plain.matrix, _innermost(plain))[0]
        assert formulas._matrix_source(renamed.matrix, _innermost(renamed))[0] == source
        other = parse_formula(template.format("p", "q", "r").replace("0.3", "7").replace("0.09", "1e-3"))
        assert formulas._matrix_source(other.matrix, _innermost(other))[0] == source


_PRINT_SOURCES = """
from pathlib import Path
from levicalc import formulas
for path in sorted(Path({dir!r}).glob("*.fof")):
    for _, _, formula in formulas.parse_formula_file(path.read_text()):
        blocks = formulas._blocks(formula.prefix)
        inner = {{q.var for q in blocks[-1][1]}} if len(blocks) > 1 else None
        print(formulas._matrix_source(formula.matrix, inner)[0])
"""


def test_generated_source_does_not_follow_the_hash_seed():
    src = str(Path(formulas.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        outputs.append(subprocess.run([sys.executable, "-c", _PRINT_SOURCES.format(dir=str(FORMULA_DIR))],
                                      env=env, capture_output=True, text=True, check=True).stdout)
    matrices = sum(len(parse_formula_file(path.read_text())) for path in FORMULA_DIR.glob("*.fof"))
    assert outputs[0] == outputs[1] and outputs[0].count("def make") == matrices


def test_a_second_check_compiles_nothing_new(monkeypatch):
    formula = parse_formula(RENAMED[0].format("e", "d", "x"))
    cfg = SamplerConfig(samples=20, nested_samples=10, witness_pool=10, seed=1)
    check(formula, cfg)
    compiled, builtin_compile = [], compile

    def recording_compile(*args, **kwargs):
        compiled.append(args)
        return builtin_compile(*args, **kwargs)

    monkeypatch.setattr("builtins.compile", recording_compile)
    check(formula, cfg)
    check(parse_formula(RENAMED[0].format("a", "b", "c").replace("0.3", "0.5")), cfg)
    assert compiled == []


def test_unknown_atom_operator_fails_at_compile_time():
    with pytest.raises(TypeError, match="not a comparison operator: '~'"):
        formulas._compile(Atom("~", Var("x"), Var("x")), field.DEFAULT_CONFIG)
    with pytest.raises(TypeError, match="not a matrix node"):
        formulas._compile(Not("x < 1"), field.DEFAULT_CONFIG)


def test_replaced_comparisons_and_evaluators_see_every_call(monkeypatch):
    # A tracer may replace these after the matrix is compiled; the compiled
    # matrix must look them up when it runs.
    formula = parse_formula(CACHED_SIDES[0])
    cfg = SamplerConfig(samples=30, nested_samples=20, seed=4)
    targets = [(field, "compare"), (field, "compare_real"), (formulas, "eval_real"), (formulas, "_eval_hyper")]
    originals = {name: getattr(module, name) for module, name in targets}
    counts = []

    def patch_all():
        calls = dict.fromkeys(originals, 0)
        for module, name in targets:
            def counted(*args, _name=name, **kwargs):
                calls[_name] += 1
                return originals[_name](*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        counts.append(calls)

    patch_all()
    before = check(formula, cfg).to_json()
    monkeypatch.undo()
    compile_matrix = formulas._compile

    def compile_then_patch(*args):
        holds = compile_matrix(*args)
        patch_all()
        return holds

    monkeypatch.setattr(formulas, "_compile", compile_then_patch)
    assert check(formula, cfg).to_json() == before
    assert counts[0] == counts[1] and min(counts[0].values()) > 0


def test_equality_tolerance_recorded():
    rep = check(parse_formula("forall x: any. x = x"), SamplerConfig(samples=10, seed=8))
    assert rep.eq_tol == field.DEFAULT_CONFIG.eq_tol


def test_continuity_formulas_within_budget():
    real_src = ("forall e: positive-real, exists d: positive-real, forall x: real. "
                "(0.3 - d < x and x < 0.3 + d) => (0.09 - e < x^2 and x^2 < 0.09 + e)")
    wide_src = real_src.replace("forall x: real", "forall x: finite")
    t0 = time.perf_counter()
    rep = check(parse_formula(real_src), SamplerConfig(seed=6))
    t_real = time.perf_counter() - t0
    assert rep.verdict == "not-falsified"
    t0 = time.perf_counter()
    rep = check(parse_formula(wide_src), SamplerConfig(seed=7))
    t_wide = time.perf_counter() - t0
    assert rep.verdict == "not-falsified"
    assert t_real < 5.0 and t_wide < 5.0, (t_real, t_wide)


@pytest.mark.parametrize("name", ["continuity.fof", "falsified.fof", "ordered_field.fof", "transfer.fof"])
def test_check_reports_match_recorded(name):
    # Reports recorded with the tree-walking matrix evaluator and the
    # Fraction-based sampler: verdicts, counts and counterexamples stay put.
    golden = json.loads(GOLDEN_REPORTS.read_text())
    lines = parse_formula_file((FORMULA_DIR / name).read_text())
    assert {key for key in golden if key.startswith(name + ":")} == {
        f"{name}:{lineno}:{seed}" for lineno, _, _ in lines for seed in (5, 13)}
    for lineno, _, formula in lines:
        for seed in (5, 13):
            report = check(formula, SamplerConfig(samples=300, seed=seed)).to_json()
            assert report == golden[f"{name}:{lineno}:{seed}"], (lineno, seed)
