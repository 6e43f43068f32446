"""Formula DSL parsing, sampling, and transfer-checker tests."""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from levicalc import field, formulas
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
    _STRATUM_SHAPES,
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

    shapes = _STRATUM_SHAPES[stratum]
    shape = rng.choices(shapes, [1.0] * len(shapes))[0] if len(shapes) > 1 else shapes[0]
    positive = stratum in ("positive", "positive-real")
    bound = formulas._SERIES_BOUND
    if shape == "real":
        return field.LCNumber([(0, coef(*formulas._COEF_RANGE, positive))], config)
    if shape == "infinitesimal":
        lead = coef(-bound, bound, positive)
        return field.LCNumber(terms(exponent(), lead), config)
    if shape == "infinite":
        lead = coef(-bound, bound, positive)
        num, den = exponent()
        return field.LCNumber(terms((-num, den), lead), config)
    return field.LCNumber(terms((0, 1), coef(*formulas._COEF_RANGE, positive)), config)


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
    # _below(n) is randrange(n), 1 + _below(3) is randint(1, 3), and a
    # composite stratum's shape pick is the choice choices(shapes,
    # cum_weights=[1, 2, ...]) makes: the same values and the same state
    # over 10^5 mixed draws.
    monkeypatch.setattr(formulas, "_sample_shape", lambda shape, rng, config, positive: shape)
    ops = [(lambda r, n=n: formulas._below(r.getrandbits, n), lambda r, n=n: r.randrange(n)) for n in range(1, 7)]
    ops.append((lambda r: 1 + formulas._below(r.getrandbits, 3), lambda r: r.randint(1, 3)))
    for stratum in STRATA:
        shapes = _STRATUM_SHAPES[stratum]
        if len(shapes) == 1:  # drawn without a pick
            continue
        ops.append((formulas._drawer(stratum, field.DEFAULT_CONFIG),
                    lambda r, s=shapes: r.choices(s, cum_weights=[1, 2, 3, 4][:len(s)])[0]))
    pick, rng, ref = random.Random(5), random.Random(11), random.Random(11)
    for _ in range(100_000):
        ours, stdlib = pick.choice(ops)
        assert ours(rng) == stdlib(ref)
    assert rng.getstate() == ref.getstate()


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
        with pytest.raises(ValueError):
            stratum_contains(u, "bogus")


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

    def spy_real(e, reals):
        calls.append((id(e), "real", reals.get("e"), reals.get("d"), reals.get("x")))
        return eval_real(e, reals)

    def spy_hyper(e, binding, config):
        calls.append((id(e), "field", binding["e"].terms, binding["d"].terms, binding["x"].terms))
        return eval_hyper(e, binding, config)

    evaluations = []

    def recording_compile(node, *args):
        holds = compile_matrix(node, *args)
        if node is not matrix:
            return holds

        def recorded(binding, reals):
            evaluations.append((binding, reals))
            return holds(binding, reals)

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
    for binding, reals in evaluations:
        plain(binding, reals)
    assert sum(key[0] in squares for key in calls) > 2 * len(per_sample)
    assert sum(key[0] == id(delta_low) for key in calls) > 10 * len(hoisted)


def _uncached(monkeypatch):
    """Make check() compile its matrix without any cached side."""
    compile_matrix = formulas._compile
    monkeypatch.setattr(formulas, "_compile", lambda node, config, *scoping: compile_matrix(node, config))


# Under "forall e, exists d, forall x": a guarded side in x alone, sides in
# x alone that raise at a probe or at a drawn sample, and a side mixing x
# with the witness d.
CACHED_SIDES = [
    "forall e: positive-real, exists d: positive-real, forall x: finite. "
    "not (x = 0) => (1/x < e + d or e + d <= 1/x)",
    "forall e: positive-real, exists d: positive-real, forall x: any. 1/x < e or e <= 1/x",
    "forall e: positive-real, exists d: positive-real, forall x: finite. x*d < e or e < 2 or 1/(x - 1) < e + x*x",
    "forall e: positive-real, exists d: positive-real, forall x: finite. x*d < e and -e < x*d",
    "forall e: positive, exists d: positive, forall x: any. (0 - d < x and x < d) => x*x < e",
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

        def recorded(binding, reals):
            seen.append(("holds", binding, holds(binding, reals)))
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
    scopes = [{}, {}]
    holds = formulas._compile(atom, field.DEFAULT_CONFIG, {"b"}, scopes)
    a = field.LCNumber.from_real(2.0)
    for b in (-1.0, 0.5, 3.0, -1.0):
        b_lc = field.LCNumber.from_real(b)
        scopes[1] = {}  # a new draw of b
        for path, reals in (("real", {"a": 2.0, "b": b}), ("field", None)):
            calls.clear()
            assert holds({"a": a, "b": b_lc, "eps": field.eps()}, reals) is (2.0 * b < b * b)
            assert calls == [(atom.left, path), (atom.right, path)]
            # the same draw again: "b * b" is kept in its scope, "a * b" is not
            calls.clear()
            holds({"a": a, "b": b_lc, "eps": field.eps()}, reals)
            assert calls == [(atom.left, path)]
    assert scopes[0] == {}
    # with "a" innermost, "b * b" does not change and is kept in the outer scope
    holds = formulas._compile(atom, field.DEFAULT_CONFIG, {"a"}, scopes)
    holds({"a": a, "b": a, "eps": field.eps()}, {"a": 2.0, "b": 2.0})
    assert len(scopes[0]) == 1


@pytest.mark.parametrize("binding", [{"x": field.LCNumber.from_real(1.5)}, {"x": 1 + field.eps()}],
                         ids=["real", "series"])
def test_missing_variable_reports_evaluation_error(binding):
    matrix = parse_formula("forall x: any, forall y: any. x < y").matrix
    with pytest.raises(EvaluationError) as e:
        evaluate_matrix(matrix, binding)
    assert "BindingError: unbound variable 'y'" in str(e.value)
    assert "x = " in str(e.value)


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
