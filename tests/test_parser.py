"""The flat parsers against the recursive-descent parsers they replaced.

The reference below is the earlier parser, kept as it was: a cursor over
`tokenize`'s Token tuples, one function per grammar level for expressions,
formulas and series literals.  Each input must give the same tree, or a
ParseError with the same message, line and column, from both.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from levicalc import field, formulas
from levicalc.errors import ParseError
from levicalc.expr import FUNCTIONS, Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var, parse_expr, render_expr
from levicalc.formulas import Atom, Implies, Not, Or, parse_formula
from levicalc.lexer import tokenize

FORMULA_DIR = Path(__file__).resolve().parents[1] / "demos" / "formulas"


# -- the reference: recursive descent over Token tuples --------------------------


class RefStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def match(self, *kinds):
        if self.tokens[self.pos].kind in kinds:
            return self.next()
        return None

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            raise self.error(f"expected {want}, got {describe(tok)}")
        return self.next()

    def error(self, message):
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)


def describe(tok):
    return "end of input" if tok.kind == "end" else f"'{tok.text}'"


_INFIX = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}


def ref_parse_expr(src):
    stream = RefStream(tokenize(src))
    e = ref_expr(stream)
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.line, tok.col)
    return e


def ref_expr(stream, min_prec=1):
    e = ref_unary(stream)
    while True:
        prec, node = _INFIX.get(stream.peek().kind, (0, None))
        if prec < min_prec:
            return e
        stream.next()
        e = node(e, ref_expr(stream, prec + 1))


def ref_unary(stream):
    if stream.match("-"):
        operand = ref_unary(stream)
        if isinstance(operand, Const):
            return Const(-operand.value)
        return Neg(operand)
    return ref_power(stream)


def ref_power(stream):
    base = ref_atom(stream)
    if stream.match("^"):
        sign = -1 if stream.match("-") else 1
        tok = stream.expect("number", "an integer exponent")
        if not tok.text.isdigit():
            raise ParseError(f"power exponents must be integers, got '{tok.text}'", tok.line, tok.col)
        return Pow(base, sign * int(tok.text))
    return base


def ref_atom(stream):
    tok = stream.peek()
    if tok.kind == "number":
        stream.next()
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(f"'{tok.text}' is not a finite number", tok.line, tok.col)
        return Const(value)
    if tok.kind == "ident":
        stream.next()
        if stream.peek().kind == "(":
            if tok.text not in FUNCTIONS:
                raise ParseError(f"unknown function '{tok.text}'", tok.line, tok.col)
            stream.next()
            arg = ref_expr(stream)
            stream.expect(")")
            return Call(tok.text, arg)
        if tok.text in FUNCTIONS:
            raise ParseError(f"expected '(' after function name '{tok.text}'", tok.line, tok.col)
        return Var(tok.text)
    if tok.kind == "(":
        stream.next()
        e = ref_expr(stream)
        stream.expect(")")
        return e
    raise stream.error(f"expected an expression, got {describe(tok)}")


def ref_parse_formula(src):
    stream = RefStream(tokenize(src))
    prefix = []
    while stream.peek().kind == "ident" and stream.peek().text in ("forall", "exists"):
        prefix.append(ref_quantifier(stream))
        tok = stream.next()
        if tok.kind == ",":
            continue
        if tok.kind == ".":
            break
        raise ParseError(f"expected ',' or '.' after quantifier, got '{tok.text or 'end of input'}'",
                         tok.line, tok.col)
    formula = formulas.Formula(tuple(prefix), ref_matrix(stream))
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.line, tok.col)
    formulas._check_bindings(formula)
    return formula


def ref_quantifier(stream):
    kind = stream.next().text
    name = stream.expect("ident", "a variable name")
    if name.text in formulas._KEYWORDS or name.text == "eps":
        raise ParseError(f"'{name.text}' cannot be a quantified variable", name.line, name.col)
    stratum = "any"
    if stream.match(":"):
        tok = stream.expect("ident", "a stratum name")
        stratum = tok.text
        if stratum == "positive" and [t.text for t in stream.tokens[stream.pos:stream.pos + 2]] == ["-", "real"]:
            stream.pos += 2
            stratum = "positive-real"
        if stratum not in formulas._STRATA:
            raise ParseError(f"unknown stratum '{stratum}'", tok.line, tok.col)
    return formulas.Quantifier(kind, name.text, stratum)


def ref_matrix(stream, min_prec=1):
    node = ref_atomf(stream)
    while True:
        prec, join = formulas._JOINS.get(stream.peek().text, (0, None))
        if prec < min_prec:
            return node
        stream.next()
        node = join(node, ref_matrix(stream, prec + (join is not Implies)))


def ref_atomf(stream):
    tok = stream.peek()
    if tok.kind == "ident" and tok.text == "not":
        stream.next()
        return Not(ref_atomf(stream))
    save = stream.pos
    try:
        left = ref_expr(stream)
        op_tok = stream.peek()
        if op_tok.kind in ("<", "<=", "="):
            stream.next()
            return Atom(op_tok.kind, left, ref_expr(stream))
        if tok.kind != "(":
            raise ParseError("expected a comparison operator after the term", op_tok.line, op_tok.col)
    except ParseError:
        if tok.kind != "(":
            raise
    stream.pos = save
    stream.expect("(")
    node = ref_matrix(stream)
    stream.expect(")")
    return node


def ref_parse_lc(text):
    stream = RefStream(tokenize(text))
    if stream.peek().kind == "end":
        raise ParseError("empty series literal")
    terms = []
    while (tok := stream.peek()).kind != "end":
        if terms and not stream.match("+") and tok.kind != "-":
            raise ParseError(f"expected '+' or '-', got '{tok.text}'", tok.line, tok.col)
        sign = 1.0
        while stream.match("-"):
            sign = -sign
        terms.append(ref_lc_term(stream, sign))
    return field.LCNumber(terms)


def ref_lc_term(stream, sign):
    tok = stream.peek()
    if tok.kind == "number":
        stream.next()
        coef = sign * float(tok.text)
        if not math.isfinite(coef):
            raise ParseError(f"'{tok.text}' is not a finite number", tok.line, tok.col)
        if stream.match("*"):
            name = stream.expect("ident", "'eps'")
            if name.text != "eps":
                raise ParseError(f"expected 'eps', got '{name.text}'", name.line, name.col)
            return ref_lc_exponent(stream), coef
        return 0, coef
    if tok.kind == "ident" and tok.text == "eps":
        stream.next()
        return ref_lc_exponent(stream), sign
    raise stream.error(f"expected a term, got {describe(tok)}")


def ref_lc_exponent(stream):
    if not stream.match("^"):
        return 1
    if stream.match("("):
        q = ref_lc_rational(stream)
        stream.expect(")")
        return q
    return ref_lc_rational(stream)


def ref_lc_rational(stream):
    sign = -1 if stream.match("-") else 1
    tok = stream.expect("number", "an integer exponent")
    if not tok.text.isdigit():
        raise ParseError(f"exponent parts must be integers, got '{tok.text}'", tok.line, tok.col)
    num = sign * int(tok.text)
    if stream.match("/"):
        den = stream.expect("number", "an integer denominator")
        if not den.text.isdigit() or int(den.text) == 0:
            raise ParseError(f"bad exponent denominator '{den.text}'", den.line, den.col)
        return Fraction(num, int(den.text))
    return num


# -- inputs ------------------------------------------------------------------------


def gen_source(rng, terms=3, nest=1):
    """Source text in bench/gen.py's style: smooth factors (a primitive of a
    linear term or of another factor, a reciprocal or a power) joined by
    + - *, every subterm parenthesized and negative constants as (-c)."""
    def c(lo, hi):
        v = round(rng.uniform(lo, hi), 3)
        return f"{v:.3f}" if v >= 0 else f"(-{-v:.3f})"

    def power(u, k):
        return f"({u})^{k}" if u[-2] == "^" else f"{u}^{k}"

    def factor(depth):
        u = factor(depth - 1) if depth > 0 and rng.random() < 0.4 else f"(({c(-2, 2)} * x) + {c(-1, 1)})"
        kind = rng.choice(("sin", "cos", "exp", "log", "sqrt", "recip", "poly"))
        if kind in ("sin", "cos"):
            return f"{kind}({u})"
        if kind == "exp":
            return f"exp(({c(-0.8, 0.8)} * {u}))"
        if kind in ("log", "sqrt"):
            return f"{kind}(({c(0.5, 2)} + {power(u, 2)}))"
        if kind == "recip":
            return f"({c(-2, 2)} / ({c(0.5, 2)} + {power(u, 2)}))"
        return power(u, rng.choice((2, 3)))

    src = factor(nest)
    for _ in range(terms - 1):
        src = f"({src} {rng.choice('+-*')} {factor(nest)})"
    return src


def gen_literal(rng):
    """A series literal as format_lc writes it, or with signs and spacing varied."""
    terms = [(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), round(rng.uniform(-5, 5), 3))
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        return field.format_lc(field.LCNumber(terms))
    pieces = []
    for q, coef in terms:
        exp = f"eps^({q.numerator}/{q.denominator})" if q.denominator > 1 else f"eps^{q.numerator}"
        pieces.append(rng.choice(("+", "-", "- -", "")) + f" {abs(coef)}*{exp}")
    return " ".join(pieces)


FORMULA_LINES = [line.split("#", 1)[0].strip() for path in sorted(FORMULA_DIR.glob("*.fof"))
                 for line in path.read_text().splitlines() if line.split("#", 1)[0].strip()]
LITERALS = ["0", "1", "eps", "-eps", "--3", "1 - 2*eps + 0.5*eps^(1/2)", "2*eps^(-2/3) + eps^-1",
            "3 - - eps", "1e-3*eps^2", "7*eps^(4/0)", "eps^2.5", "1 + ", "x", "1 2"]
BAD = ("#", "²", ">", "<=>")


def mutants(rng, src, count):
    """Versions of src with one token deleted, duplicated or swapped with the
    next, a bad character inserted, or a newline inserted."""
    texts = [tok.text for tok in tokenize(src)[:-1]]
    out = []
    for _ in range(count):
        how = rng.choice(("delete", "duplicate", "swap", "bad", "newline"))
        if how in ("bad", "newline"):
            at = rng.randint(0, len(src))
            out.append(src[:at] + (rng.choice(BAD) if how == "bad" else "\n") + src[at:])
            continue
        pieces, i = list(texts), rng.randrange(len(texts))
        if how == "delete":
            del pieces[i]
        elif how == "duplicate":
            pieces.insert(i, pieces[i])
        elif i + 1 < len(pieces):
            pieces[i], pieces[i + 1] = pieces[i + 1], pieces[i]
        out.append(" ".join(pieces))
    return out


def outcome(parse, src):
    try:
        result = parse(src)
    except ParseError as e:
        return "ParseError", str(e), e.line, e.col
    except ValueError as e:  # BindingError from a formula that parsed
        return type(e).__name__, str(e)
    return result.terms if isinstance(result, field.LCNumber) else result


def assert_same(parse, reference, src):
    assert outcome(parse, src) == outcome(reference, src), repr(src)


# -- the tests -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_expressions_match_the_recursive_parser(seed):
    rng = random.Random(seed)
    for _ in range(150):
        src = gen_source(rng, terms=rng.randint(1, 4), nest=rng.randint(0, 2))
        tree = ref_parse_expr(src)
        assert parse_expr(src) == tree
        # The renderer's minimal parentheses, and an unparenthesized chain
        # with unary minus and powers.
        for variant in (render_expr(tree), src.replace("(", "").replace(")", "")):
            assert_same(parse_expr, ref_parse_expr, variant)
        for variant in mutants(rng, src, 6) + mutants(rng, render_expr(tree), 4):
            assert_same(parse_expr, ref_parse_expr, variant)


@pytest.mark.parametrize("src", ["", "-", "x^", "x^-", "x^2^3", "x^-2", "-2^2", "--2", "-(2)", "-(2)^2",
                                 "a*-b*c", "a - -b", "sin", "sin()", "foo(x)", "sin x", "1e400",
                                 "2^1.5", "2^1e3", "x^(2)", "(x", "x)", "((x)", "1 +\n\n  2 )",
                                 "exp(x, y)", "x + #", "x\t+ ²", "x => y", "<=>", " x ++ y"])
def test_expression_edge_cases_match_the_recursive_parser(src):
    assert_same(parse_expr, ref_parse_expr, src)


@pytest.mark.parametrize("seed", range(2))
def test_formulas_match_the_recursive_parser(seed):
    rng = random.Random(seed)
    for line in FORMULA_LINES:
        assert parse_formula(line) == ref_parse_formula(line)
        for variant in mutants(rng, line, 25):
            assert_same(parse_formula, ref_parse_formula, variant)


@pytest.mark.parametrize("src", ["not", "forall", "forall x", "forall x:", "forall x: positive-", "forall x: real x < 1",
                                 "forall x: bogus. x < 1", "forall eps. eps < 1", "forall not. 1 < 2",
                                 "((1 < 2))", "((1) < 2)", "(1 < 2", "not not (1 < 2 or 2 < 1) => 1 = 1 => 2 < 3",
                                 "1 < 2 and (2 < 3 or 1 = 1) and not 3 < 1", "(x)", "1 < 2 )", "1", "forall x. x"])
def test_formula_edge_cases_match_the_recursive_parser(src):
    assert_same(parse_formula, ref_parse_formula, src)


@pytest.mark.parametrize("seed", range(2))
def test_series_literals_match_the_recursive_parser(seed):
    rng = random.Random(seed)
    sources = LITERALS + [gen_literal(rng) for _ in range(60)]
    for src in sources:
        assert_same(field.parse_lc, ref_parse_lc, src)
        for variant in mutants(rng, src, 8) if src else ():
            assert_same(field.parse_lc, ref_parse_lc, variant)


# -- nesting deeper than Python's recursion limit ----------------------------------


def _depth(e, child):
    n = 0
    while True:
        e = child(e)
        if e is None:
            return n
        n += 1


def test_deep_nesting_parses_on_an_explicit_stack():
    # The recursive parser took four frames per level and failed near 250.
    assert parse_expr("(" * 5000 + "x" + ")" * 5000) == Var("x")
    assert _depth(parse_expr(" - " * 5000 + "x"), lambda e: getattr(e, "operand", None)) == 5000
    assert parse_expr("-" * 5001 + "2") == Const(-2.0)
    assert _depth(parse_expr("sin(" * 3000 + "x" + ")" * 3000), lambda e: getattr(e, "arg", None)) == 3000
    assert _depth(parse_expr(" + ".join(["x"] * 5000)), lambda e: getattr(e, "left", None)) == 4999
    with pytest.raises(ParseError) as info:
        parse_expr("(" * 5000 + "x")
    assert (str(info.value), info.value.line, info.value.col) == ("1:5002: expected ')', got end of input", 1, 5002)


def test_deep_formulas_parse_on_an_explicit_stack():
    head = "forall x: real. "
    assert parse_formula(head + "(" * 400 + "x < 1" + ")" * 400).matrix == Atom("<", Var("x"), Const(1.0))
    assert parse_formula(head + "(" * 400 + "x" + ")" * 400 + " < 1").matrix == Atom("<", Var("x"), Const(1.0))
    nots = parse_formula(head + "not " * 5000 + "x < 1").matrix
    assert _depth(nots, lambda node: getattr(node, "operand", None)) == 5000
    chain = parse_formula(head + " => ".join(["x < 1"] * 3000)).matrix
    assert _depth(chain, lambda node: node.right if isinstance(node, Implies) else None) == 2999
    chain = parse_formula(head + " or ".join(["x < 1"] * 3000)).matrix
    assert _depth(chain, lambda node: node.left if isinstance(node, Or) else None) == 2999
    with pytest.raises(ParseError, match=r"^1:\d+: expected '\)', got end of input$"):
        parse_formula(head + "(" * 400 + "x < 1" + ")" * 399)
