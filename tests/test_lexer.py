"""The one-pattern tokenizer against the character-by-character scanner it replaced."""

import random
import string

import pytest

from levicalc.errors import ParseError
from levicalc.lexer import Token, tokenize

_SYMBOLS = ("<=", "=>", "+", "-", "*", "/", "^", "(", ")", "<", "=", ",", ".", ":")
_DIGITS = "0123456789"
_IDENT_START = string.ascii_letters + "_"
_IDENT_CHARS = _IDENT_START + _DIGITS


def scan(src):
    """The reference: one character at a time."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            if j < n and src[j] == "." and j + 1 < n and src[j + 1] in _DIGITS:
                j += 1
                while j < n and src[j] in _DIGITS:
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k] in _DIGITS:
                    j = k
                    while j < n and src[j] in _DIGITS:
                        j += 1
            tokens.append(Token("number", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and src[j] in _IDENT_CHARS:
                j += 1
            tokens.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


def outcome(tokenizer, src):
    try:
        return tokenizer(src)
    except ParseError as e:
        return "ParseError", str(e), e.line, e.col


# Pieces that meet the scanner's edge cases: exponents with and without
# digits, a dot with and without a fraction, two-character symbols and their
# prefixes, every kind of line break and space, and non-ASCII digits, letters
# and spaces.
PIECES = ["1", "23", "4.5", "6.", ".7", "1e", "1e5", "2E-3", "3e+", "4e+x", "5.e2", "0.25e-1x",
          "x", "_a1", "sin", "eps", "\u00e9", "x\u00b2", "\u00b2", "\u0661", "\u00bd",
          "<=", "=>", "<", "=", "<=>", "+", "-", "*", "/", "^", "(", ")", ",", ".", ":",
          " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2003", "\u3000",
          "!", "#", "$", "?", "[", "~", "\\", "'", '"', "\x00"]


@pytest.mark.parametrize("seed", range(4))
def test_tokenize_matches_the_character_scanner(seed):
    rng = random.Random(seed)
    for _ in range(5000):
        src = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
        assert outcome(tokenize, src) == outcome(scan, src), repr(src)


@pytest.mark.parametrize("src", ["", "x", "1.5e-3*sin(x)", "a <= b => c", "x +\n\n  y\r\n*\t2",
                                 "forall x: x = x", "2²", "x + 1", "1e+", "12.x"])
def test_tokenize_matches_the_character_scanner_on_examples(src):
    assert outcome(tokenize, src) == outcome(scan, src)
