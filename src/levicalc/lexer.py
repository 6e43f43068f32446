"""Tokenizer shared by the expression, formula, and series-literal parsers.

A source is read as one list of token texts, ended by "".  A token's kind is
read from its first character: a digit starts a number, a letter or "_" a
name, and any other token is a symbol.  Each grammar reads the list by
index, as a function of (src, texts, i) that returns what it read and the
index after it.  Lines and columns are worked out from the source only when
an error is reported.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .errors import ParseError

# One pattern, tried at each token start; spaces between tokens match none
# of it.  Numbers and names are ASCII only: str.isdigit also accepts
# superscripts and other scripts' digits, which float() then rejects or
# silently reads, and str.isalpha would take "x²" as one name.  Two-character
# symbols come before their one-character prefixes, and an exponent needs a
# digit ("1e" is 1, e).
_TOKEN = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|<=|=>|[-+*/^()<=,.:]")
# The characters no token takes: any outside the tokens' alphabet and the
# spaces (str.isspace's), ">" included, except a ">" that ends "=>".  Every
# "<" starts a token, so an "=" after "<" ends "<=" ("<=>" is "<=", then a
# bad ">").  One character class and two lookbehinds keep the search in C.
_BAD = re.compile(r"[^\sA-Za-z0-9_+\-*/^()<=,.:](?<![^<]=>)(?<!\A=>)")

NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def scan(src: str) -> list[str]:
    """The token texts of src, then "".  A character that starts no token
    is reported before any grammar error."""
    bad = _BAD.search(src)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", *_line_col(src, bad.start()))
    texts = _TOKEN.findall(src)
    texts.append("")
    return texts


def describe(text: str) -> str:
    return f"'{text}'" if text else "end of input"


def position(src: str, index: int) -> tuple:
    """(line, column), both from 1, of src's index-th token, or of its end
    when index is the number of tokens."""
    return _line_col(src, _starts(src)[index])


@lru_cache(maxsize=8)
def _starts(src: str) -> tuple:
    """The offset of each token of src, then len(src): scanned once per
    source, since a parser may build and drop many errors in one source."""
    return (*(token.start() for token in _TOKEN.finditer(src)), len(src))


def _line_col(src: str, offset: int) -> tuple:
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


class Token(NamedTuple):
    kind: str  # "number", "ident", "end", or the symbol itself
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """Each token of src with its kind and position, then the end."""
    texts = scan(src)
    return [Token("number" if "0" <= text[:1] <= "9" else "ident" if text[:1] in NAME_START else text or "end",
                  text, *_line_col(src, start)) for text, start in zip(texts, _starts(src))]

