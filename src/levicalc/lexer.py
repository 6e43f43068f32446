"""Tokenizer shared by the expression, formula, and series-literal parsers.

A source is read as one list of token texts, ended by "".  A token's kind is
read from its first character: a digit starts a number, a letter or "_" a
name, and any other token is a symbol.  Lines and columns are worked out
from the source only when an error is reported.
"""

from __future__ import annotations

import re
from itertools import islice
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


def kind(text: str) -> str:
    """"number", "ident", "end", or the symbol itself."""
    if not text:
        return "end"
    if "0" <= text[0] <= "9":
        return "number"
    return "ident" if text[0] in NAME_START else text


def describe(text: str) -> str:
    return f"'{text}'" if text else "end of input"


def position(src: str, index: int) -> tuple:
    """(line, column), both from 1, of src's index-th token, or of its end
    when index is the number of tokens."""
    token = next(islice(_TOKEN.finditer(src), index, None), None)
    return _line_col(src, len(src) if token is None else token.start())


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
    starts = [token.start() for token in _TOKEN.finditer(src)] + [len(src)]
    return [Token(kind(text), text, *_line_col(src, start)) for text, start in zip(texts, starts)]


class TokenStream:
    """Cursor over a source's token texts, with the usual peek/expect helpers."""

    __slots__ = ("src", "texts", "pos")

    def __init__(self, src: str):
        self.src, self.texts, self.pos = src, scan(src), 0

    def peek(self) -> str:
        return self.texts[self.pos]

    def next(self) -> str:
        text = self.texts[self.pos]
        if text:
            self.pos += 1
        return text

    def match(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, want: str, what: str | None = None) -> str:
        """The next token, consumed, if its kind is ``want``."""
        text = self.texts[self.pos]
        if kind(text) != want:
            raise self.error(f"expected {what or describe(want)}, got {describe(text)}")
        self.pos += 1
        return text

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at token ``index``, by default the next one."""
        return ParseError(message, *position(self.src, self.pos if index is None else index))
