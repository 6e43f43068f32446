"""Tokenizer shared by the expression, formula, and series-literal parsers."""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

# One master pattern: spaces, then the first alternative that matches.
# Numbers and names are ASCII only: str.isdigit also accepts superscripts and
# other scripts' digits, which float() then rejects or silently reads, and
# str.isalpha would take "x²" as one name.  Two-character symbols come before
# their one-character prefixes, and an exponent needs a digit ("1e" is 1, e).
# Spaces are str.isspace's, one column each; "bad" is any other character.
_TOKEN = re.compile(r"""[^\S\n]*(?:
    (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol><=|=>|[-+*/^()<=,.:])
  | (?P<newline>\n)
  | (?P<bad>\S))""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # "number", "ident", "end", or the symbol itself
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):  # only trailing spaces match nothing
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        text, col = m[kind], m.start(kind) - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append(Token(text if kind == "symbol" else kind, text, line, col))
    tokens.append(Token("end", "", line, len(src) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def match(self, *kinds: str) -> Token | None:
        if self.tokens[self.pos].kind in kinds:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            raise self.error(f"expected {want}, got {self._describe(tok)}")
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind == "end":
            return "end of input"
        return f"'{tok.text}'"
