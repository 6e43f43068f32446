"""Tokenizer shared by the expression, formula, and series-literal parsers."""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError

# Two-character symbols must come before their one-character prefixes.
_SYMBOLS = ("<=", "=>", "+", "-", "*", "/", "^", "(", ")", "<", "=", ",", ".", ":")
# Numbers are ASCII only: str.isdigit also accepts superscripts and other
# scripts' digits, which float() then rejects or silently reads.
_DIGITS = "0123456789"


class Token(NamedTuple):
    kind: str  # "number", "ident", "end", or the symbol itself
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
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
            text = src[i:j]
            tokens.append(Token("number", text, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            tokens.append(Token("ident", text, line, col))
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
