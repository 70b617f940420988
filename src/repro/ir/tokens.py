"""The regex tokenizer and token cursor shared by both surface syntaxes.

The Calyx parser (:mod:`repro.ir.parser`) and the mini-Dahlia parser each
pass only their token pattern (named groups; ``WS`` and ``COMMENT`` are
dropped) and their keyword set; every ``ParseError`` carries the line and
column of the offending character or token.
"""

from __future__ import annotations

from typing import AbstractSet, List, Pattern

from repro.errors import ParseError


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(
    source: str, pattern: Pattern[str], keywords: AbstractSet[str] = frozenset()
) -> List[Token]:
    """Split ``source`` into tokens named by ``pattern``'s groups.

    A ``NAME`` in ``keywords`` becomes a ``KEYWORD``; the list ends with
    an ``EOF`` token.
    """
    tokens: List[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        match = pattern.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = match.group(0)
        kind = match.lastgroup or ""
        if kind == "NAME" and text in keywords:
            kind = "KEYWORD"
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = match.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


class TokenCursor:
    """A position in a token list, with the recursive-descent primitives."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def expect_kind(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.column)
        return tok
