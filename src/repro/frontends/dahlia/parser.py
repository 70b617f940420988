"""Recursive-descent parser for mini-Dahlia.

Grammar sketch::

    program   := decl* block
    decl      := "decl" NAME ":" type ";"
    type      := "ubit" "<" INT ">" ("[" INT ("bank" INT)? "]")*
    block     := unordered ("---" unordered)*
    unordered := stmt (";" stmt)* ";"?
    stmt      := let | assign | if | while | for | "{" block "}"
    let       := "let" NAME (":" type)? "=" expr
    assign    := NAME ("[" expr "]")* ":=" expr
    for       := "for" "(" "let" NAME (":" type)? "=" INT ".." INT ")"
                 ("unroll" INT)? "{" block "}"

Expression precedence (loosest to tightest): comparisons, shifts,
additive, multiplicative, atoms.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.frontends.dahlia.ast import (
    ArrayType,
    AssignMem,
    AssignVar,
    BinOp,
    Decl,
    Expr,
    For,
    If,
    IntLit,
    Let,
    MemRead,
    OrderedSeq,
    Program,
    Stmt,
    UBit,
    UnorderedSeq,
    VarRef,
    While,
)
from repro.ir.tokens import TokenCursor, tokenize


TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>//[^\n]*|/\*.*?\*/)
  | (?P<SEP>---)
  | (?P<RANGE>\.\.)
  | (?P<INT>\d+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>:=|<<|>>|<=|>=|==|!=|[{}()\[\];:=<>+\-*/%,])
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = {
    "decl",
    "let",
    "if",
    "else",
    "while",
    "for",
    "unroll",
    "bank",
    "ubit",
}


class _Parser(TokenCursor):
    def __init__(self, source: str):
        super().__init__(tokenize(source, TOKEN_RE, KEYWORDS))

    # -- program ------------------------------------------------------------
    def parse_program(self) -> Program:
        decls: List[Decl] = []
        while self.at("decl"):
            decls.append(self.parse_decl())
        body = self.parse_block(stop={"EOF-SENTINEL"})
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return Program(decls, body)

    def parse_decl(self) -> Decl:
        self.expect("decl")
        name = self.expect_kind("NAME").text
        self.expect(":")
        type_ = self.parse_type()
        self.expect(";")
        if not isinstance(type_, ArrayType):
            raise ParseError(f"decl {name!r} must be an array type")
        return Decl(name, type_)

    def parse_type(self):
        self.expect("ubit")
        self.expect("<")
        width = int(self.expect_kind("INT").text)
        self.expect(">")
        dims: List[Tuple[int, int]] = []
        while self.at("["):
            self.next()
            size = int(self.expect_kind("INT").text)
            banks = 1
            if self.accept("bank"):
                banks = int(self.expect_kind("INT").text)
            self.expect("]")
            dims.append((size, banks))
        if dims:
            return ArrayType(UBit(width), dims)
        return UBit(width)

    # -- statements -----------------------------------------------------------
    def parse_block(self, stop: set) -> Stmt:
        """Parse ``---``-separated sections of ``;``-separated statements."""
        sections: List[Stmt] = []
        while True:
            section = self.parse_unordered()
            sections.append(section)
            if not self.accept("---"):
                break
        if len(sections) == 1:
            return sections[0]
        return OrderedSeq(sections)

    def parse_unordered(self) -> Stmt:
        stmts: List[Stmt] = [self.parse_stmt()]
        while self.accept(";"):
            if self.peek().kind == "EOF" or self.peek().text in ("}", "---"):
                break
            stmts.append(self.parse_stmt())
        if len(stmts) == 1:
            return stmts[0]
        return UnorderedSeq(stmts)

    def parse_braced_block(self) -> Stmt:
        self.expect("{")
        block = self.parse_block(stop={"}"})
        self.expect("}")
        return block

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text == "let":
            return self.parse_let()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "{":
            return self.parse_braced_block()
        if tok.kind == "NAME":
            return self.parse_assign()
        raise ParseError(f"expected a statement, found {tok.text!r}", tok.line, tok.column)

    def parse_let(self) -> Let:
        self.expect("let")
        name = self.expect_kind("NAME").text
        type_: Optional[UBit] = None
        if self.accept(":"):
            parsed = self.parse_type()
            if not isinstance(parsed, UBit):
                raise ParseError(f"let {name!r} cannot have an array type")
            type_ = parsed
        self.expect("=")
        return Let(name, type_, self.parse_expr())

    def parse_assign(self) -> Stmt:
        name = self.expect_kind("NAME").text
        indices: List[Expr] = []
        while self.at("["):
            self.next()
            indices.append(self.parse_expr())
            self.expect("]")
        self.expect(":=")
        value = self.parse_expr()
        if indices:
            return AssignMem(name, indices, value)
        return AssignVar(name, value)

    def parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_braced_block()
        orelse: Optional[Stmt] = None
        if self.accept("else"):
            orelse = self.parse_braced_block()
        return If(cond, then, orelse)

    def parse_while(self) -> While:
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return While(cond, self.parse_braced_block())

    def parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        self.expect("let")
        var = self.expect_kind("NAME").text
        var_type: Optional[UBit] = None
        if self.accept(":"):
            parsed = self.parse_type()
            if not isinstance(parsed, UBit):
                raise ParseError("loop variables must have scalar types")
            var_type = parsed
        self.expect("=")
        start = int(self.expect_kind("INT").text)
        self.expect("..")
        end = int(self.expect_kind("INT").text)
        self.expect(")")
        unroll = 1
        if self.accept("unroll"):
            unroll = int(self.expect_kind("INT").text)
        body = self.parse_braced_block()
        if end < start:
            raise ParseError(f"empty loop range {start}..{end}")
        return For(var, var_type, start, end, unroll, body)

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        left = self.parse_shift()
        tok = self.peek()
        if tok.text in ("<", ">", "<=", ">=", "==", "!="):
            self.next()
            right = self.parse_shift()
            return BinOp(tok.text, left, right)
        return left

    def parse_shift(self) -> Expr:
        left = self.parse_add()
        while self.peek().text in ("<<", ">>"):
            op = self.next().text
            left = BinOp(op, left, self.parse_add())
        return left

    def parse_add(self) -> Expr:
        left = self.parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            left = BinOp(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> Expr:
        left = self.parse_atom()
        while self.peek().text in ("*", "/", "%"):
            op = self.next().text
            left = BinOp(op, left, self.parse_atom())
        return left

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "INT":
            self.next()
            return IntLit(int(tok.text))
        if tok.kind == "NAME":
            self.next()
            if self.at("["):
                indices: List[Expr] = []
                while self.accept("["):
                    indices.append(self.parse_expr())
                    self.expect("]")
                return MemRead(tok.text, indices)
            return VarRef(tok.text)
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.line, tok.column)


def parse(source: str) -> Program:
    """Parse mini-Dahlia source into an AST."""
    return _Parser(source).parse_program()
