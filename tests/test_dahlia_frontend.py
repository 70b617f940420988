"""Tests for the mini-Dahlia frontend: lexer, parser, typechecker."""

import pytest

from repro.errors import ParseError, TypeError_
from repro.frontends.dahlia import parse, typecheck
from repro.frontends.dahlia.ast import (
    ArrayType,
    AssignMem,
    AssignVar,
    BinOp,
    For,
    If,
    IntLit,
    Let,
    MemRead,
    OrderedSeq,
    UBit,
    UnorderedSeq,
    VarRef,
    While,
    children,
    exprs,
    map_expr,
    map_stmt,
    walk,
    walk_exprs,
)
from repro.frontends.dahlia.parser import KEYWORDS, TOKEN_RE
from repro.ir.tokens import tokenize as tokenize_with


def tokenize(source):
    return tokenize_with(source, TOKEN_RE, KEYWORDS)


class TestLexer:
    def test_tokens(self):
        tokens = tokenize("let x := 0..8 --- // comment\n y")
        kinds = [t.kind for t in tokens]
        assert "SEP" in kinds
        assert "RANGE" in kinds
        assert kinds[-1] == "EOF"

    def test_keywords_tagged(self):
        tokens = tokenize("for unroll bank")
        assert all(t.kind == "KEYWORD" for t in tokens[:-1])

    def test_error_position(self):
        with pytest.raises(ParseError):
            tokenize("let x = `")


class TestParser:
    def test_decl(self):
        prog = parse("decl A: ubit<32>[8 bank 2][4];\nA[0][0] := 1")
        assert prog.decls[0].name == "A"
        assert prog.decls[0].type.dims == [(8, 2), (4, 1)]

    def test_let_with_type(self):
        prog = parse("let x: ubit<8> = 1 + 2")
        assert isinstance(prog.body, Let)
        assert prog.body.type == UBit(8)

    def test_ordered_vs_unordered(self):
        prog = parse("let a: ubit<8> = 1; let b: ubit<8> = 2 --- a := b")
        assert isinstance(prog.body, OrderedSeq)
        assert isinstance(prog.body.stmts[0], UnorderedSeq)

    def test_for_with_unroll(self):
        prog = parse("decl A: ubit<8>[4];\nfor (let i = 0..4) unroll 2 { A[i] := 1 }")
        loop = prog.body
        assert isinstance(loop, For)
        assert loop.unroll == 2
        assert (loop.start, loop.end) == (0, 4)

    def test_if_else(self):
        prog = parse(
            "let x: ubit<8> = 1 --- if (x < 2) { x := 1 } else { x := 0 }"
        )
        cond = prog.body.stmts[1]
        assert isinstance(cond, If)
        assert cond.orelse is not None

    def test_while(self):
        prog = parse("let x: ubit<8> = 0 --- while (x < 4) { x := x + 1 }")
        assert isinstance(prog.body.stmts[1], While)

    def test_precedence(self):
        prog = parse("let x: ubit<8> = 1 + 2 * 3")
        init = prog.body.init
        assert isinstance(init, BinOp) and init.op == "+"
        assert isinstance(init.right, BinOp) and init.right.op == "*"

    def test_memory_access(self):
        prog = parse("decl A: ubit<8>[4][4];\nA[1][2] := A[2][1]")
        stmt = prog.body
        assert isinstance(stmt, AssignMem)
        assert isinstance(stmt.value, MemRead)
        assert len(stmt.value.indices) == 2

    def test_empty_range_rejected(self):
        with pytest.raises(ParseError):
            parse("for (let i = 4..0) { i := 1 }")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("let x: ubit<8> = 1 }")


class TestTypecheck:
    def check(self, src):
        return typecheck(parse(src))

    def test_widths_annotated(self):
        prog = self.check("decl A: ubit<16>[4];\nlet x: ubit<16> = A[0] + 1")
        assert prog.body.init.width == 16

    def test_let_width_inferred(self):
        prog = self.check("decl A: ubit<16>[4];\nlet x = A[1]")
        assert prog.body.type == UBit(16)

    def test_uninferable_let_rejected(self):
        with pytest.raises(TypeError_):
            self.check("let x = 3")

    def test_undefined_variable(self):
        with pytest.raises(TypeError_):
            self.check("y := 1")

    def test_undefined_memory(self):
        with pytest.raises(TypeError_):
            self.check("A[0] := 1")

    def test_dimension_mismatch(self):
        with pytest.raises(TypeError_):
            self.check("decl A: ubit<8>[4][4];\nA[0] := 1")

    def test_redefinition_same_scope(self):
        with pytest.raises(TypeError_):
            self.check("let x: ubit<8> = 1 --- let x: ubit<8> = 2")

    def test_body_local_let_in_loop_ok(self):
        self.check(
            "decl A: ubit<8>[4];\n"
            "for (let i = 0..4) { let t: ubit<8> = 1 --- A[i] := t }"
        )

    @pytest.mark.parametrize(
        "body",
        [
            "for (let i = 0..3) { A[i] := i --- for (let i = 0..4) { B[i] := i } }",
            "let i: ubit<8> = 5 --- for (let i = 0..4) { B[i] := i } --- A[0] := i",
        ],
        ids=["loop-in-loop", "loop-over-let"],
    )
    def test_loop_variable_shadowing_rejected(self, body):
        # Lowering turns a loop into a counter `let`, which the Calyx
        # backend does not scope: a shadowing counter would clobber the
        # outer binding.
        with pytest.raises(TypeError_, match="'i' shadows a binding"):
            self.check("decl A: ubit<8>[4];\ndecl B: ubit<8>[4];\n" + body)

    def test_unordered_write_write_conflict(self):
        with pytest.raises(TypeError_):
            self.check("let x: ubit<8> = 0 --- x := 1; x := 2")

    def test_unordered_read_write_conflict(self):
        with pytest.raises(TypeError_):
            self.check(
                "let x: ubit<8> = 0; let y: ubit<8> = 0 --- x := 1; y := x"
            )

    def test_unordered_memory_read_read_conflict(self):
        with pytest.raises(TypeError_):
            self.check(
                "decl A: ubit<8>[4];\nlet x = A[0]; let y = A[1]"
            )

    def test_unordered_independent_ok(self):
        self.check("let x: ubit<8> = 1; let y: ubit<8> = 2")

    def test_unroll_must_divide_trip(self):
        with pytest.raises(TypeError_):
            self.check(
                "decl A: ubit<8>[5 bank 3];\n"
                "for (let i = 0..5) unroll 3 { A[i] := 1 }"
            )

    def test_banked_dim_needs_unroll_var(self):
        with pytest.raises(TypeError_):
            self.check(
                "decl A: ubit<8>[4 bank 2];\n"
                "for (let i = 0..4) unroll 2 { A[0] := 1 }"
            )

    def test_bank_factor_must_match_unroll(self):
        with pytest.raises(TypeError_):
            self.check(
                "decl A: ubit<8>[4 bank 4];\n"
                "for (let i = 0..4) unroll 2 { A[i] := 1 }"
            )

    def test_unbanked_dim_cannot_use_unroll_var(self):
        with pytest.raises(TypeError_):
            self.check(
                "decl A: ubit<8>[4];\n"
                "for (let i = 0..4) unroll 2 { A[i] := 1 }"
            )

    def test_write_to_outer_var_in_unrolled_body(self):
        with pytest.raises(TypeError_):
            self.check(
                "decl A: ubit<8>[4 bank 2];\n"
                "let acc: ubit<8> = 0\n"
                "---\n"
                "for (let i = 0..4) unroll 2 { acc := acc + A[i] }"
            )

    def test_multiply_in_condition_rejected(self):
        with pytest.raises(TypeError_):
            self.check(
                "let x: ubit<8> = 1 --- if (x * 2 > 3) { x := 0 }"
            )

    def test_valid_banked_unroll(self):
        self.check(
            "decl A: ubit<8>[4 bank 2];\n"
            "for (let i = 0..4) unroll 2 { A[i] := 1 }"
        )


class TestTraversal:
    SOURCE = (
        "decl A: ubit<8>[4][4];\n"
        "let x: ubit<8> = 1 --- "
        "if (x < 2) { A[x][x + 1] := A[0][x] } else { while (x > 0) { x := x - 1 } }"
    )

    def test_walk_is_pre_order(self):
        prog = typecheck(parse(self.SOURCE))
        kinds = [type(s).__name__ for s in walk(prog.body)]
        assert kinds == ["OrderedSeq", "Let", "If", "AssignMem", "While", "AssignVar"]

    def test_exprs_follow_evaluation_order(self):
        write = typecheck(parse(self.SOURCE)).body.stmts[1].then
        assert [type(e).__name__ for e in exprs(write)] == ["VarRef", "BinOp", "MemRead"]
        names = [e.name for e in walk_exprs(write) if isinstance(e, VarRef)]
        assert names == ["x", "x", "x"]
        assert children(write) == []

    def test_map_expr_is_bottom_up_and_keeps_widths(self):
        value = typecheck(parse(self.SOURCE)).body.stmts[1].then.value
        seen = []

        def fn(expr):
            seen.append(type(expr).__name__)
            return IntLit(3) if isinstance(expr, VarRef) else expr

        rebuilt = map_expr(value, fn)
        assert seen == ["IntLit", "VarRef", "MemRead"]
        assert rebuilt is not value and rebuilt.width == value.width == 8
        assert [i.value for i in rebuilt.indices] == [0, 3]
        assert value.indices[1].name == "x"

    def test_map_stmt_pre_replaces_a_subtree(self):
        prog = typecheck(parse(self.SOURCE))
        out = map_stmt(prog.body, pre=lambda s: AssignVar("x", IntLit(0)) if isinstance(s, If) else None)
        assert [type(s).__name__ for s in walk(out)] == ["OrderedSeq", "Let", "AssignVar"]
        assert isinstance(prog.body.stmts[1], If)
