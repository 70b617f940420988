"""Parser for the Calyx surface syntax.

A regex tokenizer plus a recursive-descent parser covering the language of
the paper: components with ``cells``/``wires``/``control`` sections, groups
(including ``comb group``), guarded assignments, sized constants
(``32'd10``), attributes (``<"static"=1>`` and the ``@attr`` shorthand),
``extern`` blocks, and the full control language.

Bare integer literals in assignment sources (the paper writes
``x_reg.in = 1;``) are accepted and sized from the destination port after
parsing, once all signatures are known.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.errors import ParseError, ValidationError
from repro.ir.ast import (
    Assignment,
    Cell,
    CellPort,
    Component,
    ConstPort,
    ExternDef,
    Group,
    HolePort,
    PortRef,
    Program,
    ThisPort,
)
from repro.ir.attributes import Attributes
from repro.ir.control import Control, Empty, Enable, If, Invoke, Par, Repeat, Seq, While
from repro.ir.guards import (
    G_TRUE,
    AndGuard,
    CmpGuard,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
    fold,
)
from repro.ir.tokens import TokenCursor, tokenize
from repro.ir.types import Direction, PortDef, Span

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>//[^\n]*|/\*.*?\*/)
  | (?P<CONST>\d+'d\d+)
  | (?P<INT>\d+)
  | (?P<STRING>"[^"]*")
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><=|>=|==|!=|->|[{}()\[\].,;:=<>?!&|@])
    """,
    re.VERBOSE | re.DOTALL,
)


class _UnsizedConst(PortRef):
    """Placeholder for a bare integer literal; sized after parsing."""

    __slots__ = ("value", "line", "column")

    def __init__(self, value: int, line: int, column: int):
        self.value = value
        self.line = line
        self.column = column

    def to_string(self) -> str:
        return str(self.value)


class _Parser(TokenCursor):
    def __init__(self, source: str):
        super().__init__(tokenize(source, _TOKEN_RE))

    # -- program --------------------------------------------------------
    def parse_program(self) -> Program:
        program = Program()
        while self.peek().kind != "EOF":
            if self.at("import"):
                self.next()
                self.expect_kind("STRING")
                self.expect(";")
            elif self.at("extern"):
                program.externs.append(self.parse_extern())
            elif self.at("component") or self.at("@"):
                program.components.append(self.parse_component())
            else:
                tok = self.peek()
                raise ParseError(
                    f"expected component, extern, or import, found {tok.text!r}",
                    tok.line,
                    tok.column,
                )
        _resolve_constants(program)
        return program

    def parse_extern(self) -> ExternDef:
        self.expect("extern")
        path = self.expect_kind("STRING").text.strip('"')
        self.expect("{")
        comps: List[Component] = []
        while not self.at("}"):
            comps.append(self.parse_component(signature_only=True))
        self.expect("}")
        return ExternDef(path, comps)

    # -- component --------------------------------------------------------
    def parse_component(self, signature_only: bool = False) -> Component:
        start = self.peek()
        attrs = self._parse_at_attributes()
        self.expect("component")
        name = self.expect_kind("NAME").text
        attrs = _merge(attrs, self._parse_angle_attributes())
        self.expect("(")
        inputs = self._parse_port_defs(Direction.INPUT)
        self.expect(")")
        self.expect("->")
        self.expect("(")
        outputs = self._parse_port_defs(Direction.OUTPUT)
        self.expect(")")
        comp = Component(name, inputs, outputs, attrs)
        comp.span = Span(start.line, start.column)
        if signature_only:
            self.accept(";")
            return comp
        if self.accept(";"):
            return comp
        self.expect("{")
        while not self.at("}"):
            if self.at("cells"):
                self.next()
                self.expect("{")
                while not self.at("}"):
                    comp.add_cell(self.parse_cell())
                self.expect("}")
            elif self.at("wires"):
                self.next()
                self.expect("{")
                while not self.at("}"):
                    if self.at("group") or (self.at("comb") and self.peek(1).text == "group"):
                        comp.add_group(self.parse_group())
                    else:
                        comp.continuous.append(self.parse_assignment())
                self.expect("}")
            elif self.at("control"):
                self.next()
                self.expect("{")
                stmts: List[Control] = []
                while not self.at("}"):
                    stmts.append(self.parse_control())
                self.expect("}")
                if len(stmts) == 1:
                    comp.control = stmts[0]
                elif stmts:
                    comp.control = Seq(stmts)
            else:
                tok = self.peek()
                raise ParseError(
                    f"expected cells, wires, or control, found {tok.text!r}",
                    tok.line,
                    tok.column,
                )
        self.expect("}")
        return comp

    def _parse_port_defs(self, direction: Direction) -> List[PortDef]:
        ports: List[PortDef] = []
        while not self.at(")"):
            attrs = self._parse_at_attributes()
            name = self.expect_kind("NAME").text
            self.expect(":")
            width = int(self.expect_kind("INT").text)
            ports.append(PortDef(name, width, direction, attrs))
            if not self.accept(","):
                break
        return ports

    # -- cells ----------------------------------------------------------
    def parse_cell(self) -> Cell:
        start = self.peek()
        attrs = self._parse_at_attributes()
        external = attrs.has("external")
        attrs.remove("external")
        name = self.expect_kind("NAME").text
        attrs = _merge(attrs, self._parse_angle_attributes())
        self.expect("=")
        comp_name = self.expect_kind("NAME").text
        args: List[int] = []
        self.expect("(")
        while not self.at(")"):
            args.append(int(self.expect_kind("INT").text))
            if not self.accept(","):
                break
        self.expect(")")
        self.expect(";")
        cell = Cell(name, comp_name, args, attrs, external)
        cell.span = Span(start.line, start.column)
        return cell

    # -- wires -----------------------------------------------------------
    def parse_group(self) -> Group:
        start = self.peek()
        comb = self.accept("comb")
        self.expect("group")
        name = self.expect_kind("NAME").text
        attrs = self._parse_angle_attributes()
        self.expect("{")
        assigns: List[Assignment] = []
        while not self.at("}"):
            assigns.append(self.parse_assignment())
        self.expect("}")
        group = Group(name, assigns, attrs, comb)
        group.span = Span(start.line, start.column)
        return group

    def parse_assignment(self) -> Assignment:
        start = self.peek()
        dst = self.parse_port()
        self.expect("=")
        guard, src = self.parse_guarded_src()
        self.expect(";")
        assign = Assignment(dst, src, guard)
        assign.span = Span(start.line, start.column)
        return assign

    def parse_guarded_src(self) -> Tuple[Guard, PortRef]:
        """Parse ``[guard ?] src`` resolving the guard/source ambiguity."""
        expr = self.parse_guard_or()
        if self.accept("?"):
            return expr, self.parse_port()
        # No '?': the expression must be a bare port used as the source.
        if isinstance(expr, PortGuard):
            return G_TRUE, expr.port
        tok = self.peek()
        raise ParseError(
            "expected '?' after guard expression", tok.line, tok.column
        )

    # -- guards ------------------------------------------------------------
    def parse_guard_or(self) -> Guard:
        left = self.parse_guard_and()
        while self.accept("|"):
            left = OrGuard(left, self.parse_guard_and())
        return left

    def parse_guard_and(self) -> Guard:
        left = self.parse_guard_not()
        while self.accept("&"):
            left = AndGuard(left, self.parse_guard_not())
        return left

    def parse_guard_not(self) -> Guard:
        if self.accept("!"):
            return NotGuard(self.parse_guard_not())
        return self.parse_guard_atom()

    def parse_guard_atom(self) -> Guard:
        if self.accept("("):
            inner = self.parse_guard_or()
            self.expect(")")
            return inner
        left = self.parse_port()
        op_tok = self.peek()
        if op_tok.text in ("==", "!=", "<", ">", "<=", ">="):
            self.next()
            right = self.parse_port()
            return CmpGuard(op_tok.text, left, right)
        return PortGuard(left)

    # -- ports -------------------------------------------------------------
    def parse_port(self) -> PortRef:
        tok = self.peek()
        if tok.kind == "CONST":
            self.next()
            width_text, value_text = tok.text.split("'d")
            return ConstPort(int(width_text), int(value_text))
        if tok.kind == "INT":
            self.next()
            return _UnsizedConst(int(tok.text), tok.line, tok.column)
        name = self.expect_kind("NAME").text
        if self.accept("."):
            port = self.expect_kind("NAME").text
            return CellPort(name, port)
        if self.accept("["):
            port = self.expect_kind("NAME").text
            self.expect("]")
            return HolePort(name, port)
        return ThisPort(name)

    # -- control --------------------------------------------------------------
    def parse_control(self) -> Control:
        start = self.peek()
        node = self._parse_control_node()
        node.span = Span(start.line, start.column)
        return node

    def _parse_control_node(self) -> Control:
        tok = self.peek()
        if tok.text == "seq":
            self.next()
            attrs = self._parse_angle_attributes()
            return Seq(self._parse_block(), attrs)
        if tok.text == "par":
            self.next()
            attrs = self._parse_angle_attributes()
            return Par(self._parse_block(), attrs)
        if tok.text == "if":
            self.next()
            port = self.parse_port()
            cond = self.expect_kind("NAME").text if self.accept("with") else None
            tbranch = _seq_of(self._parse_block())
            fbranch: Control = Empty()
            if self.accept("else"):
                fbranch = _seq_of(self._parse_block())
            return If(port, cond, tbranch, fbranch)
        if tok.text == "while":
            self.next()
            port = self.parse_port()
            cond = self.expect_kind("NAME").text if self.accept("with") else None
            return While(port, cond, _seq_of(self._parse_block()))
        if tok.text == "repeat":
            self.next()
            times = int(self.expect_kind("INT").text)
            return Repeat(times, _seq_of(self._parse_block()))
        if tok.text == "invoke":
            self.next()
            cell = self.expect_kind("NAME").text
            in_binds = self._parse_bindings()
            out_binds = self._parse_bindings()
            self.expect(";")
            return Invoke(cell, in_binds, out_binds)
        # group enable
        name = self.expect_kind("NAME").text
        attrs = self._parse_angle_attributes()
        self.expect(";")
        return Enable(name, attrs)

    def _parse_block(self) -> List[Control]:
        self.expect("{")
        stmts: List[Control] = []
        while not self.at("}"):
            stmts.append(self.parse_control())
        self.expect("}")
        return stmts

    def _parse_bindings(self) -> Dict[str, PortRef]:
        self.expect("(")
        binds: Dict[str, PortRef] = {}
        while not self.at(")"):
            key = self.expect_kind("NAME").text
            self.expect("=")
            binds[key] = self.parse_port()
            if not self.accept(","):
                break
        self.expect(")")
        return binds

    # -- attributes -------------------------------------------------------
    def _parse_angle_attributes(self) -> Attributes:
        attrs = Attributes()
        if not self.at("<"):
            return attrs
        self.next()
        while not self.at(">"):
            key = self.expect_kind("STRING").text.strip('"')
            self.expect("=")
            attrs.set(key, int(self.expect_kind("INT").text))
            if not self.accept(","):
                break
        self.expect(">")
        return attrs

    def _parse_at_attributes(self) -> Attributes:
        attrs = Attributes()
        while self.accept("@"):
            key = self.expect_kind("NAME").text
            value = 1
            if self.accept("("):
                value = int(self.expect_kind("INT").text)
                self.expect(")")
            attrs.set(key, value)
        return attrs


def _seq_of(stmts: List[Control]) -> Control:
    if not stmts:
        return Empty()
    if len(stmts) == 1:
        return stmts[0]
    return Seq(stmts)


def _merge(first: Attributes, second: Attributes) -> Attributes:
    merged = first.copy()
    for key, value in second.items():
        merged.set(key, value)
    return merged


def _resolve_constants(program: Program) -> None:
    """Size bare integer literals from the surrounding context."""
    for comp in program.components:
        sizer = _Sizer(program, comp)
        for group in comp.groups.values():
            group.assignments = [sizer.fix(a) for a in group.assignments]
        comp.continuous = [sizer.fix(a) for a in comp.continuous]
        for node in comp.control.walk():
            if isinstance(node, (If, While)) and isinstance(node.port, _UnsizedConst):
                raise ParseError(
                    "control conditions must be ports, not literals",
                    node.port.line,
                    node.port.column,
                )


class _Sizer:
    """Rewrites :class:`_UnsizedConst` placeholders into sized constants."""

    def __init__(self, program: Program, comp: Component):
        self.program = program
        self.comp = comp
        self._guards: Dict[Guard, Guard] = {}

    def size(self, ref: PortRef, context: PortRef, where: str) -> PortRef:
        """``ref``, or the literal it holds sized to ``context``'s width."""
        if not isinstance(ref, _UnsizedConst):
            return ref
        try:
            width = self.program.port_width(self.comp, context)
        except ValidationError:
            # A malformed primitive instance, which validation and lint
            # report; meanwhile the literal takes the width of its value.
            width = max(1, ref.value.bit_length())
        if width is None:
            raise ParseError(
                f"cannot infer width for literal {ref.value} in {where}; "
                "write a sized constant like 32'd10",
                ref.line,
                ref.column,
            )
        return ConstPort(width, ref.value)

    def fix(self, assign: Assignment) -> Assignment:
        src = self.size(assign.src, assign.dst, "assignment source")
        guard = fold(assign.guard, self._fix_guard, self._guards)
        fixed = Assignment(assign.dst, src, guard)
        fixed.span = assign.span
        return fixed

    def _fix_guard(self, guard: Guard, children: Tuple[Guard, ...]) -> Guard:
        """The :func:`fold` visit: ``guard`` with its literals sized."""
        if isinstance(guard, CmpGuard):
            left = self.size(guard.left, guard.right, "comparison")
            right = self.size(guard.right, guard.left, "comparison")
            return CmpGuard(guard.op, left, right)
        if isinstance(guard, PortGuard) and isinstance(guard.port, _UnsizedConst):
            raise ParseError(
                "bare literals cannot be guards; use a sized constant",
                guard.port.line,
                guard.port.column,
            )
        return guard.rebuild(children)


def parse_program(source: str) -> Program:
    """Parse Calyx surface syntax into a :class:`Program`."""
    return _Parser(source).parse_program()
