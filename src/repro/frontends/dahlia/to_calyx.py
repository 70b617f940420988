"""The Dahlia-to-Calyx backend (paper Section 6.2).

A bottom-up pass with the paper's one-to-one construct mapping:

* variable and memory assignments generate *groups* that perform the
  update (``"static"=1`` — register and memory writes take one cycle),
* multiplies and divides generate their own groups around pipelined units
  (``"static"=4``), scheduled before the consuming statement,
* ordered composition (``---``) becomes ``seq``, unordered (``;``) and
  unrolled bodies become ``par``,
* loops and conditionals map to ``while`` and ``if`` with condition
  groups (combinational, paper-style ``cond[done] = 1``).

Width adaptation (indices narrower than counters, memory elements wider
than addresses) inserts ``std_slice``/``std_pad`` cells. A memory may be
read once per group; further reads in the same statement are latched into
fresh registers by *read groups* scheduled beforehand — mirroring the
single-read-port reality the Dahlia type system encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TypeError_
from repro.frontends.dahlia.ast import (
    AssignMem,
    AssignVar,
    BinOp,
    COMPARISONS,
    Expr,
    If as DIf,
    IntLit,
    Let,
    MemRead,
    OrderedSeq,
    ParBlock,
    Stmt,
    UnorderedSeq,
    VarRef,
    While as DWhile,
)
from repro.frontends.dahlia.lowering import LoweredProgram, MemoryLayout
from repro.ir.ast import ConstPort, PortRef, Program
from repro.ir.builder import (
    Builder,
    CellHandle,
    ComponentBuilder,
    GroupBuilder,
    const,
)
from repro.ir.control import Control, Empty, Enable, If, Par, Seq, While
from repro.ir.guards import NotGuard, PortGuard
from repro.stdlib.primitives import get_primitive

#: The primitive each binary operator compiles to; the HLS baseline
#: (:mod:`repro.hls.resources`) costs each operator as the same primitive.
OP_PRIMITIVES = {
    "+": "std_add",
    "-": "std_sub",
    "<<": "std_lsh",
    ">>": "std_rsh",
    "*": "std_mult_pipe",
    "/": "std_div_pipe",
    "%": "std_div_pipe",
    "<": "std_lt",
    ">": "std_gt",
    "<=": "std_le",
    ">=": "std_ge",
    "==": "std_eq",
    "!=": "std_neq",
}

DEFAULT_WIDTH = 32


def _idx_bits(size: int) -> int:
    return max(1, (size - 1).bit_length())


@dataclass
class _MemInfo:
    cell: CellHandle
    width: int
    dims: List[int]
    idx_widths: List[int]


@dataclass
class CompiledDesign:
    """A compiled Dahlia kernel: the Calyx program plus memory layouts."""

    program: Program
    layouts: Dict[str, MemoryLayout] = field(default_factory=dict)
    #: the Dahlia source the program was compiled from
    source: Optional[str] = None

    def split_memory(self, name: str, values: List[int]) -> Dict[str, List[int]]:
        return self.layouts[name].split(values)

    def merge_memory(self, name: str, banks: Dict[str, List[int]]) -> List[int]:
        return self.layouts[name].merge(banks)

    def split_memories(self, logical: Dict[str, List[int]]) -> Dict[str, List[int]]:
        """Every logical memory's contents, distributed across its banks."""
        return {
            bank: values
            for name, contents in logical.items()
            for bank, values in self.split_memory(name, contents).items()
        }

    def merge_memories(self, physical: Dict[str, List[int]]) -> Dict[str, List[int]]:
        """Every logical memory, reassembled from its banks' contents."""
        return {name: layout.merge(physical) for name, layout in self.layouts.items()}


class _Backend:
    def __init__(self, lowered: LoweredProgram):
        self.lowered = lowered
        self._in_condition = False
        self.builder = Builder()
        self.main: ComponentBuilder = self.builder.component("main")
        self.mems: Dict[str, _MemInfo] = {}
        self.scopes: List[Dict[str, Tuple[CellHandle, int]]] = [{}]
        self._counter = 0

        for decl in lowered.decls:
            dims = [size for size, _ in decl.type.dims]
            width = decl.type.element.width
            idx_widths = [_idx_bits(d) for d in dims]
            if len(dims) == 1:
                cell = self.main.mem_d1(
                    decl.name, width, dims[0], idx_widths[0], external=True
                )
            elif len(dims) == 2:
                cell = self.main.mem_d2(
                    decl.name,
                    width,
                    dims[0],
                    dims[1],
                    idx_widths[0],
                    idx_widths[1],
                    external=True,
                )
            else:
                raise TypeError_(
                    f"memory {decl.name!r}: only 1-D and 2-D memories are "
                    "supported; flatten higher dimensions"
                )
            self.mems[decl.name] = _MemInfo(cell, width, dims, idx_widths)

    # -- naming and scope ---------------------------------------------------
    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def lookup_var(self, name: str) -> Tuple[CellHandle, int]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise TypeError_(f"undefined variable {name!r} (backend)")

    def define_var(self, name: str, width: int) -> CellHandle:
        reg = self.main.reg(self.fresh(f"{name}_"), width)
        self.scopes[-1][name] = (reg, width)
        return reg

    # -- width adaptation -----------------------------------------------------
    def adapt(self, port: PortRef, from_width: int, to_width: int, group: GroupBuilder) -> PortRef:
        """Pad or slice a port to the requested width inside ``group``."""
        if from_width == to_width:
            return port
        if from_width < to_width:
            cell = self.main.cell(self.fresh("pad"), "std_pad", from_width, to_width)
        else:
            cell = self.main.cell(self.fresh("slice"), "std_slice", from_width, to_width)
        group.assign(cell.in_, port)
        return cell.out

    # -- expression compilation ------------------------------------------------
    def natural_width(self, expr: Expr) -> Optional[int]:
        return getattr(expr, "width", None)

    def compile_expr(
        self,
        expr: Expr,
        width: int,
        group: GroupBuilder,
        pre: List[Control],
        mems_in_group: Dict[str, List[Expr]],
    ) -> PortRef:
        """Compile ``expr`` to a ``width``-bit port readable in ``group``.

        Multi-cycle work (multiplies, extra memory reads) lands in ``pre``
        as control that must run before ``group``.
        """
        if isinstance(expr, IntLit):
            return ConstPort(width, expr.value)
        if isinstance(expr, VarRef):
            reg, reg_width = self.lookup_var(expr.name)
            return self.adapt(reg.out, reg_width, width, group)
        if isinstance(expr, MemRead):
            return self._compile_mem_read(expr, width, group, pre, mems_in_group)
        if isinstance(expr, BinOp):
            return self._compile_binop(expr, width, group, pre, mems_in_group)
        raise TypeError_(f"cannot compile expression {expr!r}")

    def _compile_mem_read(
        self,
        expr: MemRead,
        width: int,
        group: GroupBuilder,
        pre: List[Control],
        mems_in_group: Dict[str, List[Expr]],
    ) -> PortRef:
        info = self.mems.get(expr.mem)
        if info is None:
            raise TypeError_(f"undefined memory {expr.mem!r} (backend)")
        if not self._in_condition or expr.mem in mems_in_group:
            # The paper's Dahlia backend emits *simple groups*: every
            # memory read is staged through a register by its own group.
            # This is what makes latency inference effective, gives the
            # register-sharing pass its opportunities (Figure 9b), and
            # accounts for part of the 3.1x gap to pipelined HLS (Figure
            # 8a). Reads inside a condition fuse into the condition group
            # unless a second access would contend for the memory's port.
            tmp = self.main.reg(self.fresh(f"{expr.mem}_rd_"), info.width)
            read_group = self.main.group(self.fresh("read"), static=1)
            inner_mems: Dict[str, List[Expr]] = {}
            self._drive_address(expr, info, read_group, pre, inner_mems)
            read_group.assign(tmp.in_, info.cell.read_data)
            read_group.assign(tmp.write_en, 1)
            read_group.done(tmp.done)
            pre.append(Enable(read_group.name))
            return self.adapt(tmp.out, info.width, width, group)
        mems_in_group[expr.mem] = expr.indices
        self._drive_address(expr, info, group, pre, mems_in_group)
        return self.adapt(info.cell.read_data, info.width, width, group)

    def _drive_address(
        self,
        expr: MemRead,
        info: _MemInfo,
        group: GroupBuilder,
        pre: List[Control],
        mems_in_group: Dict[str, List[Expr]],
    ) -> None:
        ports = ["addr0", "addr1"]
        for dim, idx in enumerate(expr.indices):
            port = self.compile_expr(idx, info.idx_widths[dim], group, pre, mems_in_group)
            group.assign(info.cell.port(ports[dim]), port)

    def _compile_binop(
        self,
        expr: BinOp,
        width: int,
        group: GroupBuilder,
        pre: List[Control],
        mems_in_group: Dict[str, List[Expr]],
    ) -> PortRef:
        if expr.op in COMPARISONS:
            operand_width = max(
                self.natural_width(expr.left) or DEFAULT_WIDTH
                if not isinstance(expr.left, IntLit)
                else 1,
                self.natural_width(expr.right) or DEFAULT_WIDTH
                if not isinstance(expr.right, IntLit)
                else 1,
            )
            cell = self.main.cell(self.fresh("cmp"), OP_PRIMITIVES[expr.op], operand_width)
            left = self.compile_expr(expr.left, operand_width, group, pre, mems_in_group)
            right = self.compile_expr(expr.right, operand_width, group, pre, mems_in_group)
            group.assign(cell.left, left)
            group.assign(cell.right, right)
            return self.adapt(cell.out, 1, width, group)

        if expr.op in ("*", "/", "%"):
            return self._compile_multi_cycle(expr, width, group, pre)

        cell = self.main.cell(self.fresh("op"), OP_PRIMITIVES[expr.op], width)
        left = self.compile_expr(expr.left, width, group, pre, mems_in_group)
        right = self.compile_expr(expr.right, width, group, pre, mems_in_group)
        group.assign(cell.left, left)
        group.assign(cell.right, right)
        return cell.out

    def _compile_multi_cycle(
        self, expr: BinOp, width: int, group: GroupBuilder, pre: List[Control]
    ) -> PortRef:
        """A multiply/divide runs in its own static group before ``group``."""
        prim = OP_PRIMITIVES[expr.op]
        stem = "mul" if expr.op == "*" else "div"
        unit = self.main.cell(self.fresh(stem), prim, width)
        if expr.op == "*":
            out_port = unit.out
        else:
            out_port = unit.out_quotient if expr.op == "/" else unit.out_remainder
        op_group = self.main.group(self.fresh(stem + "g"), static=get_primitive(prim).latency)
        op_mems: Dict[str, List[Expr]] = {}
        left = self.compile_expr(expr.left, width, op_group, pre, op_mems)
        right = self.compile_expr(expr.right, width, op_group, pre, op_mems)
        op_group.assign(unit.left, left)
        op_group.assign(unit.right, right)
        op_group.assign(unit.go, 1, guard=NotGuard(PortGuard(unit.done)))
        op_group.done(unit.done)
        pre.append(Enable(op_group.name))
        return out_port

    # -- statements --------------------------------------------------------
    def compile_stmt(self, stmt: Stmt) -> Control:
        if isinstance(stmt, Let):
            assert stmt.type is not None
            reg = self.define_var(stmt.name, stmt.type.width)
            return self._write_var(reg, stmt.type.width, stmt.init, f"let_{stmt.name}_")
        if isinstance(stmt, AssignVar):
            reg, width = self.lookup_var(stmt.name)
            return self._write_var(reg, width, stmt.value, f"upd_{stmt.name}_")
        if isinstance(stmt, AssignMem):
            return self._write_mem(stmt)
        if isinstance(stmt, DIf):
            return self._compile_if(stmt)
        if isinstance(stmt, DWhile):
            return self._compile_while(stmt)
        if isinstance(stmt, OrderedSeq):
            parts = [self.compile_stmt(s) for s in stmt.stmts]
            return Seq([p for p in parts if not isinstance(p, Empty)])
        if isinstance(stmt, UnorderedSeq):
            # Unordered composition is not a lexical scope: lets escape
            # into the surrounding ordered flow.
            parts = [self.compile_stmt(s) for s in stmt.stmts]
            return Par([p for p in parts if not isinstance(p, Empty)])
        if isinstance(stmt, ParBlock):
            # Unrolled copies each declare their own locals.
            parts = []
            for child in stmt.stmts:
                self.scopes.append({})
                parts.append(self.compile_stmt(child))
                self.scopes.pop()
            return Par([p for p in parts if not isinstance(p, Empty)])
        raise TypeError_(f"cannot compile statement {stmt!r}")

    def _write_var(self, reg: CellHandle, width: int, value: Expr, prefix: str) -> Control:
        pre: List[Control] = []
        group = self.main.group(self.fresh(prefix), static=1)
        mems: Dict[str, List[Expr]] = {}
        port = self.compile_expr(value, width, group, pre, mems)
        group.assign(reg.in_, port)
        group.assign(reg.write_en, 1)
        group.done(reg.done)
        return self._sequence(pre, Enable(group.name))

    def _write_mem(self, stmt: AssignMem) -> Control:
        info = self.mems.get(stmt.mem)
        if info is None:
            raise TypeError_(f"undefined memory {stmt.mem!r} (backend)")
        pre: List[Control] = []
        group = self.main.group(self.fresh(f"st_{stmt.mem}_"), static=1)
        mems: Dict[str, List[Expr]] = {stmt.mem: stmt.indices}
        ports = ["addr0", "addr1"]
        for dim, idx in enumerate(stmt.indices):
            port = self.compile_expr(idx, info.idx_widths[dim], group, pre, mems)
            group.assign(info.cell.port(ports[dim]), port)
        value = self.compile_expr(stmt.value, info.width, group, pre, mems)
        group.assign(info.cell.write_data, value)
        group.assign(info.cell.write_en, 1)
        group.done(info.cell.done)
        return self._sequence(pre, Enable(group.name))

    def _compile_condition(self, cond: Expr, context: str) -> Tuple[PortRef, str]:
        pre: List[Control] = []
        group = self.main.group(self.fresh("cond"))
        mems: Dict[str, List[Expr]] = {}
        self._in_condition = True
        try:
            port = self.compile_expr(cond, 1, group, pre, mems)
        finally:
            self._in_condition = False
        if pre:
            raise TypeError_(
                f"{context} conditions must be single-cycle; hoist multi-"
                "cycle work into a let binding"
            )
        group.assign(group.done_port, const(1, 1))
        return port, group.name

    def _compile_if(self, stmt: DIf) -> Control:
        port, cond_name = self._compile_condition(stmt.cond, "if")
        self.scopes.append({})
        then = self.compile_stmt(stmt.then)
        self.scopes.pop()
        orelse: Control = Empty()
        if stmt.orelse is not None:
            self.scopes.append({})
            orelse = self.compile_stmt(stmt.orelse)
            self.scopes.pop()
        return If(port, cond_name, then, orelse)

    def _compile_while(self, stmt: DWhile) -> Control:
        port, cond_name = self._compile_condition(stmt.cond, "while")
        self.scopes.append({})
        body = self.compile_stmt(stmt.body)
        self.scopes.pop()
        return While(port, cond_name, body)

    @staticmethod
    def _sequence(pre: List[Control], last: Control) -> Control:
        if not pre:
            return last
        return Seq(pre + [last])

    # -- entry ------------------------------------------------------------
    def compile(self) -> CompiledDesign:
        self.main.control = self.compile_stmt(self.lowered.body)
        return CompiledDesign(self.builder.program, dict(self.lowered.layouts))


def compile_to_calyx(lowered: LoweredProgram) -> CompiledDesign:
    """Compile lowered Dahlia into a Calyx program (simple-group style)."""
    return _Backend(lowered).compile()
