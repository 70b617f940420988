"""The Lower pass target: SystemVerilog code generation (Section 4.2).

Requires a fully lowered program (no groups, no control): each component
maps to a module, each cell to a primitive or module instantiation, and
each set of guarded assignments to one multiplexing ``assign`` per
destination port. A clock signal is threaded through the design.

The paper reports generated-RTL line counts for the largest designs
(Section 7.4); :func:`emit_verilog` is what those statistics measure here.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import PassError
from repro.ir.ast import (
    Assignment,
    CellPort,
    Component,
    ConstPort,
    HolePort,
    PortRef,
    Program,
    ThisPort,
)
from repro.ir.guards import CmpGuard, Guard, NotGuard, PortGuard, TrueGuard, fold
from repro.stdlib.primitives import get_primitive, is_primitive


def _wire_name(ref: PortRef) -> str:
    if isinstance(ref, CellPort):
        return f"{ref.cell}__{ref.port}"
    if isinstance(ref, ThisPort):
        return ref.port
    raise PassError(f"cannot name port {ref!r} in Verilog")


def _value(ref: PortRef) -> str:
    if isinstance(ref, ConstPort):
        return f"{ref.width}'d{ref.value}"
    if isinstance(ref, HolePort):
        raise PassError(
            f"hole {ref.to_string()} survived lowering; run remove-groups"
        )
    return _wire_name(ref)


def _guard_expr(guard: Guard, operands: Tuple[str, ...]) -> str:
    """The :func:`fold` visit rendering a guard node as Verilog."""
    if isinstance(guard, NotGuard):
        return f"~({operands[0]})"
    if operands:
        return f"({operands[0]} {guard.op} {operands[1]})"
    if isinstance(guard, CmpGuard):
        return f"({_value(guard.left)} {guard.op} {_value(guard.right)})"
    if isinstance(guard, PortGuard):
        return _value(guard.port)
    return "1'd1"


def _emit_component(
    program: Program, comp: Component, guard_text: Dict[Guard, str]
) -> str:
    if comp.groups or not comp.control.is_empty():
        raise PassError(
            f"component {comp.name!r} still has groups or control; "
            "run the lowering pipeline before emitting Verilog"
        )
    lines: List[str] = []
    ports: List[str] = []
    for port in comp.inputs:
        ports.append(f"  input  logic [{port.width - 1}:0] {port.name}")
    ports.append("  input  logic clk")
    for port in comp.outputs:
        ports.append(f"  output logic [{port.width - 1}:0] {port.name}")
    lines.append(f"module {comp.name} (")
    lines.append(",\n".join(ports))
    lines.append(");")

    # Wire declarations for every cell port.
    for cell in comp.cells.values():
        sig = program.cell_signature(cell)
        for pdef in sig.values():
            lines.append(
                f"  logic [{pdef.width - 1}:0] {cell.name}__{pdef.name};"
            )

    # Cell instantiations.
    for cell in comp.cells.values():
        sig = program.cell_signature(cell)
        if is_primitive(cell.comp_name):
            prim = get_primitive(cell.comp_name)
            params = ", ".join(
                f".{pname}({value})" for pname, value in zip(prim.params, cell.args)
            )
            header = f"  {cell.comp_name} #({params}) {cell.name} (" if params else f"  {cell.comp_name} {cell.name} ("
            needs_clk = not prim.combinational
        else:
            header = f"  {cell.comp_name} {cell.name} ("
            needs_clk = True
        conns = [
            f"    .{pname}({cell.name}__{pname})" for pname in sig
        ]
        if needs_clk:
            conns.append("    .clk(clk)")
        lines.append(header)
        lines.append(",\n".join(conns))
        lines.append("  );")

    # Guarded assignments, one mux chain per destination.
    by_dst: Dict[PortRef, List[Assignment]] = {}
    order: List[PortRef] = []
    for assign in comp.continuous:
        if assign.dst not in by_dst:
            order.append(assign.dst)
        by_dst.setdefault(assign.dst, []).append(assign)
    for dst in order:
        chain = ""
        for assign in by_dst[dst]:
            if isinstance(assign.guard, TrueGuard):
                chain = _value(assign.src)
                break
            guard = fold(assign.guard, _guard_expr, guard_text)
            chain += f"{guard} ? {_value(assign.src)} : "
        if not chain.endswith(": ") and chain:
            expr = chain
        else:
            expr = chain + "'0"
        lines.append(f"  assign {_wire_name(dst)} = {expr};")

    lines.append("endmodule")
    return "\n".join(lines)


def _used_primitives(program: Program) -> Set[str]:
    used: Set[str] = set()
    for comp in program.components:
        for cell in comp.cells.values():
            if is_primitive(cell.comp_name):
                used.add(cell.comp_name)
    return used


def emit_verilog(program: Program, include_prelude: bool = True) -> str:
    """Generate SystemVerilog for a lowered program."""
    chunks: List[str] = []
    if include_prelude:
        chunks.append("// Generated by repro (Calyx reproduction) Lower pass")
        used = sorted(_used_primitives(program))
        chunks.append("\n".join(get_primitive(name).verilog for name in used))
    guard_text: Dict[Guard, str] = {}
    for comp in program.components:
        chunks.append(_emit_component(program, comp, guard_text))
    return "\n\n".join(chunks) + "\n"


def verilog_loc(program: Program) -> int:
    """Line count of the generated RTL (the Section 7.4 statistic)."""
    return emit_verilog(program).count("\n")
