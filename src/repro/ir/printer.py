"""Pretty-printer: renders IL data structures as Calyx surface syntax.

The output parses back with :mod:`repro.ir.parser`; round-tripping is
property-tested.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.ast import Component, ExternDef, Group, Program
from repro.ir.control import (
    Control,
    Empty,
    Enable,
    If,
    Invoke,
    Par,
    Repeat,
    Seq,
    While,
)
from repro.ir.guards import Guard

INDENT = "  "


def print_program(program: Program) -> str:
    """Render a whole program, each distinct guard once."""
    parts: List[str] = []
    for extern in program.externs:
        parts.append(_print_extern(extern))
    guard_text: Dict[Guard, str] = {}
    for comp in program.components:
        parts.append(print_component(comp, guard_text))
    return "\n".join(parts)


def _print_extern(extern: ExternDef) -> str:
    lines = [f'extern "{extern.path}" {{']
    for comp in extern.components:
        lines.append(INDENT + _signature_line(comp) + ";")
    lines.append("}")
    return "\n".join(lines)


def _signature_line(comp: Component) -> str:
    ins = ", ".join(f"{p.name}: {p.width}" for p in comp.inputs)
    outs = ", ".join(f"{p.name}: {p.width}" for p in comp.outputs)
    attrs = comp.attributes.to_string()
    return f"component {comp.name}{attrs}({ins}) -> ({outs})"


def print_component(comp: Component, guard_text: Optional[Dict[Guard, str]] = None) -> str:
    """Render one component; ``guard_text`` is :meth:`Guard.to_string`'s memo."""
    if guard_text is None:
        guard_text = {}
    lines = [_signature_line(comp) + " {"]
    lines.append(INDENT + "cells {")
    for cell in comp.cells.values():
        prefix = "@external " if cell.external else ""
        lines.append(INDENT * 2 + prefix + cell.to_string())
    lines.append(INDENT + "}")
    lines.append(INDENT + "wires {")
    for group in comp.groups.values():
        lines.extend(_print_group(group, 2, guard_text))
    for assign in comp.continuous:
        lines.append(INDENT * 2 + assign.to_string(guard_text))
    lines.append(INDENT + "}")
    lines.append(INDENT + "control {")
    if not isinstance(comp.control, Empty):
        lines.extend(_print_control(comp.control, depth=2))
    lines.append(INDENT + "}")
    lines.append("}")
    return "\n".join(lines)


def _print_group(group: Group, depth: int, guard_text: Dict[Guard, str]) -> List[str]:
    keyword = "comb group" if group.comb else "group"
    attrs = group.attributes.to_string()
    lines = [INDENT * depth + f"{keyword} {group.name}{attrs} {{"]
    for assign in group.assignments:
        lines.append(INDENT * (depth + 1) + assign.to_string(guard_text))
    lines.append(INDENT * depth + "}")
    return lines


def control_to_string(node: Control) -> str:
    """Render one control statement (used by ``Control.to_string``)."""
    return "\n".join(_print_control(node, depth=0))


def _print_control(node: Control, depth: int) -> List[str]:
    pad = INDENT * depth
    if isinstance(node, Empty):
        return []
    if isinstance(node, Enable):
        return [pad + f"{node.group}{node.attributes.to_string()};"]
    if isinstance(node, (Seq, Par)):
        keyword = "seq" if isinstance(node, Seq) else "par"
        lines = [pad + f"{keyword}{node.attributes.to_string()} {{"]
        for child in node.children():
            lines.extend(_print_control(child, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(node, If):
        with_part = f" with {node.cond_group}" if node.cond_group else ""
        lines = [pad + f"if {node.port.to_string()}{with_part} {{"]
        lines.extend(_print_control(node.tbranch, depth + 1))
        if isinstance(node.fbranch, Empty):
            lines.append(pad + "}")
        else:
            lines.append(pad + "} else {")
            lines.extend(_print_control(node.fbranch, depth + 1))
            lines.append(pad + "}")
        return lines
    if isinstance(node, While):
        with_part = f" with {node.cond_group}" if node.cond_group else ""
        lines = [pad + f"while {node.port.to_string()}{with_part} {{"]
        lines.extend(_print_control(node.body, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(node, Repeat):
        lines = [pad + f"repeat {node.times} {{"]
        lines.extend(_print_control(node.body, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(node, Invoke):
        ins = ", ".join(f"{k}={v.to_string()}" for k, v in node.in_binds.items())
        outs = ", ".join(f"{k}={v.to_string()}" for k, v in node.out_binds.items())
        return [pad + f"invoke {node.cell}({ins})({outs});"]
    raise TypeError(f"cannot print control node {node!r}")
