"""CompileInvoke: lower ``invoke`` statements to groups.

An invoke becomes a group that drives the bindings, pulses the callee's
``go`` (gated by ``!done``), and finishes on the callee's ``done`` — the
go/done calling convention of Section 4.1. When the callee has a
``"static"`` latency the group inherits it, so invokes participate in
latency-sensitive compilation.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.latency import component_latency
from repro.ir.ast import Assignment, CellPort, Component, ConstPort, Group, Program
from repro.ir.attributes import STATIC
from repro.ir.control import Control, Enable, Invoke, map_control
from repro.ir.guards import PortGuard
from repro.ir.ports import DONE
from repro.passes.base import Pass, register_pass


def compile_invoke(program: Program, comp: Component, node: Invoke) -> Enable:
    """Synthesize the calling-convention group for one invoke."""
    name = comp.gen_name(f"invoke_{node.cell}_")
    group = Group(name)
    group.assignments.extend(node.wires())
    group.assignments.append(
        Assignment(group.done, ConstPort(1, 1), PortGuard(CellPort(node.cell, DONE)))
    )
    cell = comp.get_cell(node.cell)
    latency = component_latency(program, cell.comp_name)
    if latency is not None:
        group.attributes.set(STATIC, latency)
    comp.add_group(group)
    return Enable(name, node.attributes.copy())


@register_pass
class CompileInvoke(Pass):
    name = "compile-invoke"
    description = "lower invoke statements to calling-convention groups"

    def run_component(self, program: Program, comp: Component) -> None:
        def rewrite(node: Control) -> Optional[Control]:
            if isinstance(node, Invoke):
                return compile_invoke(program, comp, node)
            return None

        comp.control = map_control(comp.control, rewrite)
