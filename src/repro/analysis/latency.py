"""Static latency computation over groups and control trees.

Latency information flows from the ``"static"`` attribute (paper Section
3.5). A group's latency is the attribute on the group; a control tree's
latency composes children:

* ``enable g`` — the static latency of ``g``,
* ``seq`` — sum of children,
* ``par`` — max of children,
* ``invoke c`` — the static latency of ``c``'s component,
* ``if``/``while`` — unknown (``None``); the paper's Sensitive pass treats
  these dynamically, and our implementation follows (a ``while`` trip
  count is data-dependent in general).

``None`` means "no static latency available"; such subtrees fall back to
latency-insensitive compilation (Section 4.4's graceful mixing).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.ast import CellPort, Component, ConstPort, Group, Program
from repro.ir.attributes import STATIC
from repro.ir.control import Control, Empty, Enable, If, Invoke, Par, Repeat, Seq, While
from repro.ir.ports import DONE
from repro.stdlib.primitives import get_primitive, is_primitive

#: Ports that act as a "go" signal, per primitive interface style.
GO_PORTS = ("go", "write_en")


def group_latency(group: Group) -> Optional[int]:
    """The group's declared static latency, if any."""
    return group.attributes.get(STATIC)


def structural_group_latency(
    program: Program, comp: Component, group: Group
) -> Optional[int]:
    """The paper's Section 5.3 group rule, ignoring declared attributes.

    *If a group's done signal is equal to a component's done signal, and
    the component's go signal is set to 1 within the group, the latency of
    the group is inferred to be the same as the component's.* For
    registers and memories, ``write_en`` plays the role of ``go``. Returns
    ``None`` when the group does not match the pattern — this is what
    :mod:`repro.passes.infer_latency` infers and what the linter checks
    declared ``"static"`` attributes against.
    """
    done_writes = group.done_assignments()
    if len(done_writes) != 1:
        return None
    done = done_writes[0]
    # The done must mirror a single cell's done port, unconditionally or
    # guarded by that same port.
    src = done.src
    if isinstance(src, CellPort) and src.port == DONE:
        cell_name = src.cell
    elif isinstance(src, ConstPort) and src.value == 1:
        # Pattern: ``g[done] = cell.done ? 1`` — guard names the cell.
        from repro.ir.guards import PortGuard

        if not (
            isinstance(done.guard, PortGuard)
            and isinstance(done.guard.port, CellPort)
            and done.guard.port.port == DONE
        ):
            return None
        cell_name = done.guard.port.cell
    else:
        return None

    if cell_name not in comp.cells:
        return None
    cell = comp.cells[cell_name]
    latency = component_latency(program, cell.comp_name)
    if latency is None:
        return None

    # The cell's go (or write_en) must be driven high within the group.
    for assign in group.assignments:
        dst = assign.dst
        if (
            isinstance(dst, CellPort)
            and dst.cell == cell_name
            and dst.port in GO_PORTS
            and isinstance(assign.src, ConstPort)
            and assign.src.value == 1
        ):
            return latency
    return None


def component_latency(program: Program, comp_name: str) -> Optional[int]:
    """Static latency of a component or primitive, if declared."""
    if is_primitive(comp_name):
        return get_primitive(comp_name).attributes.get(STATIC)
    comp = program.find_component(comp_name)
    return None if comp is None else comp.attributes.get(STATIC)


def control_latency(program: Program, comp: Component, node: Control) -> Optional[int]:
    """Static latency of a control subtree, or ``None`` when unknown."""
    if isinstance(node, Empty):
        return 0
    if isinstance(node, Enable):
        return group_latency(comp.get_group(node.group))
    if isinstance(node, Seq):
        total = 0
        for child in node.stmts:
            latency = control_latency(program, comp, child)
            if latency is None:
                return None
            total += latency
        return total
    if isinstance(node, Par):
        longest = 0
        for child in node.stmts:
            latency = control_latency(program, comp, child)
            if latency is None:
                return None
            longest = max(longest, latency)
        return longest
    if isinstance(node, Invoke):
        cell = comp.get_cell(node.cell)
        return component_latency(program, cell.comp_name)
    if isinstance(node, Repeat):
        body = control_latency(program, comp, node.body)
        if body is None:
            return None
        return node.times * body
    if isinstance(node, (If, While)):
        return None
    return None
