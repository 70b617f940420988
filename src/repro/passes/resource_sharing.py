"""Resource sharing (paper Section 5.1).

Reuses shareable combinational components across groups that never execute
in parallel. Three steps, as in the paper:

1. **Conflict graph** — groups and ``invoke`` statements conflict when
   the schedule may run them in parallel (children of a ``par`` block).
2. **Greedy coloring** — performed over *cells*: two cells of the same
   type conflict when some pair of groups or invokes using them conflicts
   (or one uses both). Coloring maps each cell to a representative.
3. **Group rewriting** — local renames inside groups, which is sound
   because groups encapsulate their assignments.

Only cells whose component carries the ``"share"`` attribute participate;
stateful components are never shared by this pass (state is visible across
groups — that is register sharing's job, Section 5.2).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.analysis.coloring import ConflictGraph, greedy_coloring
from repro.analysis.schedule import parallel_conflicts
from repro.ir.ast import CellPort, Component, PortRef, Program
from repro.ir.attributes import SHARE
from repro.ir.control import If, Invoke, While
from repro.passes.base import Pass, register_pass
from repro.stdlib.primitives import get_primitive, is_primitive


def _is_shareable(program: Program, comp_name: str) -> bool:
    if is_primitive(comp_name):
        return get_primitive(comp_name).is_shareable()
    comp = program.find_component(comp_name)
    return comp is not None and bool(comp.attributes.get(SHARE, 0))


def shareable_cells(program: Program, comp: Component) -> List[str]:
    """Cells eligible for sharing, in declaration order."""
    pinned: Set[str] = set()
    for assign in comp.continuous:
        for ref in assign.ports():
            if isinstance(ref, CellPort):
                pinned.add(ref.cell)
    return [
        cell.name
        for cell in comp.cells.values()
        if _is_shareable(program, cell.comp_name)
        and not cell.external
        and cell.name not in pinned
    ]


def _cells_used_by(comp: Component, vertex: Hashable) -> Set[str]:
    """Cells a schedule vertex uses: an invoke's cell and the cells of its
    bindings, or the cells its group's assignments name."""
    if isinstance(vertex, Invoke):
        binds = [*vertex.in_binds.values(), *vertex.out_binds.values()]
        return {vertex.cell} | {r.cell for r in binds if isinstance(r, CellPort)}
    group = comp.groups.get(vertex)  # None: named by the control, undefined
    refs = [ref for a in group.assignments for ref in a.ports()] if group else []
    return {ref.cell for ref in refs if isinstance(ref, CellPort)}


def rename_cells(comp: Component, rename: Dict[str, str]) -> None:
    """Apply a cell rename map across groups, control, and invokes."""

    def fix(ref: PortRef) -> PortRef:
        if isinstance(ref, CellPort) and ref.cell in rename:
            return CellPort(rename[ref.cell], ref.port)
        return ref

    for group in comp.groups.values():
        group.assignments = [a.map_ports(fix) for a in group.assignments]
    for node in comp.control.walk():
        if isinstance(node, (If, While)):
            node.port = fix(node.port)
        elif isinstance(node, Invoke):
            if node.cell in rename:
                node.cell = rename[node.cell]
            node.in_binds = {k: fix(v) for k, v in node.in_binds.items()}
            node.out_binds = {k: fix(v) for k, v in node.out_binds.items()}


@register_pass
class ResourceSharing(Pass):
    name = "resource-sharing"
    description = "share combinational components across non-parallel groups"

    def run_component(self, program: Program, comp: Component) -> None:
        candidates = shareable_cells(program, comp)
        if len(candidates) < 2:
            return

        # usage[c]: schedule vertices using cell c; reach[c]: those plus
        # every vertex that may run in parallel with one of them.
        schedule = parallel_conflicts(comp)
        usage = dict.fromkeys(candidates, 0)
        reach = dict.fromkeys(candidates, 0)
        for vertex, bit in schedule.bit.items():
            for cell in _cells_used_by(comp, vertex) & usage.keys():
                usage[cell] |= bit
                reach[cell] |= bit | schedule.neighbours(vertex)

        # Cells only merge within a (component type, args) class.
        classes: Dict[Tuple[str, Tuple[int, ...]], List[str]] = {}
        for name in candidates:
            cell = comp.cells[name]
            classes.setdefault((cell.comp_name, cell.args), []).append(name)

        cells = ConflictGraph(candidates)
        rename: Dict[str, str] = {}
        for (comp_name, args), members in classes.items():
            if len(members) < 2 or not self._worth_sharing(program, comp_name, args):
                continue
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if reach[a] & usage[b]:
                        cells.add_conflicts(cells.bit[a], cells.bit[b])
            for cell, rep in greedy_coloring(cells, members).items():
                if cell != rep:
                    rename[cell] = rep

        if rename:
            rename_cells(comp, rename)

    def _worth_sharing(
        self, program: Program, comp_name: str, args: Tuple[int, ...]
    ) -> bool:
        """Should cells of this (component, args) class be merged at all?"""
        return True
