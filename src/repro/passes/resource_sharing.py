"""Resource sharing (paper Section 5.1).

Reuses shareable combinational components across groups that never execute
in parallel. Three steps, as in the paper:

1. **Conflict graph** — groups conflict when the schedule may run them in
   parallel (children of a ``par`` block).
2. **Greedy coloring** — performed over *cells*: two cells of the same
   type conflict when some pair of groups using them conflicts (or one
   group uses both). Coloring maps each cell to a representative.
3. **Group rewriting** — local renames inside groups, which is sound
   because groups encapsulate their assignments.

Only cells whose component carries the ``"share"`` attribute participate;
stateful components are never shared by this pass (state is visible across
groups — that is register sharing's job, Section 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.coloring import greedy_coloring
from repro.analysis.schedule import conflict_map
from repro.ir.ast import CellPort, Component, Group, PortRef, Program
from repro.ir.attributes import SHARE
from repro.ir.control import If, Invoke, While
from repro.passes.base import Pass, register_pass
from repro.stdlib.primitives import get_primitive, is_primitive


def _is_shareable(program: Program, comp_name: str) -> bool:
    if is_primitive(comp_name):
        return get_primitive(comp_name).is_shareable()
    if program.has_component(comp_name):
        return bool(program.get_component(comp_name).attributes.get(SHARE, 0))
    return False


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


def cells_used_by(group: Group) -> Set[str]:
    used: Set[str] = set()
    for assign in group.assignments:
        for ref in assign.ports():
            if isinstance(ref, CellPort):
                used.add(ref.cell)
    return used


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
        candidate_set = set(candidates)

        group_conflicts = conflict_map(comp)
        usage: Dict[str, Set[str]] = {}  # cell -> groups using it
        for group in comp.groups.values():
            for cell in cells_used_by(group) & candidate_set:
                usage.setdefault(cell, set()).add(group.name)

        # Cells only merge within a (component type, args) class.
        classes: Dict[Tuple[str, Tuple[int, ...]], List[str]] = {}
        for name in candidates:
            cell = comp.cells[name]
            classes.setdefault((cell.comp_name, cell.args), []).append(name)

        rename: Dict[str, str] = {}
        for (comp_name, args), members in classes.items():
            if len(members) < 2 or not self._worth_sharing(program, comp_name, args):
                continue
            conflicts: Dict[str, Set[str]] = {m: set() for m in members}
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if self._cells_conflict(a, b, usage, group_conflicts):
                        conflicts[a].add(b)
                        conflicts[b].add(a)
            coloring = greedy_coloring(members, conflicts)
            for cell, rep in coloring.items():
                if cell != rep:
                    rename[cell] = rep

        if rename:
            rename_cells(comp, rename)

    def _worth_sharing(
        self, program: Program, comp_name: str, args: Tuple[int, ...]
    ) -> bool:
        """Should cells of this (component, args) class be merged at all?"""
        return True

    @staticmethod
    def _cells_conflict(
        a: str,
        b: str,
        usage: Dict[str, Set[str]],
        group_conflicts: Dict[str, Set[str]],
    ) -> bool:
        """May cells ``a`` and ``b`` be needed at the same time?"""
        groups_a = usage.get(a, set())
        groups_b = usage.get(b, set())
        if groups_a & groups_b:
            return True  # co-used within one group
        for ga in groups_a:
            neighbors = group_conflicts.get(ga, set())
            if neighbors & groups_b:
                return True
        return False
