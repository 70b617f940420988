"""RemoveGroups (paper Section 4.2): inline interface signals, drop groups.

Precondition: every component's control is a single group enable (or
empty), i.e. CompileControl has run. The pass:

1. wires the component's ``go``/``done`` ports to the top group's holes,
2. collects every write to a ``go``/``done`` hole and replaces reads of
   the hole with the disjunction of the written conditions (the paper's
   "disjunction of the written expressions"),
3. moves all group assignments, with holes fully inlined, into the
   top-level wires section and deletes the groups.

The result is a flat, purely structural program ready for code generation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import PassError
from repro.ir.ast import (
    Assignment,
    Component,
    ConstPort,
    HolePort,
    PortRef,
    Program,
    ThisPort,
)
from repro.ir.control import Empty, Enable
from repro.ir.guards import G_TRUE, CmpGuard, Guard, NotGuard, PortGuard, fold, or_all
from repro.ir.ports import DONE, GO
from repro.passes.base import Pass, register_pass

_NEVER = NotGuard(G_TRUE)


class _Inliner:
    """Computes the structural definition of every hole in a component."""

    def __init__(self, comp: Component, top_group: Optional[str]):
        self.comp = comp
        self.top_group = top_group
        # hole -> list of (guard, src) pairs from assignments writing it.
        self.writes: Dict[HolePort, List[Tuple[Guard, PortRef]]] = {}
        self.cache: Dict[HolePort, Guard] = {}
        #: guard -> its expansion; shared sub-guards expand once.
        self.expanded: Dict[Guard, Guard] = {}
        self.visiting: Set[HolePort] = set()
        for group in comp.groups.values():
            for assign in group.assignments:
                if isinstance(assign.dst, HolePort):
                    self.writes.setdefault(assign.dst, []).append(
                        (assign.guard, assign.src)
                    )

    def define(self, hole: HolePort) -> Guard:
        """The fully inlined condition under which ``hole`` is high."""
        if hole in self.cache:
            return self.cache[hole]
        if hole in self.visiting:
            raise PassError(
                f"component {self.comp.name!r}: cyclic hole dependency "
                f"through {hole.to_string()}"
            )
        self.visiting.add(hole)
        terms: List[Guard] = []
        if hole.port == GO and hole.group == self.top_group:
            # The control program's single enable: driven by the component.
            terms.append(PortGuard(ThisPort(GO)))
        for guard, src in self.writes.get(hole, ()):
            term = self.expand(guard)
            src_guard = self._src_guard(src)
            if src_guard is not None:
                term = term.and_(src_guard)
            terms.append(term)
        result = or_all(terms) if terms else _NEVER
        self.visiting.discard(hole)
        self.cache[hole] = result
        return result

    def _src_guard(self, src: PortRef) -> Optional[Guard]:
        """Boolean contribution of a 1-bit source (None when constant 1)."""
        if isinstance(src, ConstPort):
            return None if src.value != 0 else _NEVER
        if isinstance(src, HolePort):
            return self.define(src)
        return PortGuard(src)

    def expand(self, guard: Guard) -> Guard:
        """Replace every hole reference inside ``guard`` by its definition."""
        return fold(guard, self._expand, self.expanded)

    def _expand(self, guard: Guard, children: Tuple[Guard, ...]) -> Guard:
        """The :func:`fold` visit: ``guard`` over its expanded ``children``."""
        if isinstance(guard, PortGuard):
            if isinstance(guard.port, HolePort):
                return self.define(guard.port)
        elif isinstance(guard, CmpGuard):
            if isinstance(guard.left, HolePort) or isinstance(guard.right, HolePort):
                raise PassError("holes may not appear in comparisons")
        return guard.rebuild(children)


@register_pass
class RemoveGroups(Pass):
    name = "remove-groups"
    description = "inline go/done signals and eliminate all groups"

    def run_component(self, program: Program, comp: Component) -> None:
        control = comp.control
        if isinstance(control, Enable):
            top_group = control.group
        elif isinstance(control, Empty):
            top_group = None
        else:
            raise PassError(
                f"component {comp.name!r}: RemoveGroups requires compiled "
                f"control (run compile-control first), found "
                f"{type(control).__name__}"
            )

        inliner = _Inliner(comp, top_group)
        flat: List[Assignment] = []
        for group in comp.groups.values():
            for assign in group.assignments:
                if isinstance(assign.dst, HolePort):
                    continue  # consumed by the inliner
                guard = inliner.expand(assign.guard)
                src = assign.src
                if isinstance(src, HolePort):
                    # A 1-bit read of a hole as data: materialize its
                    # condition as a guarded constant.
                    guard = guard.and_(inliner.define(src))
                    src = ConstPort(1, 1)
                flat.append(Assignment(assign.dst, src, guard))

        # Component done: the top group's done condition (or immediately
        # when there is no control), unless wires already drive it.
        done_driven = any(
            isinstance(a.dst, ThisPort) and a.dst.port == DONE
            for a in comp.continuous
        ) or any(
            isinstance(a.dst, ThisPort) and a.dst.port == DONE for a in flat
        )
        if not done_driven:
            if top_group is not None:
                done_guard = inliner.define(HolePort(top_group, DONE))
            else:
                done_guard = PortGuard(ThisPort(GO))
            flat.append(Assignment(ThisPort(DONE), ConstPort(1, 1), done_guard))

        comp.continuous.extend(flat)
        for name in list(comp.groups):
            comp.remove_group(name)
        comp.control = Empty()
