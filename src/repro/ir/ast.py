"""Structural core of the Calyx IL: assignments, cells, groups, components.

A :class:`Program` is a list of :class:`Component` definitions plus extern
declarations. Each component contains *cells* (sub-component instances),
*wires* (guarded :class:`Assignment` objects, either free-floating
"continuous" assignments or encapsulated in :class:`Group` objects), and a
control program (see :mod:`repro.ir.control`).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import UndefinedError, ValidationError
from repro.ir.attributes import Attributes
from repro.ir.guards import G_TRUE, Guard
from repro.ir.ports import (
    GO,
    DONE,
    CellPort,
    ConstPort,
    HolePort,
    PortRef,
    ThisPort,
)
from repro.ir.types import Direction, PortDef

# Re-export the port reference types: most clients import them from here.
__all__ = [
    "Assignment",
    "Cell",
    "CellPort",
    "Component",
    "ConstPort",
    "Group",
    "HolePort",
    "PortRef",
    "Program",
    "ThisPort",
]


class Assignment:
    """A guarded, non-blocking connection: ``dst = guard ? src``.

    Mirrors an RTL continuous assignment (paper Section 3.2): updates to the
    source are immediately visible at the destination whenever the guard is
    true.

    ``span`` is the source position recorded by the parser (None for
    assignments built programmatically); copies and rewrites preserve it.
    """

    __slots__ = ("dst", "src", "guard", "span")

    def __init__(self, dst: PortRef, src: PortRef, guard: Guard = G_TRUE):
        if isinstance(dst, ConstPort):
            raise ValidationError("cannot assign to a constant")
        self.dst = dst
        self.src = src
        self.guard = guard
        self.span = None

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> "Assignment":
        """Return a copy with every port (dst, src, guard) rewritten."""
        new = Assignment(fn(self.dst), fn(self.src), self.guard.map_ports(fn))
        new.span = self.span
        return new

    def ports(self) -> Iterator[PortRef]:
        """All ports mentioned: destination, source, then guard ports."""
        yield self.dst
        yield self.src
        yield from self.guard.ports()

    def reads(self) -> Iterator[PortRef]:
        """Ports whose value this assignment observes (source + guard)."""
        yield self.src
        yield from self.guard.ports()

    def is_unconditional(self) -> bool:
        return isinstance(self.guard, type(G_TRUE))

    def copy(self) -> "Assignment":
        new = Assignment(self.dst, self.src, self.guard)
        new.span = self.span
        return new

    def to_string(self, guard_text: Optional[Dict[Guard, str]] = None) -> str:
        """Surface syntax; ``guard_text`` is :meth:`Guard.to_string`'s memo."""
        if self.is_unconditional():
            return f"{self.dst.to_string()} = {self.src.to_string()};"
        guard = self.guard.to_string(guard_text)
        return f"{self.dst.to_string()} = {guard} ? {self.src.to_string()};"

    def __repr__(self) -> str:
        return f"Assignment({self.to_string()})"


class Cell:
    """An instance of a primitive or user-defined component.

    ``args`` are instantiation parameters — e.g. ``std_reg(32)`` has
    ``args == (32,)``. User-defined components take no parameters.
    """

    __slots__ = ("name", "comp_name", "args", "attributes", "external", "span")

    def __init__(
        self,
        name: str,
        comp_name: str,
        args: Iterable[int] = (),
        attributes: Optional[Attributes] = None,
        external: bool = False,
    ):
        self.name = name
        self.comp_name = comp_name
        self.args = tuple(int(a) for a in args)
        self.attributes = attributes or Attributes()
        self.external = external
        self.span = None

    def copy(self) -> "Cell":
        new = Cell(self.name, self.comp_name, self.args, self.attributes.copy(), self.external)
        new.span = self.span
        return new

    def to_string(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        attrs = self.attributes.to_string()
        return f"{self.name}{attrs} = {self.comp_name}({args});"

    def __repr__(self) -> str:
        return f"Cell({self.to_string()})"


class Group:
    """A named set of assignments implementing one action (Section 3.3).

    Groups encapsulate their assignments: they are inactive unless enabled
    by the control program, so multiple groups may drive the same port.
    A *combinational* group (``comb=True``) has no ``done`` condition and
    may only be used to compute ``if``/``while`` conditions.
    """

    __slots__ = ("name", "assignments", "attributes", "comb", "span")

    def __init__(
        self,
        name: str,
        assignments: Optional[List[Assignment]] = None,
        attributes: Optional[Attributes] = None,
        comb: bool = False,
    ):
        self.name = name
        self.assignments: List[Assignment] = list(assignments or [])
        self.attributes = attributes or Attributes()
        self.comb = comb
        self.span = None

    @property
    def go(self) -> HolePort:
        return HolePort(self.name, GO)

    @property
    def done(self) -> HolePort:
        return HolePort(self.name, DONE)

    def done_assignments(self) -> List[Assignment]:
        """Assignments that write this group's own ``done`` hole."""
        return [
            a
            for a in self.assignments
            if isinstance(a.dst, HolePort) and a.dst.group == self.name and a.dst.port == DONE
        ]

    def copy(self) -> "Group":
        new = Group(
            self.name,
            [a.copy() for a in self.assignments],
            self.attributes.copy(),
            self.comb,
        )
        new.span = self.span
        return new

    def __repr__(self) -> str:
        kind = "comb group" if self.comb else "group"
        return f"Group({kind} {self.name}, {len(self.assignments)} assignments)"


class Component:
    """A Calyx component: signature, cells, wires, and control.

    Every non-combinational component implicitly participates in the go/done
    calling convention (Section 4.1): a 1-bit ``go`` input and ``done``
    output are added to the signature automatically unless already present.
    """

    def __init__(
        self,
        name: str,
        inputs: Optional[List[PortDef]] = None,
        outputs: Optional[List[PortDef]] = None,
        attributes: Optional[Attributes] = None,
        add_interface: bool = True,
    ):
        from repro.ir.control import Control, Empty  # local: avoid import cycle

        self.name = name
        self.inputs: List[PortDef] = [p.copy() for p in (inputs or [])]
        self.outputs: List[PortDef] = [p.copy() for p in (outputs or [])]
        self.attributes = attributes or Attributes()
        self.cells: Dict[str, Cell] = {}
        self.groups: Dict[str, Group] = {}
        self.continuous: List[Assignment] = []
        self.control: Control = Empty()
        self.span = None
        #: Suffix :meth:`gen_name` tries next; a copy carries it on, so a
        #: copy taken mid-pipeline names new cells as the original would.
        self._next_name = 0

        if add_interface:
            if not any(p.name == GO for p in self.inputs):
                self.inputs.append(PortDef(GO, 1, Direction.INPUT))
            if not any(p.name == DONE for p in self.outputs):
                self.outputs.append(PortDef(DONE, 1, Direction.OUTPUT))

        for port in self.inputs:
            port.direction = Direction.INPUT
        for port in self.outputs:
            port.direction = Direction.OUTPUT

    # -- signature -----------------------------------------------------
    def signature(self) -> Dict[str, PortDef]:
        """Name-to-definition map over all input and output ports."""
        sig: Dict[str, PortDef] = {}
        for port in itertools.chain(self.inputs, self.outputs):
            if port.name in sig:
                raise ValidationError(
                    f"component {self.name!r} declares port {port.name!r} twice"
                )
            sig[port.name] = port
        return sig

    def port_def(self, name: str) -> PortDef:
        for port in itertools.chain(self.inputs, self.outputs):
            if port.name == name:
                return port
        raise UndefinedError(f"component {self.name!r} has no port {name!r}")

    # -- cells ---------------------------------------------------------
    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise ValidationError(
                f"component {self.name!r} already has a cell named {cell.name!r}"
            )
        self.cells[cell.name] = cell
        return cell

    def get_cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise UndefinedError(
                f"component {self.name!r} has no cell named {name!r}"
            ) from None

    def remove_cell(self, name: str) -> None:
        self.cells.pop(name, None)

    # -- groups ----------------------------------------------------------
    def add_group(self, group: Group) -> Group:
        if group.name in self.groups:
            raise ValidationError(
                f"component {self.name!r} already has a group named {group.name!r}"
            )
        self.groups[group.name] = group
        return group

    def get_group(self, name: str) -> Group:
        try:
            return self.groups[name]
        except KeyError:
            raise UndefinedError(
                f"component {self.name!r} has no group named {name!r}"
            ) from None

    def remove_group(self, name: str) -> None:
        self.groups.pop(name, None)

    # -- helpers -----------------------------------------------------------
    def gen_name(self, prefix: str) -> str:
        """Generate a fresh name that collides with no cell or group."""
        while True:
            candidate = f"{prefix}{self._next_name}"
            self._next_name += 1
            if candidate not in self.cells and candidate not in self.groups:
                return candidate

    def all_assignments(self) -> Iterator[Tuple[Optional[Group], Assignment]]:
        """Every assignment in the component, tagged with its owning group.

        Continuous assignments are tagged with ``None``.
        """
        for group in self.groups.values():
            for assign in group.assignments:
                yield group, assign
        for assign in self.continuous:
            yield None, assign

    def copy(self) -> "Component":
        clone = Component(
            self.name,
            [p.copy() for p in self.inputs],
            [p.copy() for p in self.outputs],
            self.attributes.copy(),
            add_interface=False,
        )
        for cell in self.cells.values():
            clone.add_cell(cell.copy())
        for group in self.groups.values():
            clone.add_group(group.copy())
        clone.continuous = [a.copy() for a in self.continuous]
        clone.control = self.control.copy()
        clone.span = self.span
        clone._next_name = self._next_name
        return clone

    def __repr__(self) -> str:
        return (
            f"Component({self.name!r}, cells={len(self.cells)}, "
            f"groups={len(self.groups)})"
        )


class ExternDef:
    """An external (black-box RTL) component declaration (Section 6.2).

    The body is supplied by ``path`` at code-generation time; the toolchain
    only knows the signature. For simulation, a Python behaviour may be
    registered under the component name in :mod:`repro.stdlib.behaviors`.
    """

    def __init__(self, path: str, components: List[Component]):
        self.path = path
        self.components = components

    def __repr__(self) -> str:
        names = ", ".join(c.name for c in self.components)
        return f"ExternDef({self.path!r}, [{names}])"


class Program:
    """A complete Calyx program: components plus extern declarations."""

    def __init__(
        self,
        components: Optional[List[Component]] = None,
        externs: Optional[List[ExternDef]] = None,
        entrypoint: str = "main",
    ):
        self.components: List[Component] = list(components or [])
        self.externs: List[ExternDef] = list(externs or [])
        self.entrypoint = entrypoint

    # -- lookup ------------------------------------------------------------
    def find_component(self, name: str) -> Optional[Component]:
        """The component or extern declaration named ``name``, or ``None``."""
        for comp in self.components:
            if comp.name == name:
                return comp
        for extern in self.externs:
            for comp in extern.components:
                if comp.name == name:
                    return comp
        return None

    def get_component(self, name: str) -> Component:
        comp = self.find_component(name)
        if comp is None:
            raise UndefinedError(f"program has no component named {name!r}")
        return comp

    def has_component(self, name: str) -> bool:
        return self.find_component(name) is not None

    def is_extern(self, name: str) -> bool:
        """Whether ``name`` is declared by an extern (simulated by a model)."""
        return any(c.name == name for e in self.externs for c in e.components)

    def add_component(self, comp: Component) -> Component:
        if self.has_component(comp.name):
            raise ValidationError(f"program already defines component {comp.name!r}")
        self.components.append(comp)
        return comp

    @property
    def main(self) -> Component:
        return self.get_component(self.entrypoint)

    def cell_signature(self, cell: Cell) -> Mapping[str, PortDef]:
        """Resolve the port signature of a cell instance.

        User-defined and extern components are looked up in the program;
        anything else must be a standard-library primitive, whose signature
        is a read-only mapping shared by every cell with the same arguments.
        """
        comp = self.find_component(cell.comp_name)
        if comp is not None:
            return comp.signature()
        from repro.stdlib.primitives import get_primitive

        return get_primitive(cell.comp_name).signature(cell.args)

    def port_width(self, comp: Component, ref: PortRef) -> Optional[int]:
        """The width of ``ref`` inside ``comp``, or ``None`` if unknown.

        Tolerant, for sizing literals before validation: an undefined cell
        or port gives ``None``, and a port declared twice the width of its
        first declaration; validation and lint report those. A malformed
        primitive instance raises its :class:`ValidationError`.
        """
        if isinstance(ref, ConstPort):
            return ref.width
        if isinstance(ref, HolePort):
            return 1
        try:
            if isinstance(ref, ThisPort):
                return comp.port_def(ref.port).width
            if isinstance(ref, CellPort):
                cell = comp.get_cell(ref.cell)
                callee = self.find_component(cell.comp_name)
                if callee is not None:
                    return callee.port_def(ref.port).width
                port = self.cell_signature(cell).get(ref.port)
                return None if port is None else port.width
        except UndefinedError:
            pass
        return None

    def copy(self) -> "Program":
        return Program(
            [c.copy() for c in self.components],
            [ExternDef(e.path, [c.copy() for c in e.components]) for e in self.externs],
            self.entrypoint,
        )

    def __repr__(self) -> str:
        return f"Program({[c.name for c in self.components]!r})"
