"""A fluent builder API for constructing Calyx programs from Python.

Frontends (the systolic array generator, the Dahlia backend, tests) use
this instead of assembling AST nodes by hand::

    b = Builder()
    main = b.component("main")
    r0 = main.reg("r0", 32)
    a0 = main.cell("a0", "std_add", 32)
    with main.group("incr") as g:
        g.assign(a0.left, r0.out)
        g.assign(a0.right, 1)
        g.assign(r0.in_, a0.out)
        g.assign(r0.write_en, 1)
        g.done(r0.done)
    main.control = seq(g)
    program = b.program

Cell handles expose ports as attributes (``r0.out``); a trailing underscore
escapes Python keywords (``r0.in_`` is the port named ``in``). Guards can
be combined with ``&``, ``|`` and ``~`` and built from ports with
:func:`guard`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.errors import UndefinedError, ValidationError
from repro.ir.attributes import Attributes, STATIC
from repro.ir.ast import (
    Assignment,
    Cell,
    CellPort,
    Component,
    ConstPort,
    Group,
    HolePort,
    PortRef,
    Program,
    ThisPort,
)
from repro.ir.control import Control, Empty, Enable, If, Invoke, Par, Seq, While
from repro.ir.guards import (
    G_TRUE,
    AndGuard,
    CmpGuard,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
)
from repro.ir.types import Direction, PortDef

# Things a user may pass where a port is expected.
PortLike = Union[PortRef, "CellHandle", int]
# Things a user may pass where a guard is expected.
GuardLike = Union[Guard, PortRef, None]
# Things a user may pass where a control statement is expected.
ControlLike = Union[Control, "GroupBuilder", Group, str]


# -- operator sugar on guards -------------------------------------------------
def _guard_and(self: Guard, other: object) -> Guard:
    return AndGuard(self, as_guard(other))


def _guard_or(self: Guard, other: object) -> Guard:
    return OrGuard(self, as_guard(other))


def _guard_invert(self: Guard) -> Guard:
    return NotGuard(self)


Guard.__and__ = _guard_and  # type: ignore[assignment]
Guard.__or__ = _guard_or  # type: ignore[assignment]
Guard.__invert__ = _guard_invert  # type: ignore[assignment]


def as_guard(value: object) -> Guard:
    """Coerce a port reference (or guard) into a guard expression."""
    if value is None:
        return G_TRUE
    if isinstance(value, Guard):
        return value
    if isinstance(value, PortRef):
        return PortGuard(value)
    raise ValidationError(f"cannot interpret {value!r} as a guard")


def guard(port: PortRef) -> Guard:
    """Wrap a 1-bit port as a guard expression."""
    return PortGuard(port)


def const(width: int, value: int) -> ConstPort:
    """A sized constant, e.g. ``const(32, 10)`` for ``32'd10``."""
    return ConstPort(width, value)


def cmp(op: str, left: PortRef, right: PortRef) -> Guard:
    """A comparison guard, e.g. ``cmp("==", fsm.out, const(2, 1))``."""
    return CmpGuard(op, left, right)


class CellHandle:
    """A convenience wrapper around a :class:`Cell` exposing its ports."""

    def __init__(self, cell: Cell, widths: Dict[str, int]):
        object.__setattr__(self, "_cell", cell)
        object.__setattr__(self, "_widths", widths)

    @property
    def name(self) -> str:
        return self._cell.name

    @property
    def cell(self) -> Cell:
        return self._cell

    def port(self, port_name: str) -> CellPort:
        if self._widths and port_name not in self._widths:
            raise UndefinedError(
                f"cell {self._cell.name!r} ({self._cell.comp_name}) has no "
                f"port {port_name!r}; ports: {sorted(self._widths)}"
            )
        return CellPort(self._cell.name, port_name)

    def port_width(self, port_name: str) -> Optional[int]:
        return self._widths.get(port_name)

    def __getattr__(self, attr: str) -> CellPort:
        if attr.startswith("_"):
            raise AttributeError(attr)
        return self.port(attr.rstrip("_"))

    def __repr__(self) -> str:
        return f"CellHandle({self._cell.name!r}: {self._cell.comp_name})"


class GroupBuilder:
    """Accumulates assignments into a :class:`Group`."""

    def __init__(self, comp_builder: "ComponentBuilder", group: Group):
        self._comp = comp_builder
        self.group = group

    @property
    def name(self) -> str:
        return self.group.name

    @property
    def go(self) -> HolePort:
        return self.group.go

    @property
    def done_port(self) -> HolePort:
        return self.group.done

    def assign(self, dst: PortLike, src: PortLike, guard: GuardLike = None) -> Assignment:
        """Add ``dst = guard ? src``; integer sources become sized constants."""
        dst_ref = self._comp._as_port(dst)
        src_ref = self._comp._as_src(src, dst_ref)
        assignment = Assignment(dst_ref, src_ref, as_guard(guard))
        self.group.assignments.append(assignment)
        return assignment

    def done(self, src: PortLike, guard: GuardLike = None) -> Assignment:
        """Add the group's done condition: ``name[done] = guard ? src``."""
        if self.group.comb:
            raise ValidationError(
                f"combinational group {self.group.name!r} cannot have a done condition"
            )
        return self.assign(self.group.done, src, guard)

    def __enter__(self) -> "GroupBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __repr__(self) -> str:
        return f"GroupBuilder({self.group.name!r})"


class ComponentBuilder:
    """Builds one component: ports, cells, groups, and control."""

    def __init__(self, builder: "Builder", component: Component):
        self._builder = builder
        self.component = component

    @property
    def name(self) -> str:
        return self.component.name

    # -- signature --------------------------------------------------------
    def input(self, name: str, width: int) -> ThisPort:
        self.component.inputs.append(PortDef(name, width, Direction.INPUT))
        return ThisPort(name)

    def output(self, name: str, width: int) -> ThisPort:
        self.component.outputs.append(PortDef(name, width, Direction.OUTPUT))
        return ThisPort(name)

    def this(self, port_name: str) -> ThisPort:
        self.component.port_def(port_name)  # raises when missing
        return ThisPort(port_name)

    # -- cells ---------------------------------------------------------------
    def cell(
        self,
        name: str,
        comp_name: str,
        *args: int,
        attributes: Optional[Dict[str, int]] = None,
        external: bool = False,
    ) -> CellHandle:
        """Instantiate a primitive or user component as a cell."""
        cell = Cell(name, comp_name, args, Attributes(attributes or {}), external)
        self.component.add_cell(cell)
        return self._handle(cell)

    def _handle(self, cell: Cell) -> CellHandle:
        widths: Dict[str, int] = {}
        try:
            sig = self._builder.program.cell_signature(cell)
            widths = {p: d.width for p, d in sig.items()}
        except UndefinedError:
            # Component defined later (or extern): port checking is skipped.
            widths = {}
        return CellHandle(cell, widths)

    def reg(self, name: str, width: int) -> CellHandle:
        return self.cell(name, "std_reg", width)

    def add(self, name: str, width: int) -> CellHandle:
        return self.cell(name, "std_add", width)

    def sub(self, name: str, width: int) -> CellHandle:
        return self.cell(name, "std_sub", width)

    def mult_pipe(self, name: str, width: int) -> CellHandle:
        return self.cell(name, "std_mult_pipe", width)

    def mem_d1(self, name: str, width: int, size: int, idx_size: int, external: bool = False) -> CellHandle:
        return self.cell(name, "std_mem_d1", width, size, idx_size, external=external)

    def mem_d2(
        self,
        name: str,
        width: int,
        d0: int,
        d1: int,
        d0_idx: int,
        d1_idx: int,
        external: bool = False,
    ) -> CellHandle:
        return self.cell(name, "std_mem_d2", width, d0, d1, d0_idx, d1_idx, external=external)

    def get_cell(self, name: str) -> CellHandle:
        return self._handle(self.component.get_cell(name))

    # -- groups ------------------------------------------------------------
    def group(self, name: str, static: Optional[int] = None, comb: bool = False) -> GroupBuilder:
        attrs = Attributes()
        if static is not None:
            attrs.set(STATIC, static)
        group = Group(name, attributes=attrs, comb=comb)
        self.component.add_group(group)
        return GroupBuilder(self, group)

    def comb_group(self, name: str) -> GroupBuilder:
        return self.group(name, comb=True)

    def continuous(self, dst: PortLike, src: PortLike, guard: GuardLike = None) -> Assignment:
        """Add a continuous (top-level wires) assignment."""
        dst_ref = self._as_port(dst)
        assignment = Assignment(dst_ref, self._as_src(src, dst_ref), as_guard(guard))
        self.component.continuous.append(assignment)
        return assignment

    # -- control -------------------------------------------------------------
    @property
    def control(self) -> Control:
        return self.component.control

    @control.setter
    def control(self, value: ControlLike) -> None:
        self.component.control = as_control(value)

    # -- coercion helpers -----------------------------------------------------
    def _as_port(self, value: PortLike) -> PortRef:
        if isinstance(value, PortRef):
            return value
        if isinstance(value, CellHandle):
            raise ValidationError(
                f"expected a port, got cell {value.name!r}; pick a port, e.g. .out"
            )
        raise ValidationError(f"cannot interpret {value!r} as a port")

    def _as_src(self, value: PortLike, dst: PortRef) -> PortRef:
        """Coerce a source; bare ints become constants sized to ``dst``."""
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, int):
            width = self._builder.program.port_width(self.component, dst)
            if width is None:
                raise ValidationError(
                    f"cannot size constant {value} for destination "
                    f"{dst.to_string()}; use const(width, value)"
                )
            return ConstPort(width, value)
        return self._as_port(value)


class Builder:
    """Top-level builder owning a :class:`Program`."""

    def __init__(self, entrypoint: str = "main"):
        self.program = Program(entrypoint=entrypoint)

    def component(
        self,
        name: str,
        inputs: Optional[Sequence[PortDef]] = None,
        outputs: Optional[Sequence[PortDef]] = None,
        attributes: Optional[Dict[str, int]] = None,
    ) -> ComponentBuilder:
        comp = Component(
            name,
            list(inputs or []),
            list(outputs or []),
            Attributes(attributes or {}),
        )
        self.program.add_component(comp)
        return ComponentBuilder(self, comp)

    def get_component(self, name: str) -> ComponentBuilder:
        return ComponentBuilder(self, self.program.get_component(name))


# -- control constructors -----------------------------------------------------
def as_control(value: ControlLike) -> Control:
    if isinstance(value, Control):
        return value
    if isinstance(value, GroupBuilder):
        return Enable(value.group.name)
    if isinstance(value, Group):
        return Enable(value.name)
    if isinstance(value, str):
        return Enable(value)
    raise ValidationError(f"cannot interpret {value!r} as control")


def enable(group: Union[str, Group, GroupBuilder]) -> Enable:
    return as_control(group)  # type: ignore[return-value]


def seq(*stmts: ControlLike) -> Seq:
    return Seq([as_control(s) for s in stmts])


def par(*stmts: ControlLike) -> Par:
    return Par([as_control(s) for s in stmts])


def if_(
    port: PortRef,
    cond: Optional[Union[str, Group, GroupBuilder]],
    tbranch: ControlLike,
    fbranch: Optional[ControlLike] = None,
) -> If:
    cond_name = None if cond is None else _group_name(cond)
    false_ctrl = Empty() if fbranch is None else as_control(fbranch)
    return If(port, cond_name, as_control(tbranch), false_ctrl)


def while_(
    port: PortRef,
    cond: Optional[Union[str, Group, GroupBuilder]],
    body: ControlLike,
) -> While:
    cond_name = None if cond is None else _group_name(cond)
    return While(port, cond_name, as_control(body))


def invoke(
    cell: Union[str, CellHandle],
    in_binds: Optional[Dict[str, PortLike]] = None,
    out_binds: Optional[Dict[str, PortRef]] = None,
) -> Invoke:
    cell_name = cell.name if isinstance(cell, CellHandle) else cell
    ins = {k: v for k, v in (in_binds or {}).items()}
    coerced: Dict[str, PortRef] = {}
    for key, value in ins.items():
        if isinstance(value, int):
            raise ValidationError(
                "invoke input bindings need explicit constants: use const(w, v)"
            )
        coerced[key] = value  # type: ignore[assignment]
    return Invoke(cell_name, coerced, dict(out_binds or {}))


def _group_name(value: Union[str, Group, GroupBuilder]) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Group):
        return value.name
    if isinstance(value, GroupBuilder):
        return value.group.name
    raise ValidationError(f"cannot interpret {value!r} as a group name")
