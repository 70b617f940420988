"""Non-raising name/width resolution for lint rules.

:class:`ComponentView` mirrors the resolver the validator used to keep
inline, with one crucial difference: resolution failures return ``None``
instead of raising. A linter must keep going after the first problem —
every rule sees the whole component, and unresolvable references are
reported exactly once by the ``unknown-name`` rule rather than aborting
the walk.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import CalyxError
from repro.ir.ast import (
    CellPort,
    Component,
    ConstPort,
    HolePort,
    PortRef,
    Program,
    ThisPort,
)
from repro.ir.types import Direction, PortDef
from repro.sim.structural import DriverRaces, driver_races


class ComponentView:
    """Tolerant resolution of port references within one component.

    All lookups are memoized; a ``None`` result means "could not resolve"
    and is itself cached so repeated queries stay cheap.
    """

    def __init__(self, program: Program, comp: Component):
        self.program = program
        self.comp = comp
        self._cell_sigs: Dict[str, Optional[Dict[str, PortDef]]] = {}
        self._signature: Optional[Dict[str, PortDef]] = None
        self._driver_races: Optional[DriverRaces] = None

    # -- signatures --------------------------------------------------------
    def signature(self) -> Dict[str, PortDef]:
        """The component's own ports; first definition wins on duplicates."""
        if self._signature is None:
            sig: Dict[str, PortDef] = {}
            for port in list(self.comp.inputs) + list(self.comp.outputs):
                sig.setdefault(port.name, port)
            self._signature = sig
        return self._signature

    def driver_races(self) -> DriverRaces:
        """:func:`repro.sim.structural.driver_races`, computed once."""
        if self._driver_races is None:
            self._driver_races = driver_races(self.comp)
        return self._driver_races

    def duplicate_ports(self) -> Dict[str, int]:
        """Port names declared more than once, with their counts."""
        counts: Dict[str, int] = {}
        for port in list(self.comp.inputs) + list(self.comp.outputs):
            counts[port.name] = counts.get(port.name, 0) + 1
        return {name: n for name, n in counts.items() if n > 1}

    def cell_signature(self, cell_name: str) -> Optional[Dict[str, PortDef]]:
        """Signature of a cell instance, or None if it cannot resolve.

        Unresolvable means: no such cell, the cell instantiates an unknown
        component/primitive, or instantiation arguments are malformed.
        """
        if cell_name not in self._cell_sigs:
            cell = self.comp.cells.get(cell_name)
            if cell is None:
                self._cell_sigs[cell_name] = None
            else:
                try:
                    self._cell_sigs[cell_name] = self.program.cell_signature(cell)
                except (CalyxError, Exception):
                    self._cell_sigs[cell_name] = None
        return self._cell_sigs[cell_name]

    def cell_failure(self, cell_name: str) -> Optional[str]:
        """The resolution error for a cell's signature, if any."""
        cell = self.comp.cells.get(cell_name)
        if cell is None:
            return f"no cell named {cell_name!r}"
        try:
            self.program.cell_signature(cell)
            return None
        except CalyxError as exc:
            return str(exc)
        except Exception as exc:  # malformed primitive args and the like
            return f"{cell.comp_name}({', '.join(map(str, cell.args))}): {exc}"

    # -- port references ---------------------------------------------------
    def resolve(self, ref: PortRef) -> Optional[PortDef]:
        """PortDef for a reference; None for holes/constants/unresolvable."""
        if isinstance(ref, (HolePort, ConstPort)):
            return None
        if isinstance(ref, ThisPort):
            return self.signature().get(ref.port)
        if isinstance(ref, CellPort):
            sig = self.cell_signature(ref.cell)
            if sig is None:
                return None
            return sig.get(ref.port)
        return None

    def resolvable(self, ref: PortRef) -> bool:
        """Does this reference name something that exists?"""
        if isinstance(ref, ConstPort):
            return True
        if isinstance(ref, HolePort):
            return ref.group in self.comp.groups
        return self.resolve(ref) is not None

    def width(self, ref: PortRef) -> Optional[int]:
        if isinstance(ref, ConstPort):
            return ref.width
        if isinstance(ref, HolePort):
            return 1
        port = self.resolve(ref)
        return None if port is None else port.width

    def is_writable(self, ref: PortRef) -> Optional[bool]:
        """May this reference be an assignment destination? None = unknown."""
        if isinstance(ref, ConstPort):
            return False
        if isinstance(ref, HolePort):
            return True
        port = self.resolve(ref)
        if port is None:
            return None
        if isinstance(ref, ThisPort):
            return port.direction is Direction.OUTPUT
        return port.direction is Direction.INPUT

    def is_readable(self, ref: PortRef) -> Optional[bool]:
        """May this reference be a source or guard operand? None = unknown."""
        if isinstance(ref, (ConstPort, HolePort)):
            return True
        port = self.resolve(ref)
        if port is None:
            return None
        if isinstance(ref, ThisPort):
            return port.direction is Direction.INPUT
        return port.direction is Direction.OUTPUT
