"""Port references: the atoms on either side of a guarded assignment.

A port reference names a location in the design:

* :class:`CellPort` — a port of a cell instance (``add.left``),
* :class:`HolePort` — a group *hole*, i.e. its ``go`` or ``done`` interface
  signal (``one[done]``),
* :class:`ThisPort` — a port of the enclosing component (``go``, ``out``),
* :class:`ConstPort` — a sized literal (``32'd10``).

Port references are immutable value objects: they hash and compare by
content, which passes rely on when building substitution maps. Each
computes its hash once, at construction: the port table, the engine's slot
maps and the interned guards hash the same references many times over.
"""

from __future__ import annotations

from repro.errors import ValidationError

GO = "go"
DONE = "done"


class PortRef:
    """Abstract base for port references."""

    __slots__ = ()

    def is_hole(self) -> bool:
        return isinstance(self, HolePort)

    def to_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_string()})"


class CellPort(PortRef):
    """A port of a cell instance, written ``cell.port``."""

    __slots__ = ("cell", "port", "_hash")

    def __init__(self, cell: str, port: str):
        self.cell = cell
        self.port = port
        self._hash = hash(("cell", cell, port))

    def to_string(self) -> str:
        return f"{self.cell}.{self.port}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CellPort)
            and self.cell == other.cell
            and self.port == other.port
        )

    def __hash__(self) -> int:
        return self._hash


class HolePort(PortRef):
    """A group interface signal, written ``group[go]`` or ``group[done]``."""

    __slots__ = ("group", "port", "_hash")

    def __init__(self, group: str, port: str):
        if port not in (GO, DONE):
            raise ValidationError(f"hole port must be 'go' or 'done', got {port!r}")
        self.group = group
        self.port = port
        self._hash = hash(("hole", group, port))

    def to_string(self) -> str:
        return f"{self.group}[{self.port}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HolePort)
            and self.group == other.group
            and self.port == other.port
        )

    def __hash__(self) -> int:
        return self._hash


class ThisPort(PortRef):
    """A port in the enclosing component's signature, written by name."""

    __slots__ = ("port", "_hash")

    def __init__(self, port: str):
        self.port = port
        self._hash = hash(("this", port))

    def to_string(self) -> str:
        return self.port

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ThisPort) and self.port == other.port

    def __hash__(self) -> int:
        return self._hash


class ConstPort(PortRef):
    """A sized literal value, written ``<width>'d<value>``.

    The value is normalized modulo ``2**width`` so constants always fit
    their declared width.
    """

    __slots__ = ("width", "value", "_hash")

    def __init__(self, width: int, value: int):
        if width <= 0:
            raise ValidationError(f"constant width must be positive, got {width}")
        self.width = int(width)
        self.value = int(value) % (1 << self.width)
        self._hash = hash(("const", self.width, self.value))

    def to_string(self) -> str:
        return f"{self.width}'d{self.value}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstPort)
            and self.width == other.width
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash
