"""The guard expression language (paper Section 3.2).

Guards condition assignments: ``add.left = cmp.out ? a_reg.out``. They are
built from ports and a small language of boolean connectives (``!``, ``&``,
``|``) plus port comparisons (``==``, ``!=``, ``<``, ``>``, ``<=``, ``>=``).

Guards form one interned DAG. Every constructor looks its node up by
``(class, children...)`` in a weak table, so equal structures are the same
object: equality is identity, the hash is the identity hash, and a shared
prefix (the ``go``/FSM tests lowering folds into every guard) exists once.
Consumers walk each distinct node once by memoizing on the node itself.
Nodes are immutable; a node no program references any more is collected.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Tuple

from repro.ir.ports import PortRef

CMP_OPS = ("==", "!=", "<", ">", "<=", ">=")

#: ``(class, children...)`` -> the one live node with that structure.
_INTERNED: "weakref.WeakValueDictionary[tuple, Guard]" = weakref.WeakValueDictionary()


class Guard:
    """Abstract base class for guard expressions."""

    __slots__ = ("_ports", "__weakref__")

    # -- combinators --------------------------------------------------
    def and_(self, other: "Guard") -> "Guard":
        """Conjunction with constant folding of the trivial cases."""
        if isinstance(self, TrueGuard):
            return other
        if isinstance(other, TrueGuard):
            return self
        return AndGuard(self, other)

    def or_(self, other: "Guard") -> "Guard":
        """Disjunction; ``true | g`` folds to ``true``."""
        if isinstance(self, TrueGuard) or isinstance(other, TrueGuard):
            return G_TRUE
        return OrGuard(self, other)

    def not_(self) -> "Guard":
        if isinstance(self, NotGuard):
            return self.inner
        return NotGuard(self)

    # -- queries -------------------------------------------------------
    def ports(self) -> Tuple[PortRef, ...]:
        """Every port referenced by this guard, in tree order with repeats."""
        return self._ports

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> "Guard":
        """Return a copy with every port rewritten through ``fn``."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of operator nodes in the tree (shared nodes count again)."""
        return 0

    def to_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"Guard({self.to_string()})"

    # An interned node is an immutable value: copying returns it.
    def __copy__(self) -> "Guard":
        return self

    def __deepcopy__(self, memo) -> "Guard":
        return self


class TrueGuard(Guard):
    """The always-true guard: an unconditional assignment."""

    __slots__ = ()

    def __new__(cls) -> "TrueGuard":
        key = (cls,)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            node._ports = ()
            _INTERNED[key] = node
        return node

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return self

    def to_string(self) -> str:
        return "1"


G_TRUE = TrueGuard()


class PortGuard(Guard):
    """A 1-bit port used directly as a boolean."""

    __slots__ = ("port",)

    def __new__(cls, port: PortRef) -> "PortGuard":
        key = (cls, port)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            node.port = port
            node._ports = (port,)
            _INTERNED[key] = node
        return node

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return PortGuard(fn(self.port))

    def to_string(self) -> str:
        return self.port.to_string()


class NotGuard(Guard):
    """Boolean negation: ``!g``."""

    __slots__ = ("inner",)

    def __new__(cls, inner: Guard) -> "NotGuard":
        key = (cls, inner)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            node.inner = inner
            node._ports = inner._ports
            _INTERNED[key] = node
        return node

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return NotGuard(self.inner.map_ports(fn))

    def size(self) -> int:
        return 1 + self.inner.size()

    def to_string(self) -> str:
        return f"!{_atom(self.inner)}"


class _BinaryGuard(Guard):
    """A boolean connective over two sub-guards."""

    __slots__ = ("left", "right")
    symbol = ""

    def __new__(cls, left: Guard, right: Guard) -> "_BinaryGuard":
        key = (cls, left, right)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            node.left = left
            node.right = right
            node._ports = left._ports + right._ports
            _INTERNED[key] = node
        return node

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return type(self)(self.left.map_ports(fn), self.right.map_ports(fn))

    def size(self) -> int:
        return 1 + self.left.size() + self.right.size()

    def to_string(self) -> str:
        return f"{_atom(self.left)} {self.symbol} {_atom(self.right)}"


class AndGuard(_BinaryGuard):
    """Boolean conjunction: ``a & b``."""

    __slots__ = ()
    symbol = "&"


class OrGuard(_BinaryGuard):
    """Boolean disjunction: ``a | b``."""

    __slots__ = ()
    symbol = "|"


class CmpGuard(Guard):
    """An unsigned comparison between two ports, e.g. ``fsm.out == 2'd1``."""

    __slots__ = ("op", "left", "right")

    def __new__(cls, op: str, left: PortRef, right: PortRef) -> "CmpGuard":
        if op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        key = (cls, op, left, right)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            node.op = op
            node.left = left
            node.right = right
            node._ports = (left, right)
            _INTERNED[key] = node
        return node

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return CmpGuard(self.op, fn(self.left), fn(self.right))

    def size(self) -> int:
        return 1

    def to_string(self) -> str:
        return f"{self.left.to_string()} {self.op} {self.right.to_string()}"


def _atom(guard: Guard) -> str:
    """Render a sub-guard, parenthesizing non-atomic children."""
    text = guard.to_string()
    if isinstance(guard, (AndGuard, OrGuard, CmpGuard)):
        return f"({text})"
    return text


def and_all(guards: List[Guard]) -> Guard:
    """Conjoin a list of guards, folding the empty list to true."""
    result: Guard = G_TRUE
    for guard in guards:
        result = result.and_(guard)
    return result


def or_all(guards: List[Guard]) -> Guard:
    """Disjoin a list of guards; the empty list folds to ``!1`` (never)."""
    if not guards:
        return NotGuard(G_TRUE)
    result = guards[0]
    for guard in guards[1:]:
        result = result.or_(guard)
    return result
