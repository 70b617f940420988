"""The guard expression language (paper Section 3.2).

Guards condition assignments: ``add.left = cmp.out ? a_reg.out``. They are
built from ports and a small language of boolean connectives (``!``, ``&``,
``|``) plus port comparisons (``==``, ``!=``, ``<``, ``>``, ``<=``, ``>=``).

Guards form one interned DAG. Every constructor looks its node up by
``(class, children...)`` in a weak table, so equal structures are the same
object: equality is identity, the hash is the identity hash, and a shared
prefix (the ``go``/FSM tests lowering folds into every guard) exists once.
Every walk over the DAG is a :func:`fold`, which visits each distinct node
once per memo. Nodes are immutable; a node no program references any more
is collected.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.ir.ports import PortRef

CMP_OPS = ("==", "!=", "<", ">", "<=", ">=")

#: ``(class, children...)`` -> the one live node with that structure.
_INTERNED: "weakref.WeakValueDictionary[tuple, Guard]" = weakref.WeakValueDictionary()

T = TypeVar("T")


class Guard:
    """Abstract base class for guard expressions.

    ``children`` holds the sub-guards: ``(inner,)`` for ``!``,
    ``(left, right)`` for ``&`` and ``|``, ``()`` for the leaves (true,
    a port, a comparison). ``op`` is the operator of every node but
    ``true`` and a port guard.
    """

    __slots__ = ("_ports", "children", "__weakref__")

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

    def rebuild(self, children: Tuple["Guard", ...]) -> "Guard":
        """This node's operator over ``children``; itself if they are its own."""
        if children == self.children:
            return self
        return type(self)(*children)

    # -- queries -------------------------------------------------------
    def ports(self) -> Tuple[PortRef, ...]:
        """Every port referenced by this guard, in tree order with repeats."""
        return self._ports

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> "Guard":
        """Return a copy with every port rewritten through ``fn``."""

        def visit(node: Guard, children: Tuple[Guard, ...]) -> Guard:
            if children:
                return node.rebuild(children)
            if isinstance(node, PortGuard):
                return PortGuard(fn(node.port))
            if isinstance(node, CmpGuard):
                return CmpGuard(node.op, fn(node.left), fn(node.right))
            return node

        return fold(self, visit, {})

    def size(self) -> int:
        """Number of operator nodes in the tree (shared nodes count again)."""
        return fold(self, _size, {})

    def to_string(self, memo: Optional[Dict["Guard", str]] = None) -> str:
        """Surface syntax; ``memo`` renders a node shared between calls once."""
        return fold(self, _render, {} if memo is None else memo)

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
            node._ports = node.children = ()
            _INTERNED[key] = node
        return node


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
            node.children = ()
            _INTERNED[key] = node
        return node


class NotGuard(Guard):
    """Boolean negation: ``!g``."""

    __slots__ = ("inner",)
    op = "!"

    def __new__(cls, inner: Guard) -> "NotGuard":
        key = (cls, inner)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            node.inner = inner
            node._ports = inner._ports
            node.children = (inner,)
            _INTERNED[key] = node
        return node


class _BinaryGuard(Guard):
    """A boolean connective over two sub-guards."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Guard, right: Guard) -> "_BinaryGuard":
        key = (cls, left, right)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            node.left = left
            node.right = right
            node._ports = left._ports + right._ports
            node.children = (left, right)
            _INTERNED[key] = node
        return node


class AndGuard(_BinaryGuard):
    """Boolean conjunction: ``a & b``."""

    __slots__ = ()
    op = "&"


class OrGuard(_BinaryGuard):
    """Boolean disjunction: ``a | b``."""

    __slots__ = ()
    op = "|"


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
            node.children = ()
            _INTERNED[key] = node
        return node


_MISSING = object()


def fold(guard: Guard, visit: Callable[[Guard, Tuple[T, ...]], T], memo: Dict[Guard, T]) -> T:
    """Fold the DAG under ``guard`` bottom-up, each distinct node once.

    ``visit(node, folded)`` runs for every node not yet in ``memo``, after
    its children (left before right); ``folded`` holds the children's
    results in ``node.children`` order. Each result, falsy ones included,
    is stored in ``memo``, so a memo shared between calls shares the work.
    """
    result = memo.get(guard, _MISSING)
    if result is _MISSING:
        children = guard.children
        if not children:
            result = visit(guard, ())
        elif len(children) == 1:
            result = visit(guard, (fold(children[0], visit, memo),))
        else:
            left = fold(children[0], visit, memo)
            result = visit(guard, (left, fold(children[1], visit, memo)))
        memo[guard] = result
    return result


def _size(node: Guard, sizes: Tuple[int, ...]) -> int:
    """:meth:`Guard.size`'s visit: one per operator node, repeats included."""
    if sizes:
        return 1 + sum(sizes)
    return 1 if isinstance(node, CmpGuard) else 0


def _render(node: Guard, texts: Tuple[str, ...]) -> str:
    """:meth:`Guard.to_string`'s visit."""
    if isinstance(node, NotGuard):
        return f"!{_atom(node.inner, texts[0])}"
    if isinstance(node, _BinaryGuard):
        return f"{_atom(node.left, texts[0])} {node.op} {_atom(node.right, texts[1])}"
    if isinstance(node, CmpGuard):
        return f"{node.left.to_string()} {node.op} {node.right.to_string()}"
    if isinstance(node, PortGuard):
        return node.port.to_string()
    return "1"


def _atom(guard: Guard, text: str) -> str:
    """A sub-guard's text, parenthesized unless it is atomic."""
    if isinstance(guard, (_BinaryGuard, CmpGuard)):
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
