"""The control sub-language (paper Sections 3.3-3.4).

Control statements orchestrate group execution. Unlike groups, they have no
direct hardware analog; the compiler realizes them with finite-state
machines (:mod:`repro.passes.compile_control`).

The node kinds are:

* :class:`Enable` — run one group to completion,
* :class:`Seq` — run children in order,
* :class:`Par` — run children in parallel; finishes when all have finished,
* :class:`If` — compute a condition group, then run one branch,
* :class:`While` — compute a condition group; run the body while the
  condition port is high,
* :class:`Invoke` — call a sub-component through the go/done calling
  convention (an extension over the paper's core language),
* :class:`Empty` — do nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.ir.ast import Assignment
from repro.ir.attributes import Attributes
from repro.ir.guards import NotGuard, PortGuard
from repro.ir.ports import DONE, GO, CellPort, ConstPort, PortRef


class Control:
    """Abstract base class for control tree nodes."""

    #: Source position recorded by the parser; ``None`` for nodes built
    #: programmatically. A class attribute so that the many ``copy``
    #: implementations need not thread it.
    span = None

    def __init__(self, attributes: Optional[Attributes] = None):
        self.attributes = attributes or Attributes()

    def children(self) -> List["Control"]:
        """Direct sub-statements (empty for leaves)."""
        return []

    def replace_children(self, new_children: List["Control"]) -> None:
        """Replace direct sub-statements, in the order ``children`` returns."""
        if new_children:
            raise ValueError(f"{type(self).__name__} has no children to replace")

    def walk(self) -> Iterator["Control"]:
        """Pre-order traversal of the whole subtree, including self."""
        yield self
        for child in self.children():
            yield from child.walk()

    def enabled_groups(self) -> Iterator[str]:
        """Names of all groups enabled (or used as conditions) below here."""
        for node in self.walk():
            if isinstance(node, Enable):
                yield node.group
            elif isinstance(node, (If, While)) and node.cond_group is not None:
                yield node.cond_group

    def is_empty(self) -> bool:
        return isinstance(self, Empty)

    def copy(self) -> "Control":
        raise NotImplementedError

    def to_string(self) -> str:
        from repro.ir.printer import control_to_string

        return control_to_string(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Empty(Control):
    """The empty control program."""

    def copy(self) -> "Empty":
        return Empty(self.attributes.copy())


class Enable(Control):
    """Pass control to a single group until its ``done`` signal rises."""

    def __init__(self, group: str, attributes: Optional[Attributes] = None):
        super().__init__(attributes)
        self.group = group

    def copy(self) -> "Enable":
        return Enable(self.group, self.attributes.copy())

    def __repr__(self) -> str:
        return f"Enable({self.group!r})"


class Seq(Control):
    """Execute children one after another."""

    def __init__(self, stmts: List[Control], attributes: Optional[Attributes] = None):
        super().__init__(attributes)
        self.stmts = list(stmts)

    def children(self) -> List[Control]:
        return self.stmts

    def replace_children(self, new_children: List[Control]) -> None:
        self.stmts = list(new_children)

    def copy(self) -> "Seq":
        return Seq([s.copy() for s in self.stmts], self.attributes.copy())

    def __repr__(self) -> str:
        return f"Seq({self.stmts!r})"


class Par(Control):
    """Execute children in parallel; completes when every child has."""

    def __init__(self, stmts: List[Control], attributes: Optional[Attributes] = None):
        super().__init__(attributes)
        self.stmts = list(stmts)

    def children(self) -> List[Control]:
        return self.stmts

    def replace_children(self, new_children: List[Control]) -> None:
        self.stmts = list(new_children)

    def copy(self) -> "Par":
        return Par([s.copy() for s in self.stmts], self.attributes.copy())

    def __repr__(self) -> str:
        return f"Par({self.stmts!r})"


class If(Control):
    """Conditional: run ``cond_group``, read ``port``, take one branch.

    ``cond_group`` may be ``None`` when the port is driven by continuous
    assignments (or by a combinational group's cells).
    """

    def __init__(
        self,
        port: PortRef,
        cond_group: Optional[str],
        tbranch: Control,
        fbranch: Optional[Control] = None,
        attributes: Optional[Attributes] = None,
    ):
        super().__init__(attributes)
        self.port = port
        self.cond_group = cond_group
        self.tbranch = tbranch
        self.fbranch = fbranch if fbranch is not None else Empty()

    def children(self) -> List[Control]:
        return [self.tbranch, self.fbranch]

    def replace_children(self, new_children: List[Control]) -> None:
        self.tbranch, self.fbranch = new_children

    def copy(self) -> "If":
        return If(
            self.port,
            self.cond_group,
            self.tbranch.copy(),
            self.fbranch.copy(),
            self.attributes.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"If({self.port!r}, with={self.cond_group!r}, "
            f"then={self.tbranch!r}, else={self.fbranch!r})"
        )


class While(Control):
    """Loop: run ``cond_group``, read ``port``; repeat body while high."""

    def __init__(
        self,
        port: PortRef,
        cond_group: Optional[str],
        body: Control,
        attributes: Optional[Attributes] = None,
    ):
        super().__init__(attributes)
        self.port = port
        self.cond_group = cond_group
        self.body = body

    def children(self) -> List[Control]:
        return [self.body]

    def replace_children(self, new_children: List[Control]) -> None:
        (self.body,) = new_children

    def copy(self) -> "While":
        return While(self.port, self.cond_group, self.body.copy(), self.attributes.copy())

    def __repr__(self) -> str:
        return f"While({self.port!r}, with={self.cond_group!r}, body={self.body!r})"


class Repeat(Control):
    """Run the body a fixed number of times (a Section 9 extension).

    The paper proposes higher-level control operators that "can be
    compiled into more primitive control operators"; ``repeat`` is the
    canonical example (upstream Calyx later added it). The
    ``compile-repeat`` pass desugars it: small bounds unroll into ``seq``
    (which keeps a static body statically compilable), large bounds become
    a counter-driven ``while``.
    """

    def __init__(self, times: int, body: Control, attributes: Optional[Attributes] = None):
        super().__init__(attributes)
        if times < 0:
            raise ValueError("repeat count must be non-negative")
        self.times = times
        self.body = body

    def children(self) -> List[Control]:
        return [self.body]

    def replace_children(self, new_children: List[Control]) -> None:
        (self.body,) = new_children

    def copy(self) -> "Repeat":
        return Repeat(self.times, self.body.copy(), self.attributes.copy())

    def __repr__(self) -> str:
        return f"Repeat({self.times}, {self.body!r})"


class Invoke(Control):
    """Call a cell through the go/done calling convention.

    ``in_binds`` maps the callee's input port names to source ports;
    ``out_binds`` maps the callee's output port names to destination ports.
    The compiler lowers an invoke by synthesizing a group that drives the
    bindings, raises the cell's ``go``, and finishes on its ``done``.
    """

    def __init__(
        self,
        cell: str,
        in_binds: Optional[Dict[str, PortRef]] = None,
        out_binds: Optional[Dict[str, PortRef]] = None,
        attributes: Optional[Attributes] = None,
    ):
        super().__init__(attributes)
        self.cell = cell
        self.in_binds: Dict[str, PortRef] = dict(in_binds or {})
        self.out_binds: Dict[str, PortRef] = dict(out_binds or {})

    def wires(self) -> List[Assignment]:
        """The calling convention's wires, live while the invoke runs.

        Each in-binding, each out-binding, then ``go = !done ? 1``: gated
        by ``!done`` like a compiled enable, so the callee is not started
        again in the cycle its ``done`` is observed.
        """
        cell = self.cell
        wires = [Assignment(CellPort(cell, port), src) for port, src in self.in_binds.items()]
        wires.extend(Assignment(dst, CellPort(cell, port)) for port, dst in self.out_binds.items())
        done = NotGuard(PortGuard(CellPort(cell, DONE)))
        wires.append(Assignment(CellPort(cell, GO), ConstPort(1, 1), done))
        return wires

    def copy(self) -> "Invoke":
        return Invoke(
            self.cell,
            dict(self.in_binds),
            dict(self.out_binds),
            self.attributes.copy(),
        )

    def __repr__(self) -> str:
        return f"Invoke({self.cell!r})"


def map_control(
    node: Control, fn: Callable[[Control], Optional[Control]]
) -> Control:
    """Bottom-up rewrite of a control tree.

    ``fn`` receives each node after its children have been rewritten and may
    return a replacement node or ``None`` to keep the (mutated) original.
    """
    new_children = [map_control(child, fn) for child in node.children()]
    if new_children:
        node.replace_children(new_children)
    replacement = fn(node)
    return node if replacement is None else replacement


def count_control_statements(node: Control) -> int:
    """Number of control statements in the tree (Section 7.4 statistic).

    Counts every node except :class:`Empty` placeholders.
    """
    return sum(1 for n in node.walk() if not isinstance(n, Empty))
