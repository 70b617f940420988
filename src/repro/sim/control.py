"""Control execution: the interpreter for unlowered programs.

A :class:`ControlExecutor` runs a component's control tree cycle by
cycle on behalf of its :class:`~repro.sim.model.ComponentInstance`. Each
phase it reports which groups are enabled, which condition groups are
forced active, which invokes are live and whether control has finished;
at each clock edge it advances using the settled net values it reads back
through the instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from repro.errors import SimulationError
from repro.ir.ast import CellPort, HolePort, PortRef
from repro.ir.control import (
    Control,
    Empty,
    Enable,
    If,
    Invoke,
    Par,
    Repeat,
    Seq,
    While,
)
from repro.ir.ports import DONE

if TYPE_CHECKING:
    from repro.sim.model import ComponentInstance

class _NodeState:
    """Runtime state of one control-tree node."""

    def __init__(self, owner: "ControlExecutor"):
        self.owner = owner

    def start(self) -> None:
        """(Re-)enter this node."""

    def is_done(self) -> bool:
        raise NotImplementedError

    def active_groups(self, out: Set[str]) -> None:
        """Add the groups this node currently enables."""

    def forced_groups(self, out: Set[str]) -> None:
        """Add condition groups that must stay active regardless of done."""

    def invoke_nodes(self, out: List[Invoke]) -> None:
        """Add the :class:`Invoke` control nodes currently driving a cell.

        The instance compiles each invoke's synthesized assignments once
        (keyed by the control-tree node, which is stable across executor
        resets) and uses this walk to know which are live.
        """

    def step(self) -> None:
        """Advance at the clock edge using the settled net values."""


class _EmptyState(_NodeState):
    def is_done(self) -> bool:
        return True

    def step(self) -> None:
        pass


class _EnableState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Enable):
        super().__init__(owner)
        self.group = node.group
        self._finished = False

    def start(self) -> None:
        self._finished = False

    def is_done(self) -> bool:
        return self._finished

    def active_groups(self, out: Set[str]) -> None:
        if not self._finished:
            out.add(self.group)

    def step(self) -> None:
        if not self._finished and self.owner.value(HolePort(self.group, DONE)):
            self._finished = True


class _InvokeState(_NodeState):
    """Live until the invoked cell's done rises.

    The instance compiles the invoke's port bindings and go pulse once;
    this state only says when they apply.
    """

    def __init__(self, owner: "ControlExecutor", node: Invoke):
        super().__init__(owner)
        self.node = node
        self._finished = False

    def start(self) -> None:
        self._finished = False

    def is_done(self) -> bool:
        return self._finished

    def invoke_nodes(self, out: List[Invoke]) -> None:
        if not self._finished:
            out.append(self.node)

    def step(self) -> None:
        if not self._finished and self.owner.value(CellPort(self.node.cell, DONE)):
            self._finished = True


class _SeqState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Seq):
        super().__init__(owner)
        self.states = [owner.make_state(child) for child in node.stmts]
        self.index = 0

    def start(self) -> None:
        self.index = 0
        if self.states:
            self.states[0].start()
        self._skip_finished()

    def _skip_finished(self) -> None:
        while self.index < len(self.states) and self.states[self.index].is_done():
            self.index += 1
            if self.index < len(self.states):
                self.states[self.index].start()

    def is_done(self) -> bool:
        return self.index >= len(self.states)

    def active_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.states[self.index].active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.states[self.index].forced_groups(out)

    def invoke_nodes(self, out) -> None:
        if not self.is_done():
            self.states[self.index].invoke_nodes(out)

    def step(self) -> None:
        if self.is_done():
            return
        self.states[self.index].step()
        if self.states[self.index].is_done():
            self.index += 1
            if self.index < len(self.states):
                self.states[self.index].start()
                self._skip_finished()


class _ParState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Par):
        super().__init__(owner)
        self.states = [owner.make_state(child) for child in node.stmts]

    def start(self) -> None:
        for state in self.states:
            state.start()

    def is_done(self) -> bool:
        return all(state.is_done() for state in self.states)

    def active_groups(self, out: Set[str]) -> None:
        for state in self.states:
            if not state.is_done():
                state.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        for state in self.states:
            if not state.is_done():
                state.forced_groups(out)

    def invoke_nodes(self, out) -> None:
        for state in self.states:
            if not state.is_done():
                state.invoke_nodes(out)

    def step(self) -> None:
        for state in self.states:
            if not state.is_done():
                state.step()


class _CondMixin(_NodeState):
    """Shared cond-group handling for if and while."""

    cond_group: Optional[str]
    port: PortRef

    def cond_active_groups(self, out: Set[str]) -> None:
        if self.cond_group is not None:
            out.add(self.cond_group)

    def cond_finished(self) -> bool:
        """Has the condition value been computed this activation?"""
        if self.cond_group is None:
            return True  # continuously computed: read the port directly
        group = self.owner.instance.comp.get_group(self.cond_group)
        if group.comb:
            return True  # one-cycle combinational evaluation
        return bool(self.owner.value(HolePort(self.cond_group, DONE)))


class _IfState(_CondMixin):
    def __init__(self, owner: "ControlExecutor", node: If):
        super().__init__(owner)
        self.port = node.port
        self.cond_group = node.cond_group
        self.tstate = owner.make_state(node.tbranch)
        self.fstate = owner.make_state(node.fbranch)
        self.phase = "cond"
        self.chosen: Optional[_NodeState] = None

    def start(self) -> None:
        self.phase = "cond"
        self.chosen = None

    def is_done(self) -> bool:
        return self.phase == "done"

    def active_groups(self, out: Set[str]) -> None:
        if self.phase == "branch":
            assert self.chosen is not None
            self.chosen.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if self.phase == "cond":
            self.cond_active_groups(out)
        elif self.phase == "branch":
            assert self.chosen is not None
            self.chosen.forced_groups(out)

    def invoke_nodes(self, out) -> None:
        if self.phase == "branch" and self.chosen is not None:
            self.chosen.invoke_nodes(out)

    def step(self) -> None:
        if self.phase == "cond":
            if self.cond_finished():
                value = self.owner.value(self.port)
                self.chosen = self.tstate if value else self.fstate
                self.chosen.start()
                self.phase = "done" if self.chosen.is_done() else "branch"
        elif self.phase == "branch":
            assert self.chosen is not None
            self.chosen.step()
            if self.chosen.is_done():
                self.phase = "done"


class _WhileState(_CondMixin):
    def __init__(self, owner: "ControlExecutor", node: While):
        super().__init__(owner)
        self.port = node.port
        self.cond_group = node.cond_group
        self.body = owner.make_state(node.body)
        self.phase = "cond"

    def start(self) -> None:
        self.phase = "cond"

    def is_done(self) -> bool:
        return self.phase == "done"

    def active_groups(self, out: Set[str]) -> None:
        if self.phase == "body":
            self.body.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if self.phase == "cond":
            self.cond_active_groups(out)
        elif self.phase == "body":
            self.body.forced_groups(out)

    def invoke_nodes(self, out) -> None:
        if self.phase == "body":
            self.body.invoke_nodes(out)

    def step(self) -> None:
        if self.phase == "cond":
            if self.cond_finished():
                if self.owner.value(self.port):
                    self.body.start()
                    # An instantly-done body still re-evaluates the condition
                    # next cycle, so loops always make progress.
                    self.phase = "cond" if self.body.is_done() else "body"
                else:
                    self.phase = "done"
        elif self.phase == "body":
            self.body.step()
            if self.body.is_done():
                self.phase = "cond"


class _RepeatState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Repeat):
        super().__init__(owner)
        self.times = node.times
        self.body = owner.make_state(node.body)
        self.remaining = node.times

    def start(self) -> None:
        self.remaining = self.times
        if self.remaining:
            self.body.start()
            if self.body.is_done():
                self.remaining = 0  # empty body: nothing to iterate

    def is_done(self) -> bool:
        return self.remaining == 0

    def active_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.body.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.body.forced_groups(out)

    def invoke_nodes(self, out) -> None:
        if not self.is_done():
            self.body.invoke_nodes(out)

    def step(self) -> None:
        if self.is_done():
            return
        self.body.step()
        if self.body.is_done():
            self.remaining -= 1
            if self.remaining:
                self.body.start()


class ControlExecutor:
    """Executes a component's control tree cycle-by-cycle."""

    def __init__(self, instance: ComponentInstance, control: Control):
        self.instance = instance
        self.control = control
        self.root = self.make_state(control)
        self.root.start()

    def make_state(self, node: Control) -> _NodeState:
        if isinstance(node, Empty):
            return _EmptyState(self)
        if isinstance(node, Enable):
            return _EnableState(self, node)
        if isinstance(node, Seq):
            return _SeqState(self, node)
        if isinstance(node, Par):
            return _ParState(self, node)
        if isinstance(node, If):
            return _IfState(self, node)
        if isinstance(node, While):
            return _WhileState(self, node)
        if isinstance(node, Invoke):
            return _InvokeState(self, node)
        if isinstance(node, Repeat):
            return _RepeatState(self, node)
        raise SimulationError(f"cannot execute control node {node!r}")

    def value(self, ref: PortRef) -> int:
        return self.instance.read(ref)

    def active_groups(self) -> Set[str]:
        out: Set[str] = set()
        if not self.root.is_done():
            self.root.active_groups(out)
        return out

    def forced_groups(self) -> Set[str]:
        out: Set[str] = set()
        if not self.root.is_done():
            self.root.forced_groups(out)
        return out

    def active_invoke_nodes(self) -> List[Invoke]:
        """The invoke control nodes whose bindings are currently live."""
        out: List[Invoke] = []
        if not self.root.is_done():
            self.root.invoke_nodes(out)
        return out

    def finished(self) -> bool:
        return self.root.is_done()

    def step(self) -> None:
        if not self.root.is_done():
            self.root.step()

    def reset(self) -> None:
        self.root = self.make_state(self.control)
        self.root.start()
