"""Control execution: the interpreter for unlowered programs.

A :class:`ControlExecutor` runs a component's control tree cycle by
cycle. It reaches the netlist of its
:class:`~repro.sim.model.EngineInstance` only through slots, as
control reaches a group only through its ``go`` hole in the paper: each
state is built with the slot indices it reads (a ``done`` hole, an
invoked cell's ``done``, a condition port) and the slot it drives (a
group's *enable*, a condition group's *force*, an invoke's *live* slot).
At each clock edge :meth:`~ControlExecutor.step` reads the settled slot
values by index; after every move one walk of the tree collects
:attr:`~ControlExecutor.high`, the driven slots that are high, and
:attr:`~ControlExecutor.finished`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.errors import SimulationError
from repro.ir.ast import CellPort, Component, HolePort, PortRef
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


class _NodeState:
    """Runtime state of one control-tree node."""

    def start(self) -> None:
        """(Re-)enter this node."""

    def is_done(self) -> bool:
        raise NotImplementedError

    def collect(self, out: Set[int]) -> None:
        """Add the driven slots this node currently holds high."""

    def step(self, values: Sequence[int]) -> None:
        """Advance at the clock edge using the settled slot values."""


class _LeafState(_NodeState):
    """An enable or an invoke: holds ``slot`` high until ``done`` is seen
    high at an edge."""

    def __init__(self, slot: int, done: int):
        self.slot = slot
        self.done = done
        self._finished = False

    def start(self) -> None:
        self._finished = False

    def is_done(self) -> bool:
        return self._finished

    def collect(self, out: Set[int]) -> None:
        if not self._finished:
            out.add(self.slot)

    def step(self, values: Sequence[int]) -> None:
        if not self._finished and values[self.done]:
            self._finished = True


class _SeqState(_NodeState):
    def __init__(self, states: List[_NodeState]):
        self.states = states
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

    def collect(self, out: Set[int]) -> None:
        if not self.is_done():
            self.states[self.index].collect(out)

    def step(self, values: Sequence[int]) -> None:
        if not self.is_done():
            self.states[self.index].step(values)
            self._skip_finished()


class _ParState(_NodeState):
    def __init__(self, states: List[_NodeState]):
        self.states = states

    def start(self) -> None:
        for state in self.states:
            state.start()

    def is_done(self) -> bool:
        return all(state.is_done() for state in self.states)

    def collect(self, out: Set[int]) -> None:
        for state in self.states:
            if not state.is_done():
                state.collect(out)

    def step(self, values: Sequence[int]) -> None:
        for state in self.states:
            if not state.is_done():
                state.step(values)


class _CondState(_NodeState):
    """Shared phases of if and while: ``cond``, then ``body``, then ``done``.

    ``force`` is the condition group's force slot, held high during the
    ``cond`` phase (``None`` without a condition group); ``cond_done`` is
    the slot whose rise says the condition value is ready, ``None`` when
    it is ready in the same cycle (no group, or a combinational one).
    """

    body: Optional[_NodeState]

    def __init__(self, port: int, force: Optional[int], cond_done: Optional[int]):
        self.port = port
        self.force = force
        self.cond_done = cond_done
        self.phase = "cond"

    def start(self) -> None:
        self.phase = "cond"

    def is_done(self) -> bool:
        return self.phase == "done"

    def collect(self, out: Set[int]) -> None:
        if self.phase == "cond":
            if self.force is not None:
                out.add(self.force)
        elif self.phase == "body":
            assert self.body is not None
            self.body.collect(out)

    def cond_ready(self, values: Sequence[int]) -> bool:
        """Has the condition value been computed this activation?"""
        return self.cond_done is None or bool(values[self.cond_done])


class _IfState(_CondState):
    def __init__(self, cond, tstate: _NodeState, fstate: _NodeState):
        super().__init__(*cond)
        self.tstate = tstate
        self.fstate = fstate
        self.body = None

    def step(self, values: Sequence[int]) -> None:
        if self.phase == "cond":
            if self.cond_ready(values):
                self.body = self.tstate if values[self.port] else self.fstate
                self.body.start()
                self.phase = "done" if self.body.is_done() else "body"
        elif self.phase == "body":
            assert self.body is not None
            self.body.step(values)
            if self.body.is_done():
                self.phase = "done"


class _WhileState(_CondState):
    def __init__(self, cond, body: _NodeState):
        super().__init__(*cond)
        self.body = body

    def step(self, values: Sequence[int]) -> None:
        if self.phase == "cond":
            if self.cond_ready(values):
                if values[self.port]:
                    self.body.start()
                    # An instantly-done body still re-evaluates the condition
                    # next cycle, so loops always make progress.
                    self.phase = "cond" if self.body.is_done() else "body"
                else:
                    self.phase = "done"
        elif self.phase == "body":
            self.body.step(values)
            if self.body.is_done():
                self.phase = "cond"


class _RepeatState(_NodeState):
    def __init__(self, times: int, body: _NodeState):
        self.times = times
        self.body = body
        self.remaining = times

    def start(self) -> None:
        self.remaining = self.times
        if self.remaining:
            self.body.start()
            if self.body.is_done():
                self.remaining = 0  # empty body: nothing to iterate

    def is_done(self) -> bool:
        return self.remaining == 0

    def collect(self, out: Set[int]) -> None:
        if not self.is_done():
            self.body.collect(out)

    def step(self, values: Sequence[int]) -> None:
        if self.is_done():
            return
        self.body.step(values)
        if self.body.is_done():
            self.remaining -= 1
            if self.remaining:
                self.body.start()


class ControlExecutor:
    """Executes a component's control tree cycle by cycle over slots.

    ``slot_of`` gives the slot of each port the tree reads, a constant
    condition included; ``enable`` and ``force`` map each group to the
    slots that drive its ``go`` hole, and ``live`` maps each
    :class:`Invoke` node (by ``id``) to the slot that gates its bindings.
    After every move, :attr:`high` is the set of driven slots that are
    high and :attr:`finished` whether the tree has completed.
    """

    high: FrozenSet[int]
    finished: bool

    def __init__(
        self,
        comp: Component,
        slot_of: Callable[[PortRef], int],
        enable: Dict[str, int],
        force: Dict[str, int],
        live: Dict[int, int],
    ):
        def cond(node) -> tuple:
            group = node.cond_group
            if group is None:
                return slot_of(node.port), None, None
            ready = None if comp.get_group(group).comb else slot_of(HolePort(group, DONE))
            return slot_of(node.port), force[group], ready

        def make(node: Control) -> _NodeState:
            if isinstance(node, Empty):
                return _SeqState([])  # done as soon as it starts
            if isinstance(node, Enable):
                return _LeafState(enable[node.group], slot_of(HolePort(node.group, DONE)))
            if isinstance(node, Invoke):
                return _LeafState(live[id(node)], slot_of(CellPort(node.cell, DONE)))
            if isinstance(node, Seq):
                return _SeqState([make(child) for child in node.stmts])
            if isinstance(node, Par):
                return _ParState([make(child) for child in node.stmts])
            if isinstance(node, If):
                return _IfState(cond(node), make(node.tbranch), make(node.fbranch))
            if isinstance(node, While):
                return _WhileState(cond(node), make(node.body))
            if isinstance(node, Repeat):
                return _RepeatState(node.times, make(node.body))
            raise SimulationError(f"cannot execute control node {node!r}")

        self.root = make(comp.control)
        # ``make`` calls itself through its closure: clear that cell, or the
        # cycle keeps ``slot_of`` and what it holds alive until a collection.
        del make
        self.reset()

    def step(self, values: Sequence[int]) -> None:
        if not self.finished:
            self.root.step(values)
            self._collect()

    def reset(self) -> None:
        self.root.start()
        self._collect()

    def _collect(self) -> None:
        self.finished = self.root.is_done()
        high: Set[int] = set()
        if not self.finished:
            self.root.collect(high)
        self.high = frozenset(high)
