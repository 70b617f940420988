"""CompileControl (paper Sections 4.2-4.3): latency-insensitive FSMs.

A bottom-up traversal replaces each control statement with a *compilation
group* containing the structure that realizes it:

* ``seq``   — an FSM register with one state per child plus a final state;
  child *i* runs while ``fsm == i`` and the FSM advances on the child's
  ``done``.
* ``par``   — a 1-bit register per child latching its ``done``; the group
  finishes when every register is set.
* ``if``    — a 4-state FSM: evaluate the condition group, branch on the
  port, finish when the chosen branch does.
* ``while`` — a 3-state FSM looping condition → body → condition.

Child enables are gated with ``!child[done]`` so a child is released
during its done-observation cycle (avoiding double commits on registered
``done`` signals). Condition groups are enabled without the ``!done`` gate
— they must be idempotent, which holds for every frontend here and was
later institutionalized by Calyx's ``comb group`` form.

Compilation groups reset their state (the paper's "resetting compilation
groups") through *continuous* assignments guarded purely structurally
(``fsm.out == final``), so loops re-run correctly.

After this pass, every component's control is a single group enable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import PassError
from repro.ir.ast import (
    Assignment,
    Cell,
    CellPort,
    Component,
    ConstPort,
    Group,
    HolePort,
    Program,
)
from repro.ir.control import (
    Control,
    Empty,
    Enable,
    If,
    Invoke,
    Par,
    Seq,
    While,
)
from repro.ir.guards import (
    G_TRUE,
    AndGuard,
    CmpGuard,
    Guard,
    NotGuard,
    PortGuard,
    and_all,
)
from repro.ir.ports import DONE, GO
from repro.passes.base import Pass, register_pass
from repro.passes.go_insertion import insert_go


def fsm_width(max_state: int) -> int:
    """Bits needed to store states ``0..max_state``."""
    return max(1, max_state.bit_length())


class _Compiler:
    """Compiles one component's control program."""

    def __init__(self, program: Program, comp: Component):
        self.program = program
        self.comp = comp

    # -- helpers ----------------------------------------------------------
    def _new_fsm(self, prefix: str, max_state: int) -> Tuple[Cell, int]:
        width = fsm_width(max_state)
        cell = Cell(self.comp.gen_name(prefix), "std_reg", (width,))
        self.comp.add_cell(cell)
        return cell, width

    def _state_guard(self, fsm: Cell, width: int, state: int) -> Guard:
        return CmpGuard("==", CellPort(fsm.name, "out"), ConstPort(width, state))

    def _fsm_update(
        self, group: Group, fsm: Cell, width: int, guard: Guard, next_state: int
    ) -> None:
        group.assignments.append(
            Assignment(CellPort(fsm.name, "in"), ConstPort(width, next_state), guard)
        )
        group.assignments.append(
            Assignment(CellPort(fsm.name, "write_en"), ConstPort(1, 1), guard)
        )

    def _continuous_reset(self, fsm: Cell, width: int, guard: Guard) -> None:
        self.comp.continuous.append(
            Assignment(CellPort(fsm.name, "in"), ConstPort(width, 0), guard)
        )
        self.comp.continuous.append(
            Assignment(CellPort(fsm.name, "write_en"), ConstPort(1, 1), guard)
        )

    def _enable_child(self, group: Group, child: str, guard: Guard) -> None:
        """child[go] = guard & !child[done] ? 1"""
        gate = AndGuard(guard, NotGuard(PortGuard(HolePort(child, DONE))))
        group.assignments.append(
            Assignment(HolePort(child, GO), ConstPort(1, 1), gate)
        )

    def _finish_group(self, group: Group) -> Enable:
        insert_go(group)
        self.comp.add_group(group)
        return Enable(group.name)

    def _child_name(self, node: Control) -> Optional[str]:
        """Group name of a compiled child (None for Empty)."""
        if isinstance(node, Empty):
            return None
        if isinstance(node, Enable):
            return node.group
        raise PassError(
            f"CompileControl expects compiled children, found {type(node).__name__}"
        )

    def _cond_info(self, cond_group: Optional[str], group: Group, state_guard: Guard) -> Guard:
        """Enable the condition group; return its completion guard."""
        if cond_group is None:
            return G_TRUE
        cond = self.comp.get_group(cond_group)
        group.assignments.append(
            Assignment(HolePort(cond_group, GO), ConstPort(1, 1), state_guard)
        )
        if cond.comb:
            return G_TRUE
        return PortGuard(HolePort(cond_group, DONE))

    # -- statement compilers ------------------------------------------------
    def compile(self, node: Control) -> Control:
        """Bottom-up compilation; returns the replacement statement."""
        if isinstance(node, (Empty, Enable)):
            return node
        if isinstance(node, Invoke):
            raise PassError("run compile-invoke before compile-control")
        if isinstance(node, Seq):
            children = [self.compile(c) for c in node.stmts]
            return self.compile_seq(children)
        if isinstance(node, Par):
            children = [self.compile(c) for c in node.stmts]
            return self.compile_par(children)
        if isinstance(node, If):
            tbranch = self.compile(node.tbranch)
            fbranch = self.compile(node.fbranch)
            return self.compile_if(node, tbranch, fbranch)
        if isinstance(node, While):
            body = self.compile(node.body)
            return self.compile_while(node, body)
        raise PassError(f"cannot compile control node {node!r}")

    def compile_seq(self, children: List[Control]) -> Control:
        names = [n for n in (self._child_name(c) for c in children) if n is not None]
        if not names:
            return Empty()
        if len(names) == 1:
            return Enable(names[0])
        group = Group(self.comp.gen_name("seq"))
        fsm, width = self._new_fsm("fsm", len(names))
        for i, child in enumerate(names):
            state = self._state_guard(fsm, width, i)
            self._enable_child(group, child, state)
            advance = AndGuard(state, PortGuard(HolePort(child, DONE)))
            self._fsm_update(group, fsm, width, advance, i + 1)
        final = self._state_guard(fsm, width, len(names))
        group.assignments.append(Assignment(group.done, ConstPort(1, 1), final))
        self._continuous_reset(fsm, width, final)
        return self._finish_group(group)

    def compile_par(self, children: List[Control]) -> Control:
        names = [n for n in (self._child_name(c) for c in children) if n is not None]
        if not names:
            return Empty()
        if len(names) == 1:
            return Enable(names[0])
        group = Group(self.comp.gen_name("par"))
        pd_cells: List[Cell] = []
        for child in names:
            pd = Cell(self.comp.gen_name("pd"), "std_reg", (1,))
            self.comp.add_cell(pd)
            pd_cells.append(pd)
        all_done = and_all(
            [PortGuard(CellPort(pd.name, "out")) for pd in pd_cells]
        )
        for child, pd in zip(names, pd_cells):
            waiting = NotGuard(PortGuard(CellPort(pd.name, "out")))
            self._enable_child(group, child, waiting)
            latch = PortGuard(HolePort(child, DONE))
            group.assignments.append(
                Assignment(CellPort(pd.name, "in"), ConstPort(1, 1), latch)
            )
            group.assignments.append(
                Assignment(CellPort(pd.name, "write_en"), ConstPort(1, 1), latch)
            )
            # Reset once the whole block completes (continuous: structural).
            self.comp.continuous.append(
                Assignment(CellPort(pd.name, "in"), ConstPort(1, 0), all_done)
            )
            self.comp.continuous.append(
                Assignment(CellPort(pd.name, "write_en"), ConstPort(1, 1), all_done)
            )
        group.assignments.append(Assignment(group.done, ConstPort(1, 1), all_done))
        return self._finish_group(group)

    def compile_if(self, node: If, tbranch: Control, fbranch: Control) -> Control:
        group = Group(self.comp.gen_name("if"))
        fsm, width = self._new_fsm("fsm", 3)
        s_cond = self._state_guard(fsm, width, 0)
        s_true = self._state_guard(fsm, width, 1)
        s_false = self._state_guard(fsm, width, 2)
        s_done = self._state_guard(fsm, width, 3)
        cond_done = self._cond_info(node.cond_group, group, s_cond)
        port = PortGuard(node.port)
        take_true = and_all([s_cond, cond_done, port])
        take_false = and_all([s_cond, cond_done, NotGuard(port)])

        tname = self._child_name(tbranch)
        fname = self._child_name(fbranch)
        self._fsm_update(group, fsm, width, take_true, 1 if tname else 3)
        self._fsm_update(group, fsm, width, take_false, 2 if fname else 3)
        if tname:
            self._enable_child(group, tname, s_true)
            finished = AndGuard(s_true, PortGuard(HolePort(tname, DONE)))
            self._fsm_update(group, fsm, width, finished, 3)
        if fname:
            self._enable_child(group, fname, s_false)
            finished = AndGuard(s_false, PortGuard(HolePort(fname, DONE)))
            self._fsm_update(group, fsm, width, finished, 3)
        group.assignments.append(Assignment(group.done, ConstPort(1, 1), s_done))
        self._continuous_reset(fsm, width, s_done)
        return self._finish_group(group)

    def compile_while(self, node: While, body: Control) -> Control:
        group = Group(self.comp.gen_name("while"))
        fsm, width = self._new_fsm("fsm", 2)
        s_cond = self._state_guard(fsm, width, 0)
        s_body = self._state_guard(fsm, width, 1)
        s_done = self._state_guard(fsm, width, 2)
        cond_done = self._cond_info(node.cond_group, group, s_cond)
        port = PortGuard(node.port)
        bname = self._child_name(body)

        enter_body = and_all([s_cond, cond_done, port])
        exit_loop = and_all([s_cond, cond_done, NotGuard(port)])
        # An empty body loops straight back to the condition.
        self._fsm_update(group, fsm, width, enter_body, 1 if bname else 0)
        self._fsm_update(group, fsm, width, exit_loop, 2)
        if bname:
            self._enable_child(group, bname, s_body)
            finished = AndGuard(s_body, PortGuard(HolePort(bname, DONE)))
            self._fsm_update(group, fsm, width, finished, 0)
        group.assignments.append(Assignment(group.done, ConstPort(1, 1), s_done))
        self._continuous_reset(fsm, width, s_done)
        return self._finish_group(group)


@register_pass
class CompileControl(Pass):
    name = "compile-control"
    description = "realize control with latency-insensitive FSMs"

    def run_component(self, program: Program, comp: Component) -> None:
        compiler = _Compiler(program, comp)
        comp.control = compiler.compile(comp.control)
