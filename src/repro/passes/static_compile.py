"""The paper's ``Sensitive`` pass (Section 4.4): latency-sensitive FSMs.

Best-effort and bottom-up: a ``seq`` or ``par`` whose children all carry a
``"static"`` latency compiles into a single self-incrementing counter that
enables each child for exactly its declared window and **ignores done
signals** — eliminating the handshake cycles of latency-insensitive
compilation. Anything non-static (``if``, ``while``, groups without
latency information) is left for CompileControl, so latency-sensitive and
latency-insensitive code mix freely (the property the paper calls unique
to Calyx).

A ``seq`` child occupying cycles ``[a, b)`` is enabled while
``a <= fsm < b``; a ``par`` child of latency ``l`` while ``fsm < l``. The
compilation group's own done rises at ``fsm == L`` and a continuous
assignment resets the counter, exactly like CompileControl's groups.

When a component's whole control program compiles to one static group, the
component itself receives a ``"static"`` attribute, so callers (invokes,
enclosing static regions) can schedule it statically — this is how the
systolic array becomes fully latency-sensitive when only its processing
element declares a latency.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.latency import group_latency
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
from repro.ir.attributes import STATIC
from repro.ir.control import Control, Empty, Enable, If, Par, Seq, While
from repro.ir.guards import AndGuard, CmpGuard, Guard
from repro.ir.ports import GO
from repro.passes.base import Pass, register_pass
from repro.passes.compile_control import fsm_width
from repro.passes.go_insertion import insert_go


class _StaticCompiler:
    def __init__(self, program: Program, comp: Component):
        self.program = program
        self.comp = comp

    # -- helpers ----------------------------------------------------------
    def _static_of(self, node: Control) -> Optional[Tuple[str, int]]:
        """(group, latency) when ``node`` is an enable of a static group."""
        if isinstance(node, Enable):
            latency = group_latency(self.comp.get_group(node.group))
            if latency is not None and latency > 0:
                return node.group, latency
        return None

    def _counter_group(
        self, prefix: str, total: int, windows: List[Tuple[str, int, int]]
    ) -> Enable:
        """Build a static compilation group enabling ``windows`` of groups.

        ``windows`` holds ``(group, start, end)`` half-open cycle ranges.
        """
        group = Group(self.comp.gen_name(prefix))
        width = fsm_width(total)
        fsm = Cell(self.comp.gen_name("fsm"), "std_reg", (width,))
        incr = Cell(self.comp.gen_name("incr"), "std_add", (width,))
        self.comp.add_cell(fsm)
        self.comp.add_cell(incr)
        fsm_out = CellPort(fsm.name, "out")

        for child, start, end in windows:
            if end - start == 1:
                window: Guard = CmpGuard("==", fsm_out, ConstPort(width, start))
            elif start == 0:
                window = CmpGuard("<", fsm_out, ConstPort(width, end))
            else:
                window = AndGuard(
                    CmpGuard(">=", fsm_out, ConstPort(width, start)),
                    CmpGuard("<", fsm_out, ConstPort(width, end)),
                )
            group.assignments.append(
                Assignment(HolePort(child, GO), ConstPort(1, 1), window)
            )

        counting = CmpGuard("<", fsm_out, ConstPort(width, total))
        group.assignments.append(
            Assignment(CellPort(incr.name, "left"), fsm_out)
        )
        group.assignments.append(
            Assignment(CellPort(incr.name, "right"), ConstPort(width, 1))
        )
        group.assignments.append(
            Assignment(CellPort(fsm.name, "in"), CellPort(incr.name, "out"), counting)
        )
        group.assignments.append(
            Assignment(CellPort(fsm.name, "write_en"), ConstPort(1, 1), counting)
        )
        final = CmpGuard("==", fsm_out, ConstPort(width, total))
        group.assignments.append(Assignment(group.done, ConstPort(1, 1), final))
        self.comp.continuous.append(
            Assignment(CellPort(fsm.name, "in"), ConstPort(width, 0), final)
        )
        self.comp.continuous.append(
            Assignment(CellPort(fsm.name, "write_en"), ConstPort(1, 1), final)
        )
        group.attributes.set(STATIC, total)
        insert_go(group)
        self.comp.add_group(group)
        return Enable(group.name)

    # -- traversal --------------------------------------------------------------
    def compile(self, node: Control) -> Control:
        if isinstance(node, (Empty, Enable)):
            return node
        if isinstance(node, Seq):
            children = [self.compile(c) for c in node.stmts]
            children = [c for c in children if not isinstance(c, Empty)]
            statics = [self._static_of(c) for c in children]
            if children and all(s is not None for s in statics):
                windows: List[Tuple[str, int, int]] = []
                offset = 0
                for child_group, latency in statics:  # type: ignore[misc]
                    windows.append((child_group, offset, offset + latency))
                    offset += latency
                return self._counter_group("static_seq", offset, windows)
            node.replace_children(children)
            return node
        if isinstance(node, Par):
            children = [self.compile(c) for c in node.stmts]
            children = [c for c in children if not isinstance(c, Empty)]
            statics = [self._static_of(c) for c in children]
            if children and all(s is not None for s in statics):
                total = max(latency for _, latency in statics)  # type: ignore[misc]
                windows = [
                    (child_group, 0, latency)
                    for child_group, latency in statics  # type: ignore[misc]
                ]
                return self._counter_group("static_par", total, windows)
            node.replace_children(children)
            return node
        if isinstance(node, If):
            node.tbranch = self.compile(node.tbranch)
            node.fbranch = self.compile(node.fbranch)
            return node
        if isinstance(node, While):
            node.body = self.compile(node.body)
            return node
        return node


@register_pass
class StaticCompile(Pass):
    """The paper's latency-sensitive compilation pass (``Sensitive``)."""

    name = "static-compile"
    description = "opportunistically compile static islands with counters"

    def run(self, program: Program) -> None:
        # Components may instantiate each other; iterate to a fixpoint so a
        # callee becoming fully static can make its callers static too.
        for _ in range(len(program.components) + 1):
            changed = False
            for comp in program.components:
                compiler = _StaticCompiler(program, comp)
                comp.control = compiler.compile(comp.control)
                static = compiler._static_of(comp.control)
                if static is not None and not comp.attributes.has(STATIC):
                    comp.attributes.set(STATIC, static[1])
                    changed = True
            if not changed:
                break
