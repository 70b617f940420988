"""Core well-formedness rules (paper Sections 3.2-3.3).

These rules subsume the checks that used to live inline in
``ir/validate.py``. They are *core*: ``validate_program`` runs exactly
this set and raises the first error using each rule's ``exception``
class, so registration order below mirrors the validator's historical
check order — signature, cells, groups, continuous assignments, control.

Every rule reads the component's :class:`~repro.analysis.netlist.Netlist`:
the assignment rules loop over its records (``net.wires``), which carry
each port's and each guard's facts, worked out once; multiple-driver checking reads
its driver races, which engine construction checks as well: two
unconditional drivers of one port conflict when they live in the same
activation scope — the same group, or both always-active. Identical duplicate connections are
only a warning (``duplicate-assignment``); they cannot disagree, which is
also what engine construction tolerates.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.netlist import Netlist
from repro.errors import (
    MultipleDriverError,
    UndefinedError,
    ValidationError,
    WidthError,
)
from repro.ir.ast import HolePort
from repro.ir.control import Enable, If, Invoke, While
from repro.ir.ports import DONE, GO
from repro.ir.types import Direction
from repro.lint.diagnostics import WARNING, Diagnostic, LintReport
from repro.lint.registry import LintRule, register_rule


def _at(rule: LintRule, net: Netlist, group: Optional[str], assign, message: str, cell=None):
    """``rule``'s finding at an assignment of ``group`` (``None``: continuous)."""
    where = "continuous assignments" if group is None else f"group {group!r}"
    return rule.diag(
        f"{where}: {message}", component=net.comp.name, group=group, cell=cell, span=assign.span
    )


@register_rule
class DuplicatePortRule(LintRule):
    id = "duplicate-port"
    core = True
    exception = ValidationError
    description = "a component declares the same port name twice"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for name, count in net.duplicate_ports().items():
            report.add(
                self.diag(
                    f"component {net.comp.name!r} declares port {name!r} "
                    f"{count} times",
                    component=net.comp.name,
                    span=net.comp.span,
                )
            )


@register_rule
class UnknownNameRule(LintRule):
    id = "unknown-name"
    core = True
    exception = UndefinedError
    description = "a cell, port, group, or hole reference does not resolve"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp

        for cell in comp.cells.values():
            failure = net.cell_failure(cell.name)
            if failure is not None:
                report.add(
                    self.diag(
                        f"cell {cell.name!r} does not instantiate a known "
                        f"component: {failure}",
                        component=comp.name,
                        cell=cell.name,
                        span=cell.span,
                    )
                )

        for group, assign, dst, src, guard in net.wires:
            if dst.unresolved is None and src.unresolved is None and not guard.unresolved:
                continue
            for port in (dst, src, *guard.unresolved):
                # A port of an unresolvable cell has no message: the cell's own
                # failure was reported above. Hole existence only matters inside
                # groups; holes in continuous assignments are categorically
                # rejected by `continuous-hole`.
                reason = port.unresolved
                if reason is None or reason.message is None:
                    continue
                if group is None and port.ref.__class__ is HolePort:
                    continue
                report.add(_at(self, net, group, assign, reason.message, reason.cell))

        self._check_control(net, report)

    def _check_control(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        for node in net.control:
            if isinstance(node, Enable):
                if node.group not in comp.groups:
                    report.add(
                        self.diag(
                            f"control enables undefined group {node.group!r}",
                            component=comp.name,
                            span=node.span,
                        )
                    )
            elif isinstance(node, (If, While)):
                if node.cond_group is not None and node.cond_group not in comp.groups:
                    report.add(
                        self.diag(
                            f"control `with` clause names undefined group "
                            f"{node.cond_group!r}",
                            component=comp.name,
                            span=node.span,
                        )
                    )
                if net.facts(node.port).unresolved is not None:
                    report.add(
                        self.diag(
                            f"condition port {node.port.to_string()} does "
                            f"not resolve",
                            component=comp.name,
                            span=node.span,
                        )
                    )
            elif isinstance(node, Invoke):
                if node.cell not in comp.cells:
                    report.add(
                        self.diag(
                            f"invoke names undefined cell {node.cell!r}",
                            component=comp.name,
                            span=node.span,
                        )
                    )


@register_rule
class PortDirectionRule(LintRule):
    id = "port-direction"
    core = True
    exception = ValidationError
    description = "a port is written/read against its declared direction"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        for group, assign, dst, src, guard in net.wires:
            if dst.writable is False:
                report.add(self._unwritable(net, group, assign))
            if src.readable is False:
                message = f"{assign.src.to_string()} is not a readable port"
                report.add(_at(self, net, group, assign, message))
            for port in guard.unreadable:
                message = f"guard operand {port.ref.to_string()} is not a readable port"
                report.add(_at(self, net, group, assign, message))
        for node in net.control:
            if isinstance(node, (If, While)):
                if net.is_readable(node.port) is False:
                    report.add(
                        self.diag(
                            f"condition port {node.port.to_string()} is not "
                            f"readable",
                            component=comp.name,
                            span=node.span,
                        )
                    )

    def _unwritable(self, net: Netlist, group: Optional[str], assign) -> Diagnostic:
        return _at(self, net, group, assign, f"{assign.dst.to_string()} is not a writable port")

    def unwritable_error(self, net: Netlist) -> ValidationError:
        """The error this rule raises for ``net``'s first assignment to a
        port that is not writable; the simulator refuses such a netlist."""
        group, assign = next(
            (group, assign) for group, assign, dst, _, _ in net.wires if dst.writable is False
        )
        return self.exception(self._unwritable(net, group, assign).format())


@register_rule
class WidthMismatchRule(LintRule):
    id = "width-mismatch"
    core = True
    exception = WidthError
    description = "assignment or invoke-binding source/destination widths differ"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for group, assign, dst, src, _ in net.wires:
            if dst.width is not None and src.width is not None and dst.width != src.width:
                message = f"width mismatch in {assign.to_string()} ({dst.width} vs {src.width})"
                report.add(_at(self, net, group, assign, message))


@register_rule
class GuardWidthRule(LintRule):
    id = "guard-width"
    core = True
    exception = WidthError
    description = "guard ports must be 1 bit; comparison operands equal width"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        for group, assign, _, _, guard in net.wires:
            for finding in guard.widths:
                report.add(_at(self, net, group, assign, finding))
        for node in net.control:
            if isinstance(node, (If, While)):
                width = net.width(node.port)
                if width is not None and width != 1:
                    report.add(
                        self.diag(
                            f"condition port {node.port.to_string()} must be "
                            f"1 bit, is {width}",
                            component=comp.name,
                            span=node.span,
                        )
                    )


@register_rule
class MultipleDriversRule(LintRule):
    id = "multiple-drivers"
    core = True
    exception = MultipleDriverError
    description = "two unconditional drivers of one port in the same scope"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for gate, prev, assign in net.conflicts:
            where = f"group {gate!r}" if gate else "always-active scope"
            report.add(
                self.diag(
                    f"port {assign.dst.to_string()} has multiple "
                    f"unconditional drivers in the same {where}: "
                    f"`{prev.to_string()}` and `{assign.to_string()}`",
                    component=net.comp.name,
                    group=gate,
                    span=assign.span or prev.span,
                )
            )


@register_rule
class MissingDoneRule(LintRule):
    id = "missing-done"
    core = True
    exception = ValidationError
    description = "a non-combinational group never writes its done hole"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for group in net.comp.groups.values():
            if not group.comb and not group.done_assignments():
                report.add(
                    self.diag(
                        f"group {group.name!r} has no done condition",
                        component=net.comp.name,
                        group=group.name,
                        span=group.span,
                    )
                )


@register_rule
class CombGroupHoleRule(LintRule):
    id = "comb-group-writes-hole"
    core = True
    exception = ValidationError
    description = "a combinational group writes go/done holes"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for group in net.comp.groups.values():
            if not group.comb:
                continue
            for assign in group.assignments:
                if isinstance(assign.dst, HolePort):
                    report.add(
                        self.diag(
                            f"combinational group {group.name!r} may not "
                            f"write hole {assign.dst.to_string()}",
                            component=net.comp.name,
                            group=group.name,
                            span=assign.span,
                        )
                    )


@register_rule
class ContinuousHoleRule(LintRule):
    id = "continuous-hole"
    core = True
    exception = ValidationError
    description = "a continuous assignment references group holes"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for group, assign, _, _, guard in net.wires:
            if group is not None:
                continue
            if guard.holes or isinstance(assign.dst, HolePort) or isinstance(assign.src, HolePort):
                report.add(
                    self.diag(
                        f"continuous assignment {assign.to_string()} may not "
                        f"reference group holes",
                        component=net.comp.name,
                        span=assign.span,
                    )
                )


@register_rule
class CombGroupEnabledRule(LintRule):
    id = "comb-group-enabled"
    core = True
    exception = ValidationError
    description = "control enables a combinational group directly"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        for node in net.control:
            if isinstance(node, Enable):
                group = comp.groups.get(node.group)
                if group is not None and group.comb:
                    report.add(
                        self.diag(
                            f"combinational group {group.name!r} cannot be "
                            f"enabled directly",
                            component=comp.name,
                            group=group.name,
                            span=node.span,
                        )
                    )


@register_rule
class InvokeBindingRule(LintRule):
    id = "invoke-binding"
    core = True
    exception = ValidationError
    description = "invoke binds unknown ports, wrong directions, or bad widths"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        for node in net.control:
            if not isinstance(node, Invoke):
                continue
            if node.cell not in comp.cells:
                continue  # unknown-name already covers this
            sig = net.cell_signature(node.cell)
            if sig is None:
                continue
            go = sig.get(GO)
            done = sig.get(DONE)
            if (
                go is None
                or go.direction is not Direction.INPUT
                or done is None
                or done.direction is not Direction.OUTPUT
            ):
                report.add(
                    self.diag(
                        f"invoke target {node.cell!r} has no go/done "
                        f"interface and cannot be invoked",
                        component=comp.name,
                        cell=node.cell,
                        span=node.span,
                    )
                )
            for kind, direction, binds in (
                ("input", Direction.INPUT, node.in_binds),
                ("output", Direction.OUTPUT, node.out_binds),
            ):
                for key, ref in binds.items():
                    port = sig.get(key)
                    if port is None or port.direction is not direction:
                        report.add(
                            self.diag(
                                f"invoke binds unknown {kind} {key!r} of cell {node.cell!r}",
                                component=comp.name,
                                cell=node.cell,
                                span=node.span,
                            )
                        )
                        continue
                    width = net.width(ref)
                    if width is not None and width != port.width:
                        report.add(
                            self.diag(
                                f"invoke binding {key!r} of cell {node.cell!r} has "
                                f"width {port.width}, bound to {ref.to_string()} of "
                                f"width {width}",
                                component=comp.name,
                                cell=node.cell,
                                span=node.span,
                                rule="width-mismatch",
                            )
                        )


@register_rule
class DuplicateAssignmentRule(LintRule):
    id = "duplicate-assignment"
    severity = WARNING
    core = True
    description = "the same connection is written twice in one scope"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for gate, prev, assign in net.duplicates:
            where = f"group {gate!r}" if gate else "always-active scope"
            report.add(
                self.diag(
                    f"duplicate connection `{assign.to_string()}` in the "
                    f"same {where} (harmless but redundant)",
                    component=net.comp.name,
                    group=gate,
                    span=assign.span or prev.span,
                )
            )
