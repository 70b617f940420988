"""Core well-formedness rules (paper Sections 3.2-3.3).

These rules subsume the checks that used to live inline in
``ir/validate.py``. They are *core*: ``validate_program`` runs exactly
this set and raises the first error using each rule's ``exception``
class, so registration order below mirrors the validator's historical
check order — signature, cells, groups, continuous assignments, control.

Every rule reads the component's :class:`~repro.analysis.netlist.Netlist`:
its port table resolves references, and multiple-driver checking reads
its driver races, which engine construction checks as well: two
unconditional drivers of one port conflict when they live in the same
activation scope — the same group, or both always-active. Identical duplicate connections are
only a warning (``duplicate-assignment``); they cannot disagree, which is
also what engine construction tolerates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.analysis.netlist import Netlist, Unresolved
from repro.errors import (
    MultipleDriverError,
    UndefinedError,
    ValidationError,
    WidthError,
)
from repro.ir.ast import CellPort, HolePort, ThisPort
from repro.ir.control import Enable, If, Invoke, While
from repro.ir.guards import CmpGuard, Guard, PortGuard, fold
from repro.ir.ports import DONE, GO, PortRef
from repro.ir.types import Direction
from repro.lint.diagnostics import WARNING, Diagnostic, LintReport
from repro.lint.registry import LintRule, register_rule

def _assignments(net: Netlist):
    """Yield ``(context, group_name, assignment)`` over groups + continuous."""
    comp = net.comp
    for group in comp.groups.values():
        for assign in group.assignments:
            yield f"group {group.name!r}", group.name, assign
    for assign in comp.continuous:
        yield "continuous assignments", None, assign


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

        # A guard's findings depend only on the guard and on whether it sits
        # in a group, so each distinct guard is checked once per scope kind.
        guard_problems: Dict[Tuple[Guard, bool], Tuple[Unresolved, ...]] = {}
        for context, group_name, assign in _assignments(net):
            in_group = group_name is not None
            key = (assign.guard, in_group)
            in_guard = guard_problems.get(key)
            if in_guard is None:
                in_guard = guard_problems[key] = self._problems(
                    net, assign.guard.ports(), in_group
                )
            problems = self._problems(net, (assign.dst, assign.src), in_group)
            for message, cell in problems + in_guard:
                report.add(
                    self.diag(
                        f"{context}: {message}",
                        component=comp.name,
                        group=group_name,
                        cell=cell,
                        span=assign.span,
                    )
                )

        self._check_control(net, report)

    def _problems(
        self, net: Netlist, refs: Iterable[PortRef], in_group: bool
    ) -> Tuple[Unresolved, ...]:
        """Why each reference does not resolve, for those with a reason."""
        found = []
        for ref in refs:
            if isinstance(ref, HolePort):
                # Hole existence only matters inside groups; holes in continuous
                # assignments are categorically rejected by `continuous-hole`.
                if in_group and ref.group not in net.comp.groups:
                    found.append(Unresolved(f"hole {ref.to_string()} names an undefined group"))
            elif isinstance(ref, (ThisPort, CellPort)):
                entry = net.port(ref)
                # A port of an unresolvable cell has no message: the cell's own
                # failure was reported above.
                if entry.__class__ is Unresolved and entry.message is not None:
                    found.append(entry)
        return tuple(found)

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
                if not net.resolvable(node.port):
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
        bad_guard_ports: Dict[Guard, Tuple[PortRef, ...]] = {}
        for context, group_name, assign in _assignments(net):
            if net.is_writable(assign.dst) is False:
                report.add(self._unwritable(net, context, group_name, assign))
            if net.is_readable(assign.src) is False:
                report.add(
                    self.diag(
                        f"{context}: {assign.src.to_string()} is not a "
                        f"readable port",
                        component=comp.name,
                        group=group_name,
                        span=assign.span,
                    )
                )
            guard = assign.guard
            unreadable = bad_guard_ports.get(guard)
            if unreadable is None:
                unreadable = bad_guard_ports[guard] = tuple(
                    ref for ref in guard.ports() if net.is_readable(ref) is False
                )
            for ref in unreadable:
                report.add(
                    self.diag(
                        f"{context}: guard operand {ref.to_string()} is "
                        f"not a readable port",
                        component=comp.name,
                        group=group_name,
                        span=assign.span,
                    )
                )
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


    def _unwritable(self, net: Netlist, context: str, group_name, assign) -> Diagnostic:
        return self.diag(
            f"{context}: {assign.dst.to_string()} is not a writable port",
            component=net.comp.name,
            group=group_name,
            span=assign.span,
        )

    def unwritable_error(self, net: Netlist) -> ValidationError:
        """The error this rule raises for ``net``'s first assignment to a
        port that is not writable; the simulator refuses such a netlist."""
        context, group_name, assign = next(
            entry for entry in _assignments(net) if net.is_writable(entry[2].dst) is False
        )
        return self.exception(self._unwritable(net, context, group_name, assign).format())


@register_rule
class WidthMismatchRule(LintRule):
    id = "width-mismatch"
    core = True
    exception = WidthError
    description = "assignment or invoke-binding source/destination widths differ"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        for context, group_name, assign in _assignments(net):
            dst_width = net.width(assign.dst)
            src_width = net.width(assign.src)
            if dst_width is None or src_width is None:
                continue
            if dst_width != src_width:
                report.add(
                    self.diag(
                        f"{context}: width mismatch in {assign.to_string()} "
                        f"({dst_width} vs {src_width})",
                        component=comp.name,
                        group=group_name,
                        span=assign.span,
                    )
                )


@register_rule
class GuardWidthRule(LintRule):
    id = "guard-width"
    core = True
    exception = WidthError
    description = "guard ports must be 1 bit; comparison operands equal width"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp

        def visit(guard: Guard, found: Tuple[Tuple[str, ...], ...]) -> Tuple[str, ...]:
            """One message per bad operand occurrence, in tree order."""
            if found:
                return found[0] + found[1] if len(found) == 2 else found[0]
            if isinstance(guard, PortGuard):
                width = net.width(guard.port)
                if width is not None and width != 1:
                    return (f"guard port {guard.port.to_string()} must be 1 bit, is {width}",)
            elif isinstance(guard, CmpGuard):
                left = net.width(guard.left)
                right = net.width(guard.right)
                if left is not None and right is not None and left != right:
                    return (
                        f"comparison width mismatch in {guard.to_string()} "
                        f"({left} vs {right})",
                    )
            return ()

        findings: Dict[Guard, Tuple[str, ...]] = {}
        for context, group_name, assign in _assignments(net):
            for finding in fold(assign.guard, visit, findings):
                report.add(
                    self.diag(
                        f"{context}: {finding}",
                        component=comp.name,
                        group=group_name,
                        span=assign.span,
                    )
                )
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
        guard_holes: Dict[Guard, bool] = {}
        for assign in net.comp.continuous:
            holes = guard_holes.get(assign.guard)
            if holes is None:
                holes = guard_holes[assign.guard] = any(
                    isinstance(ref, HolePort) for ref in assign.guard.ports()
                )
            if holes or isinstance(assign.dst, HolePort) or isinstance(assign.src, HolePort):
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
            for key, src in node.in_binds.items():
                if key not in sig or sig[key].direction is not Direction.INPUT:
                    report.add(
                        self.diag(
                            f"invoke binds unknown input {key!r} of cell "
                            f"{node.cell!r}",
                            component=comp.name,
                            cell=node.cell,
                            span=node.span,
                        )
                    )
                    continue
                self._check_width(net, report, node, key, sig[key].width, src)
            for key, dst in node.out_binds.items():
                if key not in sig or sig[key].direction is not Direction.OUTPUT:
                    report.add(
                        self.diag(
                            f"invoke binds unknown output {key!r} of cell "
                            f"{node.cell!r}",
                            component=comp.name,
                            cell=node.cell,
                            span=node.span,
                        )
                    )
                    continue
                self._check_width(net, report, node, key, sig[key].width, dst)

    def _check_width(self, net, report, node, key, port_width, ref) -> None:
        bound = net.width(ref)
        if bound is not None and bound != port_width:
            report.add(
                self.diag(
                    f"invoke binding {key!r} of cell {node.cell!r} has "
                    f"width {port_width}, bound to {ref.to_string()} of "
                    f"width {bound}",
                    component=net.comp.name,
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
