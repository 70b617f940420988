"""Semantic lint rules: guard logic, latency claims, reachability.

These are *not* core: they flag likely mistakes rather than definite
ill-formedness, so ``validate_program`` never runs them. The guard rules
reason over every valuation of the guard's atomic predicates treated as
independent booleans; since the feasible valuations are a subset of all
independent valuations, a "always true"/"never true" verdict is sound
(though incomplete — correlated atoms like ``x == 1`` and ``x == 2`` may
hide additional contradictions). A conjunction of literals is decided by
its atoms' polarities. Any other guard's valuations are evaluated
together: bit ``k`` of an int is the guard's value under valuation
``k``, so one walk of the guard DAG computes its whole truth table.
Constants follow the simulator's reading: any nonzero value is true.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.analysis.latency import control_latency, structural_group_latency
from repro.analysis.live_groups import live_group_names
from repro.analysis.netlist import Netlist
from repro.ir.ast import ConstPort
from repro.ir.attributes import STATIC
from repro.ir.control import If, Repeat, While
from repro.ir.guards import (
    AndGuard,
    CmpGuard,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
    TrueGuard,
    fold,
)
from repro.lint.diagnostics import ERROR, WARNING, LintReport
from repro.lint.registry import LintRule, register_rule

#: Skip guards with more distinct atoms than this (a 2^N-bit truth table).
MAX_GUARD_ATOMS = 10


# -- guard truth-table analysis -------------------------------------------

Atom = Tuple  # canonical hashable key for one atomic predicate


def _cmp_atom(guard: CmpGuard) -> Tuple[Optional[Atom], bool, Optional[bool]]:
    """Canonicalize a comparison into ``(atom, polarity, constant)``.

    ``constant`` is the folded value when both operands are constants
    (``atom`` is then None). Canonical forms: ``==`` with operands sorted
    (``!=`` is its negation), and ``<`` directed (``>``/``<=``/``>=`` are
    swaps and negations), so complementary spellings share one atom.
    """
    left, right = guard.left, guard.right
    if isinstance(left, ConstPort) and isinstance(right, ConstPort):
        lv, rv = left.value, right.value
        value = {
            "==": lv == rv,
            "!=": lv != rv,
            "<": lv < rv,
            ">": lv > rv,
            "<=": lv <= rv,
            ">=": lv >= rv,
        }[guard.op]
        return None, True, value
    lkey, rkey = left.to_string(), right.to_string()
    if guard.op in ("==", "!="):
        atom = ("eq",) + tuple(sorted((lkey, rkey)))
        return atom, guard.op == "==", None
    if guard.op == "<":
        return ("lt", lkey, rkey), True, None
    if guard.op == ">":
        return ("lt", rkey, lkey), True, None
    if guard.op == ">=":
        return ("lt", lkey, rkey), False, None
    # "<=" : not (right < left)
    return ("lt", rkey, lkey), False, None


#: A literal: ``(atom, polarity)``; a constant is ``(None, its value)``.
Literal = Tuple[Optional[Atom], bool]

_NO_ATOMS: FrozenSet[Atom] = frozenset()


def _literal(leaf: Guard) -> Literal:
    """A leaf guard (true, a port, a comparison) as a literal."""
    if isinstance(leaf, CmpGuard):
        atom, polarity, constant = _cmp_atom(leaf)
        return (atom, polarity) if atom is not None else (None, constant)
    if isinstance(leaf, PortGuard):
        if isinstance(leaf.port, ConstPort):
            return None, leaf.port.value != 0
        return ("port", leaf.port.to_string()), True
    return None, True


def _column(k: int, full: int) -> int:
    """Truth-table column of atom ``k``: bit ``v`` is bit ``k`` of ``v``.

    The column repeats a period of ``2^k`` zeros then ``2^k`` ones;
    ``full`` divided by an all-ones period has a 1 where each period starts.
    """
    half = 1 << k
    period = ((1 << half) - 1) << half
    return period * (full // ((1 << (2 * half)) - 1))


def _truth_table(
    guard: Guard,
    columns: Dict[Atom, int],
    full: int,
    literal: Callable[[Guard], Literal] = _literal,
) -> int:
    """The guard's value under every valuation, one bit per valuation.

    One :func:`fold` under the same ``columns`` evaluates a shared
    sub-guard once; ``literal`` reads a leaf.
    """

    def visit(node: Guard, tables: Tuple[int, ...]) -> int:
        if isinstance(node, NotGuard):
            return full ^ tables[0]
        if isinstance(node, AndGuard):
            return tables[0] & tables[1]
        if isinstance(node, OrGuard):
            return tables[0] | tables[1]
        atom, polarity = literal(node)
        if atom is None:
            return full if polarity else 0
        return columns[atom] if polarity else full ^ columns[atom]

    return fold(guard, visit, {})


class GuardLogic:
    """Classifies guards, sharing the work between the guards of one
    component: each leaf is read as a literal once, and each node's atoms
    and, for a conjunction of literals, its literals are folded once."""

    __slots__ = ("_literals", "_folded")

    def __init__(self) -> None:
        #: Each leaf's literal, read when the fold first meets it.
        self._literals: Dict[Guard, Literal] = {}
        #: Each node's ``(atoms, literals)``; the literals are ``None``
        #: unless the node is a conjunction of literals.
        self._folded: Dict[Guard, Tuple[FrozenSet[Atom], Optional[FrozenSet[Literal]]]] = {}

    def _visit(self, node: Guard, children: tuple):
        """The :func:`fold` visit: a node's atoms and conjunction literals."""
        if not children:
            lit = self._literals[node] = _literal(node)
            return (_NO_ATOMS if lit[0] is None else frozenset((lit[0],))), frozenset((lit,))
        if len(children) == 1:  # a negation, a literal only over a leaf
            atoms, lits = children[0]
            if node.inner.children:
                return atoms, None
            ((atom, polarity),) = lits
            return atoms, frozenset(((atom, not polarity),))
        (left, left_lits), (right, right_lits) = children
        if isinstance(node, AndGuard) and left_lits is not None and right_lits is not None:
            return left | right, left_lits | right_lits
        return left | right, None

    def atoms(self, guard: Guard) -> FrozenSet[Atom]:
        """The guard's canonical atoms."""
        return fold(guard, self._visit, self._folded)[0]

    def classify(self, guard: Guard) -> Optional[str]:
        """See :func:`classify_guard`."""
        if isinstance(guard, TrueGuard):
            return None
        atoms, lits = fold(guard, self._visit, self._folded)
        if not atoms or len(atoms) > MAX_GUARD_ATOMS:
            return None
        if lits is not None:
            # A conjunction of literals is never true under every valuation.
            # It is false under every one exactly when, a true literal aside,
            # it has more literals than atoms: some atom occurs with both
            # polarities, or some literal folds to false.
            return "contradiction" if len(lits) - ((None, True) in lits) > len(atoms) else None
        full = (1 << (1 << len(atoms))) - 1
        columns = {atom: _column(k, full) for k, atom in enumerate(atoms)}
        table = _truth_table(guard, columns, full, self._literals.__getitem__)
        if table == full:
            return "tautology"
        return "contradiction" if table == 0 else None


def classify_guard(guard: Guard) -> Optional[str]:
    """``"tautology"``, ``"contradiction"``, or None (contingent/unknown).

    Unconditional (:class:`TrueGuard`) and atom-free guards are skipped:
    a bare ``1`` is normal style, and ``!1`` is the printer's deliberate
    never-guard. Guards with too many atoms are skipped rather than
    sampled, so a verdict is always sound. A :class:`GuardLogic` shares
    the work between the guards of one component.
    """
    return GuardLogic().classify(guard)


@register_rule
class GuardLogicRule(LintRule):
    id = "guard-tautology"
    ids = ("guard-tautology", "guard-contradiction")
    severity = WARNING
    description = "a guard is always true (redundant) or never true (dead)"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        verdicts: Dict[Guard, Optional[str]] = {}
        logic = GuardLogic()
        for group, assign, _, _, _ in net.wires:
            guard = assign.guard
            if guard not in verdicts:
                verdicts[guard] = logic.classify(guard)
            verdict = verdicts[guard]
            if verdict is None:
                continue
            message = f"guard `{guard.to_string()}` " + (
                "is always true; write an unconditional assignment"
                if verdict == "tautology"
                else f"can never be true; assignment {assign.to_string()} is dead"
            )
            report.add(
                self.diag(
                    message,
                    component=net.comp.name,
                    group=group,
                    span=assign.span,
                    rule=f"guard-{verdict}",
                )
            )


# -- latency claims --------------------------------------------------------


@register_rule
class StaticLatencyRule(LintRule):
    id = "static-latency-mismatch"
    severity = ERROR
    description = 'a "static" attribute contradicts inferable latency'

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        program = net.program
        for group in comp.groups.values():
            declared = group.attributes.get(STATIC)
            if declared is None or group.comb:
                continue
            inferred = structural_group_latency(program, comp, group)
            if inferred is not None and inferred != declared:
                report.add(
                    self.diag(
                        f"group {group.name!r} declares \"static\"="
                        f"{declared} but its structure implies latency "
                        f"{inferred}",
                        component=comp.name,
                        group=group.name,
                        span=group.span,
                    )
                )
        declared = comp.attributes.get(STATIC)
        if declared is not None:
            inferred = control_latency(program, comp, comp.control)
            if inferred is not None and inferred > 0 and inferred != declared:
                report.add(
                    self.diag(
                        f"component {comp.name!r} declares \"static\"="
                        f"{declared} but its control implies latency "
                        f"{inferred}",
                        component=comp.name,
                        span=comp.span,
                    )
                )


# -- reachability ----------------------------------------------------------


@register_rule
class NeverEnabledGroupRule(LintRule):
    id = "never-enabled-group"
    severity = WARNING
    description = "a group is unreachable from the control tree"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        if comp.control.is_empty():
            # Post-lowering (or structurally driven) components run on
            # wires alone; absence from an empty control tree means nothing.
            return
        live = live_group_names(comp)
        for group in comp.groups.values():
            if group.name not in live:
                report.add(
                    self.diag(
                        f"group {group.name!r} is never enabled by the "
                        f"control tree (dead-group-removal would drop it)",
                        component=comp.name,
                        group=group.name,
                        span=group.span,
                    )
                )


@register_rule
class UnreachableControlRule(LintRule):
    id = "unreachable-control"
    severity = WARNING
    description = "control with constant conditions or zero repeat counts"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        comp = net.comp
        for node in net.control:
            if isinstance(node, Repeat):
                if node.times == 0 and not node.body.is_empty():
                    report.add(
                        self.diag(
                            "repeat 0 body never runs",
                            component=comp.name,
                            span=node.span,
                        )
                    )
            elif isinstance(node, If) and isinstance(node.port, ConstPort):
                taken = "true" if node.port.value != 0 else "false"
                report.add(
                    self.diag(
                        f"if condition is the constant "
                        f"{node.port.to_string()}; only the {taken} branch "
                        f"can run",
                        component=comp.name,
                        span=node.span,
                    )
                )
            elif isinstance(node, While) and isinstance(node.port, ConstPort):
                detail = (
                    "body never runs"
                    if node.port.value == 0
                    else "loop never terminates"
                )
                report.add(
                    self.diag(
                        f"while condition is the constant "
                        f"{node.port.to_string()}; {detail}",
                        component=comp.name,
                        span=node.span,
                    )
                )


@register_rule
class DeadComponentRule(LintRule):
    id = "dead-component"
    severity = WARNING
    description = "a component is never instantiated and is not the entrypoint"

    def check_program(self, program, report: LintReport) -> None:
        instantiated: Set[str] = set()
        for comp in program.components:
            for cell in comp.cells.values():
                instantiated.add(cell.comp_name)
        for extern in program.externs:
            for comp in extern.components:
                for cell in comp.cells.values():
                    instantiated.add(cell.comp_name)
        for comp in program.components:
            if comp.name == program.entrypoint or comp.name in instantiated:
                continue
            report.add(
                self.diag(
                    f"component {comp.name!r} is never instantiated",
                    component=comp.name,
                    span=comp.span,
                )
            )
