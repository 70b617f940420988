"""Lint rule base class, registry, and the ``lint_program`` entry point.

Rules self-register via the :func:`register_rule` decorator, in module
import order. Ordering matters for one client: the validator runs the
*core* rules in registration order and raises on the first error it sees,
so the registration sequence in :mod:`repro.lint.rules_structure` mirrors
the historical check order of ``ir/validate.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

from repro.analysis.netlist import Netlist, Netlists
from repro.errors import ValidationError
from repro.ir.ast import Program
from repro.lint.diagnostics import ERROR, Diagnostic, LintReport


class LintRule:
    """One named check over a component (or the whole program).

    Subclasses set:

    * ``id`` — the stable rule identifier (kebab-case),
    * ``ids`` — every id the rule may emit, when it emits more than one
      (defaults to ``(id,)``),
    * ``severity`` — default severity for :meth:`diag`,
    * ``core`` — True for rules that back ``validate_program`` (they must
      be fast and must only report definite ill-formedness),
    * ``exception`` — the :class:`CalyxError` subclass the validator
      raises when this rule reports an error,
    * ``description`` — one line for ``repro lint --rules`` and the docs.
    """

    id: str = ""
    ids: tuple = ()
    severity: str = ERROR
    #: per-id severity overrides for rules emitting several ids.
    severities: Dict[str, str] = {}
    core: bool = False
    exception: type = ValidationError
    description: str = ""

    def check_component(
        self, net: Netlist, report: LintReport
    ) -> None:  # pragma: no cover - interface
        pass

    def check_program(
        self, program: Program, report: LintReport
    ) -> None:  # pragma: no cover - interface
        pass

    # -- helpers -----------------------------------------------------------
    def diag(
        self,
        message: str,
        component: Optional[str] = None,
        group: Optional[str] = None,
        cell: Optional[str] = None,
        span=None,
        rule: Optional[str] = None,
        severity: Optional[str] = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule or self.id,
            severity or self.severity,
            message,
            component=component,
            group=group,
            cell=cell,
            span=span,
        )

    @classmethod
    def all_ids(cls) -> tuple:
        return cls.ids or (cls.id,)


_RULES: List[LintRule] = []


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: instantiate and append to the global registry."""
    if not cls.id:
        raise ValueError(f"lint rule {cls.__name__} has no id")
    _RULES.append(cls())
    return cls


def _ensure_rules_loaded() -> None:
    # Import order defines rule order; structure rules come first because
    # the validator depends on their registration sequence.
    from repro.lint import rules_cycles, rules_semantic, rules_structure  # noqa: F401


def all_rules(core_only: bool = False) -> List[LintRule]:
    _ensure_rules_loaded()
    if core_only:
        return [rule for rule in _RULES if rule.core]
    return list(_RULES)


def rule_table() -> List[Dict[str, str]]:
    """Rows of (id, severity, core, description) for docs and --rules."""
    rows = []
    for rule in all_rules():
        for rule_id in type(rule).all_ids():
            rows.append(
                {
                    "id": rule_id,
                    "severity": rule.severities.get(rule_id, rule.severity),
                    "core": "yes" if rule.core else "no",
                    "description": rule.description,
                }
            )
    return rows


def exception_for(rule_id: str):
    """The exception class the validator raises for a rule id."""
    _ensure_rules_loaded()
    for rule in _RULES:
        if rule_id in type(rule).all_ids():
            return rule.exception
    return ValidationError


def lint_program(
    program: Program,
    rules: Optional[Iterable[LintRule]] = None,
    core_only: bool = False,
) -> LintReport:
    """Run every selected rule over every component (plus program rules).

    The rules share one netlist per component definition for the call.
    """
    selected = list(rules) if rules is not None else all_rules(core_only)
    report = LintReport()
    netlists = Netlists(program)
    # Held for the whole call: the table itself keeps no netlist alive.
    nets = [netlists.of(comp) for comp in program.components]
    for net in nets:
        for rule in selected:
            rule.check_component(net, report)
    for rule in selected:
        rule.check_program(program, report)
    return report
