"""Static semantic linter for the Calyx IL.

The linter generalizes the old validator into a rule registry producing
:class:`Diagnostic` objects (severity, stable rule id, component/group/
cell context, and parser-recorded source spans) instead of raising on the
first problem. ``validate_program`` in :mod:`repro.ir.validate` is now a
thin shim over the *core* rule subset, and three opt-in integrations run
the full set: the ``repro lint`` CLI subcommand, the inter-pass hook in
:class:`repro.robustness.checked.CheckedPassManager`, and the simulation
testbench's pre-flight check.

Typical use::

    from repro.lint import lint_program
    report = lint_program(program)
    if not report.ok:
        print(report.format_text())
"""

from repro.lint.diagnostics import ERROR, WARNING, Diagnostic, LintReport
from repro.lint.registry import (
    LintRule,
    all_rules,
    exception_for,
    lint_program,
    register_rule,
    rule_table,
)

__all__ = [
    "ERROR",
    "WARNING",
    "Diagnostic",
    "LintReport",
    "LintRule",
    "all_rules",
    "exception_for",
    "lint_program",
    "register_rule",
    "rule_table",
]
