"""Well-formedness validation for Calyx programs (paper Sections 3.2-3.3).

Historically this module held a hand-written checker; it is now a thin
shim over the *core* rule subset of :mod:`repro.lint`. The lint rules
check, per component:

* every cell instantiates a known component or primitive,
* every port reference resolves and is used in the right direction
  (destinations must be writable, sources readable),
* assignment and comparison widths match,
* guards built from bare ports use 1-bit ports,
* each non-combinational group has a ``done`` condition,
* no port has two *conflicting* unconditional drivers within one
  activation scope — the same group, or the always-active scope shared by
  continuous assignments (the unique-driver requirement; conditionally
  guarded multiple drivers are permitted and checked dynamically by the
  simulator, and identical duplicate connections are only a lint warning),
* the control program only names defined, non-combinational groups,
  ``with`` clauses name defined groups, and invoke bindings match the
  callee's signature.

The raising behaviour is unchanged: the first error-severity diagnostic
becomes an exception of the class the rule declares (``UndefinedError``,
``WidthError``, ``MultipleDriverError``, or plain ``ValidationError``).
Callers that want *all* findings — plus the non-core rules (cycle
detection, latency claims, reachability, guard logic) — should call
:func:`repro.lint.lint_program` instead.
"""

from __future__ import annotations

from repro.ir.ast import Program


def validate_program(program: Program) -> None:
    """Validate every component; raises a :class:`ValidationError` subclass.

    The core rules share one netlist per component definition, and the
    first error-severity diagnostic, in component order, is raised.
    """
    # Imported lazily: repro.lint imports the IR package, so a module-level
    # import here would be circular.
    from repro.lint import exception_for, lint_program

    for diagnostic in lint_program(program, core_only=True).errors:
        raise exception_for(diagnostic.rule)(diagnostic.format())
