"""Checked pass manager: per-pass snapshots and post-pass re-validation.

The plain :class:`~repro.passes.base.PassManager` runs open-loop: a pass
that corrupts the IR is only discovered when some later pass or the
simulator trips over the wreckage, far from the culprit. The checked
manager closes the loop. Around every pass it

1. snapshots the program (a deep copy printed on demand),
2. runs the pass,
3. re-validates well-formedness (:func:`repro.ir.validate.validate_program`),
4. checks the pass's registered *post-conditions* — structural invariants
   such as "no groups remain after ``remove-groups``" or "control is a
   single enable after ``compile-control``".

Any failure raises a :class:`~repro.errors.PassDiagnostic` naming the
pass, carrying the IR printed before and after it, and chaining the
original exception. In ``keep_going`` mode the failing pass is instead
rolled back (the snapshot is restored), recorded in
:attr:`CheckedPassManager.degradations`, and compilation continues with
that pass skipped — degraded output beats silent miscompilation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import CalyxError, InvariantViolation, LintError, PassDiagnostic
from repro.ir.ast import Program
from repro.ir.control import Empty, Enable, Invoke, Repeat
from repro.ir.printer import print_program
from repro.ir.validate import validate_program
from repro.passes.base import Pass, PassManager

# ---------------------------------------------------------------------------
# Post-conditions: structural invariants a pass must establish.
# ---------------------------------------------------------------------------

#: Each checker inspects the whole program and returns an error message
#: (or None). Registered per pass name; extend freely from new passes.
PostCondition = Callable[[Program], Optional[str]]


def _no_groups_remain(program: Program) -> Optional[str]:
    for comp in program.components:
        if comp.groups:
            names = ", ".join(sorted(comp.groups))
            return (
                f"component {comp.name!r} still defines groups after "
                f"group removal: {names}"
            )
    return None


def _control_is_flat(program: Program) -> Optional[str]:
    """After compile-control, control must be a single enable (or empty)."""
    for comp in program.components:
        if not isinstance(comp.control, (Enable, Empty)):
            return (
                f"component {comp.name!r} still has structured control "
                f"({type(comp.control).__name__}) after control compilation"
            )
    return None


def _control_is_empty(program: Program) -> Optional[str]:
    for comp in program.components:
        if not comp.control.is_empty():
            return (
                f"component {comp.name!r} still has control "
                f"({type(comp.control).__name__}) after group removal"
            )
    return None


def _no_repeat_nodes(program: Program) -> Optional[str]:
    for comp in program.components:
        for node in comp.control.walk():
            if isinstance(node, Repeat):
                return (
                    f"component {comp.name!r}: repeat node survived "
                    f"compile-repeat"
                )
    return None


def _no_invoke_nodes(program: Program) -> Optional[str]:
    for comp in program.components:
        for node in comp.control.walk():
            if isinstance(node, Invoke):
                return (
                    f"component {comp.name!r}: invoke of {node.cell!r} "
                    f"survived compile-invoke"
                )
    return None


def _control_groups_defined(program: Program) -> Optional[str]:
    """Every group the control tree enables must still be defined."""
    for comp in program.components:
        for node in comp.control.walk():
            if isinstance(node, Enable) and node.group not in comp.groups:
                return (
                    f"component {comp.name!r}: control enables group "
                    f"{node.group!r} which no longer exists"
                )
    return None


POST_CONDITIONS: Dict[str, List[PostCondition]] = {
    "compile-repeat": [_no_repeat_nodes],
    "compile-invoke": [_no_invoke_nodes],
    "compile-control": [_control_is_flat],
    "remove-groups": [_no_groups_remain, _control_is_empty],
    # Optimization passes must never orphan a control reference.
    "dead-group-removal": [_control_groups_defined],
    "collapse-control": [_control_groups_defined],
    "resource-sharing": [_control_groups_defined],
    "resource-sharing-heuristic": [_control_groups_defined],
    "register-sharing": [_control_groups_defined],
}


def check_post_conditions(pass_name: str, program: Program) -> None:
    """Raise :class:`InvariantViolation` if a registered invariant fails."""
    for check in POST_CONDITIONS.get(pass_name, []):
        message = check(program)
        if message is not None:
            raise InvariantViolation(
                f"post-condition of pass {pass_name!r} violated: {message}"
            )


def _restore(program: Program, snapshot: Program) -> None:
    """Roll ``program`` back to ``snapshot`` in place."""
    program.components = snapshot.components
    program.externs = snapshot.externs
    program.entrypoint = snapshot.entrypoint


def _safe_print(program: Program) -> str:
    """Print the IR, tolerating states so broken the printer itself fails."""
    try:
        return print_program(program)
    except Exception as exc:  # the dump is best-effort diagnostics
        return f"<IR unprintable: {type(exc).__name__}: {exc}>"


class CheckedPassManager(PassManager):
    """A :class:`PassManager` that re-validates the IR after every pass.

    Parameters
    ----------
    pass_names:
        The pipeline, as for the base class.
    keep_going:
        When true, a failing pass is rolled back and skipped instead of
        aborting; the diagnostic is appended to :attr:`degradations`.
    lint:
        Opt-in: run the *full* lint rule set (:func:`repro.lint.lint_program`)
        after each pass and fail on error-severity findings. Stricter than
        the always-on validation — it also catches combinational cycles,
        contradicted ``"static"`` claims, and the other non-core rules —
        and the resulting :class:`PassDiagnostic` names the offending pass.
    """

    def __init__(
        self,
        pass_names: List[str],
        keep_going: bool = False,
        lint: bool = False,
    ):
        super().__init__(pass_names)
        self.keep_going = keep_going
        self.lint = lint
        self.degradations: List[PassDiagnostic] = []

    def _run_one(
        self, index: int, name: str, pass_: Pass, program: Program
    ) -> None:
        before = program.copy()
        try:
            pass_.run(program)
            validate_program(program)
            check_post_conditions(name, program)
            if self.lint:
                self._lint(name, program)
        except CalyxError as exc:
            diagnostic = PassDiagnostic(
                name,
                exc,
                before_ir=_safe_print(before),
                after_ir=_safe_print(program),
                index=index,
            )
            if self.keep_going:
                _restore(program, before)
                self.degradations.append(diagnostic)
            else:
                raise diagnostic from exc

    @staticmethod
    def _lint(pass_name: str, program: Program) -> None:
        from repro.lint import lint_program  # lazy: lint imports the IR

        report = lint_program(program)
        if not report.ok:
            raise LintError(
                f"lint failed after pass {pass_name!r} "
                f"({report.summary()}):\n{report.format_text()}",
                report=report,
            )

    def degradation_report(self) -> str:
        """Human-readable summary of skipped passes (``keep_going`` mode)."""
        if not self.degradations:
            return "all passes ran clean"
        lines = [f"{len(self.degradations)} pass(es) skipped after failing:"]
        for diag in self.degradations:
            lines.append(f"  - {diag}")
        return "\n".join(lines)
