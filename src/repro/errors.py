"""Exception hierarchy for the repro (Calyx) toolchain.

Every error raised by the library derives from :class:`CalyxError` so that
callers can catch toolchain failures without catching unrelated bugs.
"""

from __future__ import annotations


class CalyxError(Exception):
    """Base class for all errors raised by the toolchain."""


class ParseError(CalyxError):
    """Raised when textual Calyx or Dahlia input is malformed.

    Carries the source position when available.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class ValidationError(CalyxError):
    """Raised when a program violates a well-formedness rule.

    Examples: a port with multiple unconditional drivers, a reference to an
    undefined cell, or mismatched port widths.
    """


class UndefinedError(ValidationError):
    """A name (cell, group, port, component) is not defined."""


class WidthError(ValidationError):
    """An assignment or guard connects ports of different bit widths."""


class MultipleDriverError(ValidationError):
    """A port has more than one simultaneously active driver."""


class PassError(CalyxError):
    """Raised when a compiler pass cannot be applied to a program."""


class InvariantViolation(PassError):
    """A pass left the program in a state violating its post-condition.

    Raised by the checked pass manager when, e.g., groups survive
    ``remove-groups`` or control survives ``compile-control``.
    """


class PassDiagnostic(PassError):
    """A structured diagnostic from the checked pass manager.

    Pinpoints *which* pass broke the program: carries the offending pass
    name, the IR printed immediately before and after that pass ran, and
    the original exception (also chained via ``__cause__``).
    """

    def __init__(
        self,
        pass_name: str,
        cause: BaseException,
        before_ir: str = "",
        after_ir: str = "",
        index: int = -1,
    ):
        self.pass_name = pass_name
        self.cause = cause
        self.before_ir = before_ir
        self.after_ir = after_ir
        self.index = index
        super().__init__(
            f"pass {pass_name!r} failed: {type(cause).__name__}: {cause}"
        )
        self.__cause__ = cause

    def report(self, max_ir_lines: int = 40) -> str:
        """Multi-line report with truncated before/after IR dumps."""

        def clip(text: str) -> str:
            lines = text.splitlines()
            if len(lines) > max_ir_lines:
                omitted = len(lines) - max_ir_lines
                lines = lines[:max_ir_lines] + [f"... ({omitted} more lines)"]
            return "\n".join("    " + line for line in lines)

        parts = [str(self)]
        if self.before_ir:
            parts.append("  IR before pass:\n" + clip(self.before_ir))
        if self.after_ir:
            parts.append("  IR after pass:\n" + clip(self.after_ir))
        return "\n".join(parts)


class LintError(CalyxError):
    """Raised when an opt-in lint gate finds error-severity diagnostics.

    Carries the full :class:`repro.lint.LintReport` so callers (the
    checked pass manager, the testbench pre-flight) can show every
    finding, not just the first.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SimulationError(CalyxError):
    """Raised by the simulator, e.g. on combinational cycles or timeouts."""

    #: Optional simulator state dump attached by the watchdog.
    state_dump: str = ""

    def with_state(self, dump: str) -> "SimulationError":
        self.state_dump = dump
        return self


class CombinationalLoopError(SimulationError):
    """The combinational fixpoint did not converge: a combinational cycle."""


class OscillationError(CombinationalLoopError):
    """The combinational settle loop entered a true limit cycle.

    Distinguished from generic non-convergence: the net state provably
    repeats (e.g. a not-gate feeding itself), so more iterations can never
    help. Carries the set of oscillating nets.
    """

    def __init__(self, message: str, nets=None, period: int = 0):
        super().__init__(message)
        self.nets = list(nets or [])
        self.period = period


class CycleLimitError(SimulationError):
    """The watchdog's cycle budget was exhausted before ``done`` rose."""

    def __init__(self, message: str, cycles: int = 0):
        super().__init__(message)
        self.cycles = cycles


class WallClockTimeoutError(SimulationError):
    """The watchdog's wall-clock budget was exhausted mid-simulation."""

    def __init__(self, message: str, seconds: float = 0.0, cycles: int = 0):
        super().__init__(message)
        self.seconds = seconds
        self.cycles = cycles


class DeadlockError(SimulationError):
    """No ``done`` signal changed for the watchdog window: the design hung.

    Carries the groups that were active when the simulation stalled and,
    per group, the done condition it is waiting on.
    """

    def __init__(self, message: str, stuck_groups=None, cycles: int = 0):
        super().__init__(message)
        self.stuck_groups = list(stuck_groups or [])
        self.cycles = cycles


class TypeError_(CalyxError):
    """Raised by the Dahlia type checker (avoids shadowing builtins)."""
