"""Diagnostic and report types for the lint framework.

A :class:`Diagnostic` is one finding: a stable rule id, a severity, a
human-readable message, the component/group/cell context it was found in,
and (when the construct came from the parser) a source :class:`Span`.
A :class:`LintReport` is an ordered collection with text and JSON
renderings — the CLI's ``--format=text|json`` both come from here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.types import Span

ERROR = "error"
WARNING = "warning"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1}


class Diagnostic:
    """One lint finding; immutable value object."""

    __slots__ = ("rule", "severity", "message", "component", "group", "cell", "span")

    def __init__(
        self,
        rule: str,
        severity: str,
        message: str,
        component: Optional[str] = None,
        group: Optional[str] = None,
        cell: Optional[str] = None,
        span: Optional[Span] = None,
    ):
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}")
        self.rule = rule
        self.severity = severity
        self.message = message
        self.component = component
        self.group = group
        self.cell = cell
        self.span = span

    def context(self) -> str:
        """Human-readable "where": component, then group or cell."""
        parts = []
        if self.component:
            parts.append(f"component {self.component!r}")
        if self.group:
            parts.append(f"group {self.group!r}")
        if self.cell:
            parts.append(f"cell {self.cell!r}")
        return ", ".join(parts)

    def format(self) -> str:
        """``LINE:COL: severity[rule]: message (in ...)``."""
        prefix = f"{self.span.to_string()}: " if self.span else ""
        where = self.context()
        suffix = f" (in {where})" if where else ""
        return f"{prefix}{self.severity}[{self.rule}]: {self.message}{suffix}"

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.component:
            data["component"] = self.component
        if self.group:
            data["group"] = self.group
        if self.cell:
            data["cell"] = self.cell
        if self.span:
            data["line"] = self.span.line
            data["column"] = self.span.column
        return data

    def __repr__(self) -> str:
        return f"Diagnostic({self.format()!r})"


class LintReport:
    """An ordered list of diagnostics with summary accessors."""

    def __init__(self, diagnostics: Optional[List[Diagnostic]] = None):
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])

    # -- collection --------------------------------------------------------
    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -- queries -----------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when there are no *errors* (warnings do not fail a lint)."""
        return not self.errors

    def sorted(self) -> List[Diagnostic]:
        """Errors first, then warnings; stable within a severity."""
        return sorted(
            self.diagnostics, key=lambda d: _SEVERITY_RANK[d.severity]
        )

    # -- rendering ---------------------------------------------------------
    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )

    def format_text(self) -> str:
        if not self.diagnostics:
            return "clean: no lint findings"
        lines = [d.format() for d in self.sorted()]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_json() for d in self.sorted()],
        }

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self) -> str:
        return f"LintReport({self.summary()})"
