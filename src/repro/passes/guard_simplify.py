"""GuardSimplify: boolean simplification of assignment guards.

Applies local rewrites — constant folding (``1 & g -> g``), double
negation, and idempotence (``g & g -> g``, ``g | g -> g``) — shrinking the
guard logic the resource estimator charges for.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.ast import Program
from repro.ir.guards import (
    G_TRUE,
    AndGuard,
    Guard,
    NotGuard,
    OrGuard,
    TrueGuard,
    fold,
)
from repro.passes.base import Pass, register_pass


def _simplify(guard: Guard, children: Tuple[Guard, ...]) -> Guard:
    """The :func:`fold` visit: ``guard`` over its simplified ``children``."""
    if isinstance(guard, NotGuard):
        (inner,) = children
        return inner.inner if isinstance(inner, NotGuard) else guard.rebuild(children)
    if isinstance(guard, AndGuard):
        left, right = children
        if isinstance(left, TrueGuard):
            return right
        if isinstance(right, TrueGuard) or left is right:
            return left
    elif isinstance(guard, OrGuard):
        left, right = children
        if isinstance(left, TrueGuard) or isinstance(right, TrueGuard):
            return G_TRUE
        if left is right:
            return left
    return guard.rebuild(children)


def simplify_guard(guard: Guard, memo: Optional[Dict[Guard, Guard]] = None) -> Guard:
    """Bottom-up simplification; returns a (possibly shared) new guard.

    ``memo`` is the :func:`fold` memo, so a node shared by many guards is
    simplified once per ``memo``.
    """
    return fold(guard, _simplify, {} if memo is None else memo)


@register_pass
class GuardSimplify(Pass):
    name = "guard-simplify"
    description = "boolean simplification of guards"

    def run(self, program: Program) -> None:
        memo: Dict[Guard, Guard] = {}
        for comp in program.components:
            for _, assign in comp.all_assignments():
                assign.guard = simplify_guard(assign.guard, memo)
