"""GuardSimplify: boolean simplification of assignment guards.

Applies local rewrites — constant folding (``1 & g -> g``), double
negation, and idempotence (``g & g -> g``, ``g | g -> g``) — shrinking the
guard logic the resource estimator charges for.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.ast import Program
from repro.ir.guards import (
    G_TRUE,
    AndGuard,
    Guard,
    NotGuard,
    OrGuard,
    TrueGuard,
)
from repro.passes.base import Pass, register_pass


def simplify_guard(guard: Guard, memo: Optional[Dict[Guard, Guard]] = None) -> Guard:
    """Bottom-up simplification; returns a (possibly shared) new guard.

    ``memo`` maps each node already simplified to its result, so a node
    shared by many guards is simplified once per ``memo``.
    """
    if memo is None:
        memo = {}
    done = memo.get(guard)
    if done is not None:
        return done
    # An unchanged node stays itself: interning would return it anyway.
    result = guard
    if isinstance(guard, NotGuard):
        inner = simplify_guard(guard.inner, memo)
        if isinstance(inner, NotGuard):
            result = inner.inner
        elif inner is not guard.inner:
            result = NotGuard(inner)
    elif isinstance(guard, AndGuard):
        left = simplify_guard(guard.left, memo)
        right = simplify_guard(guard.right, memo)
        if isinstance(left, TrueGuard):
            result = right
        elif isinstance(right, TrueGuard) or left is right:
            result = left
        elif left is not guard.left or right is not guard.right:
            result = AndGuard(left, right)
    elif isinstance(guard, OrGuard):
        left = simplify_guard(guard.left, memo)
        right = simplify_guard(guard.right, memo)
        if isinstance(left, TrueGuard) or isinstance(right, TrueGuard):
            result = G_TRUE
        elif left is right:
            result = left
        elif left is not guard.left or right is not guard.right:
            result = OrGuard(left, right)
    memo[guard] = result
    return result


@register_pass
class GuardSimplify(Pass):
    name = "guard-simplify"
    description = "boolean simplification of guards"

    def run(self, program: Program) -> None:
        memo: Dict[Guard, Guard] = {}
        for comp in program.components:
            for _, assign in comp.all_assignments():
                assign.guard = simplify_guard(assign.guard, memo)
