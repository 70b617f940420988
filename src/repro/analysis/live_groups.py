"""Which groups a component's control program can reach.

A group is live when the control tree enables it, uses it as an
``if``/``while`` condition, or a live group's assignments reference it
through a go/done hole (compilation groups reference their children this
way). Dead-group removal drops the rest; the linter warns about them.
"""

from __future__ import annotations

from typing import Set

from repro.ir.ast import Component
from repro.ir.ports import HolePort


def live_group_names(comp: Component) -> Set[str]:
    """Names of the groups reachable from ``comp``'s control tree."""
    live: Set[str] = set()
    worklist = list(comp.control.enabled_groups())
    while worklist:
        name = worklist.pop()
        if name in live or name not in comp.groups:
            continue
        live.add(name)
        for assign in comp.groups[name].assignments:
            for ref in assign.ports():
                if isinstance(ref, HolePort):
                    worklist.append(ref.group)
    return live
