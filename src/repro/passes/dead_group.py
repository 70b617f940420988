"""DeadGroupRemoval: delete groups the control program never uses.

A group is dead when it is neither enabled, used as an ``if``/``while``
condition, nor referenced from another group's assignments (compilation
groups reference children through their go/done holes); see
:func:`repro.analysis.live_groups.live_group_names`.
"""

from __future__ import annotations

from repro.analysis.live_groups import live_group_names
from repro.ir.ast import Component, Program
from repro.passes.base import Pass, register_pass


@register_pass
class DeadGroupRemoval(Pass):
    name = "dead-group-removal"
    description = "remove groups unreachable from the control program"

    def run_component(self, program: Program, comp: Component) -> None:
        live = live_group_names(comp)
        for name in [n for n in comp.groups if n not in live]:
            comp.remove_group(name)
