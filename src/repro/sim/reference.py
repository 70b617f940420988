"""The reference engine (``sweep``): nested instances swept to fixpoint.

A :class:`ReferenceInstance` builds each nested component as an instance
of its own, a child in the primitive protocol (``comb``/``tick``) of its
parent, over an array of its own. Each phase fires every node in build
order until no slot changes, each driver evaluating its whole guard over
the slot array on every sweep, and the clock edge ticks every stateful
child. It builds no guard nodes, banks, ranks or reader masks and keeps no
dirty mask: it takes only the template and node layer from
:mod:`repro.sim.model`, so it stays an independent oracle for the flat
engine's stamping, scheduling and shared guard logic.
``tests/test_engine_independence.py`` checks that by its names.
"""

import operator
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.analysis.netlist import Netlist
from repro.ir.ast import Component
from repro.ir.guards import Guard, TrueGuard
from repro.sim.model import (
    EngineInstance, SlotGuard, SlotGuardOps, _comparison, _compile_slot_guard, _ExecutorNode,
    _Template,
)

#: The reference's guard operators: a table of its own, not the guard
#: nodes' ``_GUARD_FNS``, so a change to the guard nodes' operators does
#: not reach the reference. The comparisons share :func:`_comparison`, and
#: the tree walk :func:`_compile_slot_guard`, with the flat engine.
_SLOT_GUARD_OPS: SlotGuardOps = {
    "!": lambda x: lambda v: not x(v),
    "&": lambda x, y: lambda v: x(v) and y(v),
    "|": lambda x, y: lambda v: x(v) or y(v),
    "==": _comparison(operator.eq),
    "!=": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    ">": _comparison(operator.gt),
    "<=": _comparison(operator.le),
    ">=": _comparison(operator.ge),
}


class _SweepTemplate(_Template):
    """A definition's template for the reference: every cell a child node,
    and each driver's guard compiled once over the slots here, from
    :data:`_SLOT_GUARD_OPS`, for every instance of the definition (each of
    which has base 0)."""

    def __init__(self, netlist: Netlist, templates: Dict[Netlist, _Template]):
        super().__init__(netlist, templates)
        memo: Dict[Guard, SlotGuard] = {}
        for _, drivers, _, _ in self.resolvers:
            for d in drivers:
                if not isinstance(d.assign.guard, TrueGuard):
                    d.guard = _compile_slot_guard(d.assign.guard, self.slots, _SLOT_GUARD_OPS, memo)


class ReferenceInstance(EngineInstance):
    """The reference engine's instance of a component, root or nested.

    It settles by sweeping every node to fixpoint (:meth:`settle`), and
    keeps the base's plain clock edge, which ticks every stateful child.
    """

    _template_class = _SweepTemplate

    def _nested(self, comp: Component, path: str, templates: dict) -> "ReferenceInstance":
        """A nested instance of ``comp``: an instance of its own."""
        return ReferenceInstance(self.program, comp, path, self.netlist.netlists, templates)

    @cached_property
    def _sweep_nodes(self) -> List[object]:
        """Every node but the executors, whose slots :meth:`settle` writes first."""
        return [n for n in self._nodes if not isinstance(n, _ExecutorNode)]

    @cached_property
    def _max_iters(self) -> int:
        return 8 * (len(self._sweep_nodes) + 8)

    def settle(self) -> None:
        """Write the executors' slots, then fire every node in build order
        until no slot changes."""
        for node in self._executor_nodes:
            node.sweep(self)
        for _ in range(self._max_iters):
            if not self._sweep():
                return
        self._diagnose_nonconvergence(self._max_iters)

    # -- the child protocol, as a nested instance ----------------------------
    def comb(self, ins: Sequence[int]) -> List[int]:
        self._apply_inputs(ins)
        self.settle()
        values = self._values
        return [values[s] for s in self.template.out_slots]

    def tick(self, ins: Sequence[int]) -> bool:
        self._apply_inputs(ins)
        self.settle()
        return self.step_edge()

    def _apply_inputs(self, ins: Sequence[int]) -> None:
        values = self._values
        for slot, value in zip(self.template.in_slots, ins):
            values[slot] = value

    def done_signature(self) -> Tuple:
        """The done nets of this instance's array, then each nested
        instance's."""
        own = self._done_values(self._values)
        if self._sub_instances:
            return own + tuple(child.done_signature() for child in self._sub_instances)
        return own
