"""Structural resource estimation — the Vivado-synthesis substitute.

Walks a (typically lowered) program and charges:

* per-cell primitive costs (:mod:`repro.stdlib.costs`), recursing into
  user-defined components,
* multiplexer costs for every port with more than one driver (sharing a
  component adds drivers to its input ports — the mechanism behind the
  paper's observation that sharing can *increase* LUT usage, Figure 9a),
* guard logic costs, counting each distinct guard node once (synthesis
  shares common subexpressions; guards are interned, so distinct
  structure is distinct identity).

Only relative numbers are meaningful; every figure in the paper is a
ratio, which this model preserves structurally.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.netlist import Netlists
from repro.ir.ast import Component, HolePort, PortRef, Program
from repro.ir.guards import CmpGuard, Guard, fold
from repro.stdlib.costs import Resources, guard_cost, mux_cost
from repro.stdlib.primitives import get_primitive, is_primitive


def _is_operator(guard: Guard, children: Tuple[bool, ...]) -> bool:
    """The :func:`fold` visit: is this node charged as guard logic?

    True and port guards are wires; a comparison has no guard children
    but costs a comparator-ish LUT blob.
    """
    return bool(children) or isinstance(guard, CmpGuard)


def component_resources(
    netlists: Netlists,
    comp: Component,
    _cache: Dict[str, Resources],
) -> Resources:
    """Resources of one component including its subcomponents; the
    components of one estimate share ``netlists``."""
    if comp.name in _cache:
        return _cache[comp.name]
    program = netlists.program
    total = Resources()
    net = netlists.of(comp)

    # 1. Cells.
    for cell in comp.cells.values():
        if is_primitive(cell.comp_name):
            total = total.add(get_primitive(cell.comp_name).cost(cell.args))
            continue
        sub = program.find_component(cell.comp_name)
        if sub is not None:
            total = total.add(component_resources(netlists, sub, _cache))
        # extern cells without bodies are not charged (black-box RTL).

    # 2. Multiplexing: every port with >1 driver pays (n-1) 2:1 muxes.
    drivers: Dict[PortRef, int] = {}
    for _, assign in comp.all_assignments():
        if isinstance(assign.dst, HolePort):
            continue
        drivers[assign.dst] = drivers.get(assign.dst, 0) + 1
    for dst, count in drivers.items():
        total.charge("mux", luts=mux_cost(net.width(dst) or 1, count))

    # 3. Guard logic, each distinct node once.
    operators: Dict[Guard, bool] = {}
    for _, assign in comp.all_assignments():
        fold(assign.guard, _is_operator, operators)
    total.charge("guards", luts=guard_cost(sum(operators.values())))

    _cache[comp.name] = total
    return total


def estimate_resources(program: Program, entrypoint: str = None) -> Resources:
    """Estimate resources of the design rooted at the entry component."""
    comp = program.get_component(entrypoint or program.entrypoint)
    return component_resources(Netlists(program), comp, {})


def count_register_cells(program: Program, entrypoint: str = None) -> int:
    """Number of ``std_reg`` instances in the design (Figure 9b metric)."""

    def count(comp: Component) -> int:
        total = 0
        for cell in comp.cells.values():
            if cell.comp_name == "std_reg":
                total += 1
                continue
            sub = program.find_component(cell.comp_name)
            if sub is not None:
                total += count(sub)
        return total

    return count(program.get_component(entrypoint or program.entrypoint))
