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

from typing import Dict, Iterable, Set, Tuple

from repro.analysis.netlist import Netlists
from repro.ir.ast import Assignment, Component, HolePort, PortRef, Program
from repro.ir.guards import (
    AndGuard,
    CmpGuard,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
    TrueGuard,
)
from repro.stdlib.costs import Resources, guard_cost, mux_cost
from repro.stdlib.primitives import get_primitive, is_primitive


def _collect_guard_nodes(guard: Guard, seen: Set[Guard]) -> None:
    """Add each operator node (not leaves) to ``seen``, once per node."""
    if isinstance(guard, (TrueGuard, PortGuard)):
        return
    if guard in seen:
        return
    seen.add(guard)
    if isinstance(guard, NotGuard):
        _collect_guard_nodes(guard.inner, seen)
    elif isinstance(guard, (AndGuard, OrGuard)):
        _collect_guard_nodes(guard.left, seen)
        _collect_guard_nodes(guard.right, seen)
    # CmpGuard has no guard children but costs a comparator-ish LUT blob,
    # which the single node in `seen` accounts for.


def component_resources(
    program: Program,
    comp: Component,
    _cache: Dict[str, Resources],
) -> Resources:
    """Resources of one component including its subcomponents."""
    if comp.name in _cache:
        return _cache[comp.name]
    total = Resources()
    net = Netlists(program).of(comp)

    # 1. Cells.
    for cell in comp.cells.values():
        if is_primitive(cell.comp_name):
            total = total.add(get_primitive(cell.comp_name).cost(cell.args))
        elif program.has_component(cell.comp_name):
            sub = program.get_component(cell.comp_name)
            total = total.add(component_resources(program, sub, _cache))
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
    guard_nodes: Set[Guard] = set()
    for _, assign in comp.all_assignments():
        _collect_guard_nodes(assign.guard, guard_nodes)
    total.charge("guards", luts=guard_cost(len(guard_nodes)))

    _cache[comp.name] = total
    return total


def estimate_resources(program: Program, entrypoint: str = None) -> Resources:
    """Estimate resources of the design rooted at the entry component."""
    comp = program.get_component(entrypoint or program.entrypoint)
    return component_resources(program, comp, {})


def count_register_cells(program: Program, entrypoint: str = None) -> int:
    """Number of ``std_reg`` instances in the design (Figure 9b metric)."""
    comp = program.get_component(entrypoint or program.entrypoint)
    count = 0
    for cell in comp.cells.values():
        if cell.comp_name == "std_reg":
            count += 1
        elif program.has_component(cell.comp_name):
            count += count_register_cells(program, cell.comp_name)
    return count
