"""Structural analysis of the netlist both settle strategies evaluate.

Two jobs live here:

* :func:`static_drivers` enumerates every assignment a component can ever
  fire, tagged with its *gate group* (the group whose ``go`` hole must be
  high for the assignment to be live; ``None`` for continuous assignments
  and a group's own ``done`` write). The simulation instance and the
  lint cycle rules build from this one enumeration, so they cannot
  disagree about which assignments exist.
* :func:`driver_races` pairs up unconditional drivers of one port in one
  scope. :func:`check_structural_drivers` rejects the first definite race
  at instance-construction time, and lint's ``multiple-drivers`` and
  ``duplicate-assignment`` rules report every pair from the same result.
  The runtime conflict check compares *values*, so two always-active
  drivers of the same port would be silently accepted whenever their
  values happened to agree (and which one won would depend on collection
  order) — an illegal netlist in RTL either way. The instance refuses to
  construct such a design.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MultipleDriverError
from repro.ir.ast import Assignment, Component, HolePort, PortRef
from repro.ir.ports import DONE

#: The gate tag for assignments that are live whenever the component runs.
ALWAYS = None


def static_drivers(
    comp: Component,
) -> Iterator[Tuple[Optional[str], Assignment]]:
    """Every wire assignment with its gate group (``None`` = ungated).

    Mirrors the GoInsertion convention: an assignment inside a group is
    gated by that group's ``go`` hole *except* the group's own ``done``
    write, which must stay live so the executor can observe completion.
    Invoke-synthesized assignments are not included — they exist only in
    the control executor, not in the component's wires.
    """
    for group in comp.groups.values():
        for assign in group.assignments:
            is_own_done = (
                isinstance(assign.dst, HolePort)
                and assign.dst.group == group.name
                and assign.dst.port == DONE
            )
            yield (None if is_own_done else group.name, assign)
    for assign in comp.continuous:
        yield (None, assign)


#: One pair of unconditional drivers of a port in one scope:
#: ``(gate, first assignment, later assignment)``.
DriverPair = Tuple[Optional[str], Assignment, Assignment]
#: ``(conflicts, duplicates)`` as :func:`driver_races` returns them.
DriverRaces = Tuple[List[DriverPair], List[DriverPair]]


def driver_races(comp: Component) -> DriverRaces:
    """``(conflicts, duplicates)``: unconditional drivers sharing a scope.

    A *definite* race is two unconditional (true-guard) assignments to the
    same destination within the same activation scope — both continuous /
    ungated, or both in the same group — with different sources. Such a
    pair drives the port from two places on every cycle the scope is
    active; hardware would short two nets together. Identical duplicate
    assignments (same source) cannot disagree and are listed separately.
    Each later driver is paired with the scope's first one, in
    :func:`static_drivers` order.

    Guarded multiple drivers are still checked dynamically at runtime,
    because guard disjointness is data-dependent.
    """
    first: Dict[Tuple[Optional[str], PortRef], Assignment] = {}
    conflicts: List[DriverPair] = []
    duplicates: List[DriverPair] = []
    for gate, assign in static_drivers(comp):
        if not assign.is_unconditional():
            continue
        key = (gate, assign.dst)
        prev = first.get(key)
        if prev is None:
            first[key] = assign
        elif prev.src == assign.src:
            duplicates.append((gate, prev, assign))
        else:
            conflicts.append((gate, prev, assign))
    return conflicts, duplicates


def check_structural_drivers(comp: Component, path: str = "main") -> None:
    """Reject the first definite race :func:`driver_races` finds."""
    conflicts, _ = driver_races(comp)
    if conflicts:
        gate, prev, assign = conflicts[0]
        where = f"group {gate!r}" if gate else "always-active scope"
        raise MultipleDriverError(
            f"{path}: port {assign.dst.to_string()} has two unconditional "
            f"drivers in the same {where}:\n"
            f"  {prev.to_string()}\n  {assign.to_string()}\n"
            f"(a definite multiple-driver race; the winner would depend on "
            f"assignment order)"
        )
