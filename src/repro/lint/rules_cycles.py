"""Static combinational-cycle detection (no simulator required).

Reads the port-level combinational edges of the component's
:class:`~repro.analysis.netlist.Netlist`, built from the same two sources
the engines use (its drivers for wires, and
:func:`~repro.stdlib.behaviors.comb_paths` for the internals of primitive
and extern models), and their cyclic SCCs, found by the engine's own
:func:`~repro.analysis.graph.levelize`: a Kahn peel proves most
components acyclic, and only a graph with a cycle is condensed by the
shared Tarjan (:func:`~repro.analysis.graph.tarjan_scc`), which also
decides whether an activation scope's part of a cycle is one.
A cyclic SCC becomes:

* ``comb-cycle`` (error) when some single activation scope (continuous,
  or one group plus the continuous scope) contains a cycle made entirely
  of *definite* edges: unconditional assignments and primitive
  combinational dependencies. Such a design oscillates whenever the scope
  is active — both simulation engines reject it with
  ``CombinationalLoopError``.
* ``comb-cycle-maybe`` (warning) otherwise: the cycle needs particular
  guard values, invoke phases, or two groups running in ``par``, which
  static analysis cannot rule in or out.

User-defined subcomponents contribute the input→output pairs of their own
definition's netlist; those edges are never definite (the subcomponent's
activation state is unknown), so a cycle through a subcomponent can only
warn.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.graph import cyclic_sccs, tarjan_scc
from repro.analysis.netlist import Edge, Netlist
from repro.lint.diagnostics import ERROR, WARNING, LintReport
from repro.lint.registry import LintRule, register_rule


def _subgraph_cyclic(vertices: List[int], edges: List[Tuple[int, int]]) -> bool:
    index = {v: i for i, v in enumerate(vertices)}
    adj: List[List[int]] = [[] for _ in vertices]
    for src, dst in edges:
        if src in index and dst in index:
            adj[index[src]].append(index[dst])
    scc_of, sccs = tarjan_scc(adj)
    return any(cyclic_sccs(adj, scc_of, sccs))


@register_rule
class CombCycleRule(LintRule):
    id = "comb-cycle"
    ids = ("comb-cycle", "comb-cycle-maybe")
    severity = ERROR
    severities = {"comb-cycle-maybe": WARNING}
    description = "a combinational feedback loop (definite, or guard-dependent)"

    def check_component(self, net: Netlist, report: LintReport) -> None:
        for members, scc_edges in net.cycles:
            self._report_scc(net, report, members, scc_edges)

    def _report_scc(
        self,
        net: Netlist,
        report: LintReport,
        members: List[int],
        scc_edges: List[Edge],
    ) -> None:
        comp = net.comp
        gates = sorted({e[2] for e in scc_edges if e[2] is not None})
        found_definite = False
        definite_scope: Optional[str] = None
        possible = False
        for scope in [None] + gates:
            in_scope = [e for e in scc_edges if e[2] is None or e[2] == scope]
            definite = [(e[0], e[1]) for e in in_scope if e[3]]
            if _subgraph_cyclic(members, definite):
                found_definite = True
                definite_scope = scope
                break
            if _subgraph_cyclic(members, [(e[0], e[1]) for e in in_scope]):
                possible = True

        ports = ", ".join(net.refs[v].to_string() for v in members[:6])
        if len(members) > 6:
            ports += f", … ({len(members)} ports)"
        span = next((e[4].span for e in scc_edges if e[4] is not None), None)

        if found_definite:
            where = (
                f"group {definite_scope!r}"
                if definite_scope
                else "the always-active scope"
            )
            report.add(
                self.diag(
                    f"combinational cycle through {ports} closes "
                    f"unconditionally in {where}; this design oscillates "
                    f"(both simulators reject it)",
                    component=comp.name,
                    group=definite_scope,
                    span=span,
                    rule="comb-cycle",
                )
            )
        else:
            detail = (
                "depends on guard values or invoke phases"
                if possible
                else "needs several groups active at once (e.g. under par)"
            )
            report.add(
                self.diag(
                    f"possible combinational cycle through {ports}; "
                    f"whether it closes {detail}",
                    component=comp.name,
                    span=span,
                    rule="comb-cycle-maybe",
                    severity=WARNING,
                )
            )
