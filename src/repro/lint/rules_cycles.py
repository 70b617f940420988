"""Static combinational-cycle detection (no simulator required).

Builds, per component, a port-level dependency graph from the same two
sources the levelized engine uses — :func:`static_drivers` for wires and
:func:`~repro.stdlib.behaviors.comb_paths` for the internals of primitive
and extern models — and condenses it with the shared Tarjan
implementation from :mod:`repro.analysis.graph`.
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

User-defined subcomponents contribute input→output edges computed by
memoized reachability over their own wires; those edges are never
definite (the subcomponent's activation state is unknown), so a cycle
through a subcomponent can only warn.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.graph import cyclic_sccs, tarjan_scc
from repro.ir.ast import Assignment, CellPort, Component, ConstPort, Program, ThisPort
from repro.ir.ports import PortRef
from repro.lint.context import ComponentView
from repro.lint.diagnostics import ERROR, WARNING, LintReport
from repro.lint.registry import LintRule, register_rule
from repro.sim.structural import static_drivers

#: (src_vertex, dst_vertex, gate_group_or_None, definite, representative)
Edge = Tuple[int, int, Optional[str], bool, Optional[Assignment]]


class _PortGraph:
    """Port-level combinational dependency graph for one component."""

    def __init__(self, builder: "_GraphBuilder", comp: Component):
        self.refs: List[PortRef] = []
        self._index: Dict[PortRef, int] = {}
        self.edges: List[Edge] = []
        self._build(builder, comp)

    def vertex(self, ref: PortRef) -> int:
        idx = self._index.get(ref)
        if idx is None:
            idx = len(self.refs)
            self._index[ref] = idx
            self.refs.append(ref)
        return idx

    def _build(self, builder: "_GraphBuilder", comp: Component) -> None:
        for gate, assign in static_drivers(comp):
            dst = self.vertex(assign.dst)
            definite = assign.is_unconditional()
            if not isinstance(assign.src, ConstPort):
                self.edges.append(
                    (self.vertex(assign.src), dst, gate, definite, assign)
                )
            for ref in assign.guard.ports():
                # A guard port feeds the driver's select combinationally,
                # but whether the loop closes depends on the guard's value:
                # never definite.
                if not isinstance(ref, ConstPort):
                    self.edges.append((self.vertex(ref), dst, gate, False, assign))

        for cell in comp.cells.values():
            for in_port, out_port, definite in builder.cell_paths(cell):
                self.edges.append(
                    (
                        self.vertex(CellPort(cell.name, in_port)),
                        self.vertex(CellPort(cell.name, out_port)),
                        None,
                        definite,
                        None,
                    )
                )

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in self.refs]
        for src, dst, _, _, _ in self.edges:
            adj[src].append(dst)
        return adj


class _GraphBuilder:
    """Shared caches for one lint invocation over one program."""

    def __init__(self, program: Program):
        self.program = program
        self._pairs: Dict[str, Dict[str, Set[str]]] = {}
        self._visiting: Set[str] = set()

    def cell_paths(self, cell) -> List[Tuple[str, str, bool]]:
        """Combinational input→output paths through one cell instance."""
        name = cell.comp_name
        if self.program.has_component(name) and not self.program.is_extern(name):
            paths = []
            for in_port, outs in self.comp_pairs(name).items():
                for out_port in sorted(outs):
                    paths.append((in_port, out_port, False))
            return paths
        return self._model_paths(cell)

    def _model_paths(self, cell) -> List[Tuple[str, str, bool]]:
        from repro.stdlib.behaviors import comb_paths
        from repro.stdlib.primitives import make_model

        try:
            model = make_model(cell.comp_name, cell.args)
            sig = self.program.cell_signature(cell)
        except Exception:
            return []  # unresolvable cell: unknown-name reports it
        # Paths a model did not declare are assumed, so they count only
        # at warning strength.
        paths, declared = comb_paths(model, sig)
        return [(i, o, declared) for i, o in paths]

    def comp_pairs(self, comp_name: str) -> Dict[str, Set[str]]:
        """input port name → output port names reachable combinationally."""
        cached = self._pairs.get(comp_name)
        if cached is not None:
            return cached
        if comp_name in self._visiting:
            return {}  # recursive instantiation: assume registered boundary
        self._visiting.add(comp_name)
        try:
            comp = self.program.get_component(comp_name)
            graph = _PortGraph(self, comp)
            adj = graph.adjacency()
            out_names = {p.name for p in comp.outputs}
            pairs: Dict[str, Set[str]] = {}
            for port in comp.inputs:
                start = graph._index.get(ThisPort(port.name))
                if start is None:
                    continue
                reached = self._bfs(adj, start)
                outs = {
                    graph.refs[v].port
                    for v in reached
                    if isinstance(graph.refs[v], ThisPort)
                    and graph.refs[v].port in out_names
                }
                if outs:
                    pairs[port.name] = outs
        finally:
            self._visiting.discard(comp_name)
        self._pairs[comp_name] = pairs
        return pairs

    @staticmethod
    def _bfs(adj: List[List[int]], start: int) -> Set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen


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

    def check_component(self, view: ComponentView, report: LintReport) -> None:
        comp = view.comp
        graph = _PortGraph(_GraphBuilder(view.program), comp)
        adj = graph.adjacency()
        scc_of, sccs = tarjan_scc(adj)
        cyclic = cyclic_sccs(adj, scc_of, sccs)

        for scc_index, members in enumerate(sccs):
            if not cyclic[scc_index]:
                continue
            member_set = set(members)
            scc_edges = [
                e for e in graph.edges if e[0] in member_set and e[1] in member_set
            ]
            self._report_scc(view, report, graph, members, scc_edges)

    def _report_scc(
        self,
        view: ComponentView,
        report: LintReport,
        graph: _PortGraph,
        members: List[int],
        scc_edges: List[Edge],
    ) -> None:
        comp = view.comp
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

        ports = ", ".join(graph.refs[v].to_string() for v in members[:6])
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
