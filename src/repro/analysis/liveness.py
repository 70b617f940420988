"""Live-range analysis over pCFGs (paper Section 5.2).

A standard backward dataflow — ``live_in = reads ∪ (live_out −
must_writes)`` — with the paper's special handling of p-nodes: each child
sub-graph is analyzed with its exit live set equal to the live-out of the
whole p-node, and the p-node's live-in joins the children's entry live-ins
with whatever survives every child's kills.

The result feeds an interference (conflict) graph over registers:

* a register written at a node conflicts with everything live after it,
* all registers simultaneously live into a node conflict pairwise,
* registers *written* in one arm of a ``par`` conflict with registers
  *accessed* in any sibling arm (arms run concurrently, so a merged
  register would be clobbered mid-flight).

The graph is a :class:`~repro.analysis.coloring.ConflictGraph` over the
registers in sorted order, and the dataflow runs on its int masks end to
end: every node's access sets become masks once, and a live set is a mask,
so a clique is one ``|=`` per member.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.ast import Component
from repro.analysis.coloring import ConflictGraph
from repro.analysis.pcfg import Pcfg, PcfgNode, build_pcfg
from repro.analysis.read_write import (
    AccessSets,
    continuous_registers,
    group_accesses,
    invoke_accesses,
    registers_of,
)


class LivenessAnalysis:
    """Computes liveness and register interference for one component.

    ``live_in``/``live_out`` map pCFG node ids to register masks of the
    ``conflicts`` graph; a missing id is the empty set.
    """

    def __init__(self, comp: Component):
        self.comp = comp
        self.registers = registers_of(comp)
        self.pinned = continuous_registers(comp)
        self.graph = build_pcfg(comp)
        self.conflicts = ConflictGraph(sorted(self.registers))
        self.live_in: Dict[int, int] = {}
        self.live_out: Dict[int, int] = {}
        #: node id -> (reads, may-writes, kills). A p-node kills what
        #: every arm must write.
        self._masks: Dict[int, Tuple[int, int, int]] = {}
        self._must: Dict[int, int] = {}  # id(sub-pCFG) -> _must_writes
        nodes = list(self.graph.walk())
        mask = self.conflicts.mask
        for node in nodes:
            sets = self.accesses(node)
            self._masks[node.id] = tuple(
                map(mask, (sets.reads, sets.may_writes, sets.must_writes))
            )
        for node in nodes:
            if node.kind == "par":
                kills = (1 << len(self.registers)) - 1
                for child in node.children:
                    kills &= self._must_writes(child)
                self._masks[node.id] = (0, 0, kills)
        while self._analyze(self.graph, exit_live=0):
            pass
        self._collect_conflicts(nodes)

    def accesses(self, node: PcfgNode) -> AccessSets:
        """The register accesses of one node (empty for p-nodes and nops)."""
        if node.kind == "group" and node.group is not None:
            group = self.comp.get_group(node.group)
            return group_accesses(self.comp, group, self.registers)
        if node.kind == "invoke" and node.invoke is not None:
            return invoke_accesses(node.invoke, self.registers)
        return AccessSets()

    # -- dataflow ------------------------------------------------------------
    def _analyze(self, graph: Pcfg, exit_live: int) -> bool:
        """One backward sweep; returns whether any live set changed,
        including those of nested ``par`` arms."""
        live_in, live_out = self.live_in, self.live_out
        succs = graph.succs
        changed = False
        for node in reversed(graph.nodes):
            out = exit_live if node is graph.exit else 0
            for succ in succs.get(node.id, ()):
                out |= live_in.get(succ.id, 0)
            if out != live_out.get(node.id, 0):
                live_out[node.id] = out
                changed = True
            reads, _, kills = self._masks[node.id]
            live = reads | (out & ~kills)
            # Paper rule: each par arm's exit live set is the p-node's
            # live-out; the p-node's live-in adds the arms' entry live-ins.
            # Arms iterate inside the outer fixpoint loop.
            for child in node.children:
                changed |= self._analyze(child, exit_live=out)
                live |= live_in.get(child.entry.id, 0)
            if live != live_in.get(node.id, 0):
                live_in[node.id] = live
                changed = True
        return changed

    def _must_writes(self, graph: Pcfg) -> int:
        """Registers certainly written somewhere along every path.

        Conservative: only counts nodes that dominate the exit trivially
        (straight-line members: branch/loop bodies hang off cond nodes,
        which have several successors); a register written under a branch
        may not be written at all.
        """
        if id(graph) not in self._must:
            must = 0
            succs, preds = graph.succs, graph.preds
            for node in graph.nodes:
                into = preds.get(node.id, ())
                if node.kind in ("group", "invoke") and len(into) <= 1:
                    if all(len(succs[p.id]) == 1 for p in into):
                        must |= self._masks[node.id][2]
                for child in node.children:
                    must |= self._must_writes(child)
            self._must[id(graph)] = must
        return self._must[id(graph)]

    # -- conflicts ------------------------------------------------------------
    def _collect_conflicts(self, nodes: List[PcfgNode]) -> None:
        conflicts = self.conflicts
        for node in nodes:
            live_out = self.live_out.get(node.id, 0)
            conflicts.add_conflicts(self._masks[node.id][1], live_out)
            conflicts.add_clique(self.live_in.get(node.id, 0))
            # Each par arm against the arms before it, both directions.
            accessed_before = written_before = 0
            for child in node.children:
                accessed = written = 0
                for inner in child.walk():
                    reads, may_writes, _ = self._masks[inner.id]
                    accessed |= reads | may_writes
                    written |= may_writes
                conflicts.add_conflicts(written, accessed_before)
                conflicts.add_conflicts(accessed, written_before)
                accessed_before |= accessed
                written_before |= written
