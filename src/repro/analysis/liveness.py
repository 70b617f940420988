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

The graph is stored as one int bitmask of neighbours per register (bit
``i`` is the ``i``-th register in sorted order), so a live set becomes a
clique with one ``|=`` per member instead of one insertion per pair.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.ir.ast import Component
from repro.analysis.pcfg import Pcfg, PcfgNode, build_pcfg
from repro.analysis.read_write import (
    AccessSets,
    continuous_registers,
    group_accesses,
    invoke_accesses,
    registers_of,
)


def _indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LivenessResult:
    """Per-node live-in/live-out sets plus the register conflict graph."""

    def __init__(self, registers: Iterable[str]) -> None:
        self.live_in: Dict[int, Set[str]] = {}
        self.live_out: Dict[int, Set[str]] = {}
        self._names: List[str] = sorted(registers)
        self._bit = {name: 1 << i for i, name in enumerate(self._names)}
        #: ``_adj[i]``: neighbours of register ``i``; may hold bit ``i``.
        self._adj: List[int] = [0] * len(self._names)

    def mask(self, registers: Iterable[str]) -> int:
        """The bitmask of a set of register names."""
        bit = self._bit
        return sum(bit[name] for name in registers)

    def add_clique(self, mask: int) -> None:
        """Make every pair of registers in ``mask`` conflict."""
        adj = self._adj
        for i in _indices(mask):
            adj[i] |= mask

    def add_conflicts(self, left: int, right: int) -> None:
        """Make every register in ``left`` conflict with every one in ``right``."""
        adj = self._adj
        for i in _indices(left):
            adj[i] |= right
        for i in _indices(right):
            adj[i] |= left

    def conflict_map(self) -> Dict[str, Set[str]]:
        """Adjacency sets, keyed only by registers that have a conflict."""
        names = self._names
        adj: Dict[str, Set[str]] = {}
        for i, mask in enumerate(self._adj):
            mask &= ~(1 << i)
            if mask:
                adj[names[i]] = {names[j] for j in _indices(mask)}
        return adj


class LivenessAnalysis:
    """Computes liveness and register interference for one component."""

    def __init__(self, comp: Component):
        self.comp = comp
        self.registers = registers_of(comp)
        self.pinned = continuous_registers(comp)
        self.graph = build_pcfg(comp)
        self._accesses: Dict[int, AccessSets] = {}
        self.result = LivenessResult(self.registers)
        self._run()

    # -- access sets ------------------------------------------------------
    def accesses(self, node: PcfgNode) -> AccessSets:
        if node.id not in self._accesses:
            if node.kind == "group" and node.group is not None:
                group = self.comp.get_group(node.group)
                sets = group_accesses(self.comp, group, self.registers)
            elif node.kind == "invoke" and node.invoke is not None:
                sets = invoke_accesses(node.invoke, self.registers)
            else:
                sets = AccessSets()
            self._accesses[node.id] = sets
        return self._accesses[node.id]

    # -- dataflow ------------------------------------------------------------
    def _run(self) -> None:
        changed = True
        while changed:
            changed = self._analyze(self.graph, exit_live=set())
        self._collect_conflicts(self.graph)

    def _analyze(self, graph: Pcfg, exit_live: Set[str]) -> bool:
        """One backward sweep; returns whether any live set changed,
        including those of nested ``par`` arms."""
        changed = False
        for node in reversed(graph.nodes):
            out = set(exit_live) if node is graph.exit else set()
            for succ in node.succs:
                out |= self.result.live_in.get(succ.id, set())
            if out != self.result.live_out.get(node.id, set()):
                self.result.live_out[node.id] = out
                changed = True
            # Paper rule: each par arm's exit live set is the p-node's
            # live-out. Arms iterate inside the outer fixpoint loop.
            for child in node.children:
                changed |= self._analyze(child, exit_live=out)
            live_in = self._transfer(node, out)
            if live_in != self.result.live_in.get(node.id, set()):
                self.result.live_in[node.id] = live_in
                changed = True
        return changed

    def _transfer(self, node: PcfgNode, live_out: Set[str]) -> Set[str]:
        if node.kind == "par":
            # The p-node's live-in joins the arms' entry live-ins with
            # registers that survive every arm.
            child_ins: Set[str] = set()
            killed_by_all: Set[str] = set(self.registers)
            for child in node.children:
                child_ins |= self.result.live_in.get(child.entry.id, set())
                killed_by_all &= self._must_writes(child)
            return child_ins | (live_out - killed_by_all)
        sets = self.accesses(node)
        return sets.reads | (live_out - sets.must_writes)

    def _must_writes(self, graph: Pcfg) -> Set[str]:
        """Registers certainly written somewhere along every path.

        Conservative: only counts nodes that dominate the exit trivially
        (straight-line members); a register written under a branch may not
        be written at all.
        """
        must: Set[str] = set()
        for node in graph.nodes:
            # A node with no alternative paths around it: in our builder,
            # straight-line chains are the common case; branch/loop bodies
            # hang off cond nodes which have multiple successors.
            if node.kind in ("group", "invoke") and len(node.preds) <= 1:
                only_path = all(len(p.succs) == 1 for p in node.preds)
                if only_path:
                    must |= self.accesses(node).must_writes
            if node.kind == "par":
                for child in node.children:
                    must |= self._must_writes(child)
        return must

    # -- conflicts ------------------------------------------------------------
    def _collect_conflicts(self, graph: Pcfg) -> None:
        result = self.result
        for node in graph.walk():
            out = result.mask(result.live_out.get(node.id, ()))
            result.add_conflicts(result.mask(self.accesses(node).may_writes), out)
            result.add_clique(result.mask(result.live_in.get(node.id, ())))
            if node.kind == "par":
                arms = [self._arm_masks(child) for child in node.children]
                for i, (_, written) in enumerate(arms):
                    siblings = 0
                    for j, (accessed, _) in enumerate(arms):
                        if j != i:
                            siblings |= accessed
                    result.add_conflicts(written, siblings)

    def _arm_masks(self, graph: Pcfg) -> Tuple[int, int]:
        """(accessed, written) register masks of one par arm."""
        accessed: Set[str] = set()
        written: Set[str] = set()
        for node in graph.walk():
            sets = self.accesses(node)
            accessed |= sets.accessed()
            written |= sets.may_writes
        return self.result.mask(accessed), self.result.mask(written)


def register_conflicts(comp: Component) -> Tuple[Dict[str, Set[str]], Set[str]]:
    """Convenience wrapper: (conflict adjacency, pinned registers)."""
    analysis = LivenessAnalysis(comp)
    return analysis.result.conflict_map(), analysis.pinned
