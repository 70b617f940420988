"""Parallel control-flow graphs (pCFGs), after Srinivasan & Wolfe.

Most control constructs map to an ordinary CFG: ``seq`` chains, ``if``
forms a diamond, ``while`` a back edge. ``par`` blocks get a dedicated
*p-node* (paper Section 5.2) that recursively contains one sub-pCFG per
child — unlike an ``if``, *all* children execute, so writes inside any
child are visible after the block.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional

from repro.ir.ast import Component
from repro.ir.control import (
    Control,
    Empty,
    Enable,
    If,
    Invoke,
    Par,
    Seq,
    While,
)

_ids = itertools.count()


class PcfgNode:
    """A node in a pCFG.

    ``kind`` is one of ``"nop"`` (structural marker), ``"group"`` (a group
    enable or an if/while condition evaluation), ``"invoke"``, or
    ``"par"`` (a p-node holding child sub-graphs). A node holds no edges:
    its graph does (:class:`Pcfg`).
    """

    def __init__(
        self,
        kind: str,
        group: Optional[str] = None,
        invoke: Optional[Invoke] = None,
        children: Optional[List["Pcfg"]] = None,
    ):
        self.id = next(_ids)
        self.kind = kind
        self.group = group
        self.invoke = invoke
        self.children: List[Pcfg] = children or []

    def __repr__(self) -> str:
        label = self.group or self.kind
        return f"PcfgNode({self.id}: {label})"


#: Node id -> that node's neighbours in one graph.
Edges = Dict[int, List[PcfgNode]]


class Pcfg:
    """A single-entry, single-exit pCFG fragment.

    ``succs`` and ``preds`` map a node's id to its successors and
    predecessors; every fragment of one graph level shares them, and a
    p-node's children have their own. Edges link no node to another, so a
    graph holds no reference cycle and is freed by refcount.
    """

    def __init__(
        self, entry: PcfgNode, exit_: PcfgNode, nodes: List[PcfgNode], succs: Edges, preds: Edges
    ):
        self.entry = entry
        self.exit = exit_
        self.nodes = nodes
        self.succs = succs
        self.preds = preds

    def walk(self) -> Iterator[PcfgNode]:
        """All nodes in this graph, recursing into p-node children."""
        for node in self.nodes:
            yield node
            for child in node.children:
                yield from child.walk()


def build_pcfg(comp: Component) -> Pcfg:
    """Build the pCFG of a component's control program."""
    return _Level().build(comp.control)


class _Level:
    """Builds the fragments of one graph level over its shared edge maps."""

    def __init__(self):
        self.succs: Edges = {}
        self.preds: Edges = {}

    def link(self, node: PcfgNode, succ: PcfgNode) -> None:
        succs = self.succs.setdefault(node.id, [])
        if succ not in succs:
            succs.append(succ)
            self.preds.setdefault(succ.id, []).append(node)

    def graph(self, entry: PcfgNode, exit_: PcfgNode, nodes: List[PcfgNode]) -> Pcfg:
        return Pcfg(entry, exit_, nodes, self.succs, self.preds)

    def single(self, node: PcfgNode) -> Pcfg:
        return self.graph(node, node, [node])

    def build(self, node: Control) -> Pcfg:
        if isinstance(node, Empty):
            return self.single(PcfgNode("nop"))
        if isinstance(node, Enable):
            return self.single(PcfgNode("group", group=node.group))
        if isinstance(node, Invoke):
            return self.single(PcfgNode("invoke", invoke=node))
        if isinstance(node, Seq):
            if not node.stmts:
                return self.single(PcfgNode("nop"))
            graphs = [self.build(child) for child in node.stmts]
            for left, right in zip(graphs, graphs[1:]):
                self.link(left.exit, right.entry)
            nodes = [n for g in graphs for n in g.nodes]
            return self.graph(graphs[0].entry, graphs[-1].exit, nodes)
        if isinstance(node, Par):
            children = [_Level().build(child) for child in node.stmts]
            return self.single(PcfgNode("par", children=children))
        if isinstance(node, If):
            cond = PcfgNode("group", group=node.cond_group) if node.cond_group else PcfgNode("nop")
            join = PcfgNode("nop")
            nodes = [cond, join]
            for branch in (node.tbranch, node.fbranch):
                graph = self.build(branch)
                self.link(cond, graph.entry)
                self.link(graph.exit, join)
                nodes.extend(graph.nodes)
            return self.graph(cond, join, nodes)
        if isinstance(node, While):
            cond = PcfgNode("group", group=node.cond_group) if node.cond_group else PcfgNode("nop")
            exit_ = PcfgNode("nop")
            body = self.build(node.body)
            self.link(cond, body.entry)
            self.link(body.exit, cond)
            self.link(cond, exit_)
            return self.graph(cond, exit_, [cond, exit_] + body.nodes)
        raise TypeError(f"cannot build pCFG for control node {node!r}")
