"""May-run-in-parallel analysis over the control program (Section 5.1).

Two schedule vertices *conflict* when the execution schedule may run them
at the same time: they appear under different children of some ``par``
block. The vertices are the groups and every ``invoke`` node, so a cell
invoked in one arm is as busy as one a group there uses. The resource
sharing pass uses the complement of this relation to reuse components.
"""

from __future__ import annotations

from typing import Hashable

from repro.analysis.coloring import ConflictGraph
from repro.ir.ast import Component
from repro.ir.control import Control, Enable, If, Invoke, Par, While


def _vertex(node: Control) -> Hashable:
    """The vertex ``node`` runs itself (an ``if``/``while`` runs its
    condition group), or ``None``."""
    if isinstance(node, Enable):
        return node.group
    if isinstance(node, (If, While)):
        return node.cond_group
    return node if isinstance(node, Invoke) else None


def parallel_conflicts(comp: Component) -> ConflictGraph:
    """The graph of schedule vertices that may run in parallel.

    Its names are the groups in definition order, then the invokes and any
    undefined group the control names (lint reports those; this analysis
    must not fail on them). In every ``par``, each arm's vertices conflict
    with those of the arms before it.
    """
    vertices = dict.fromkeys(comp.groups)
    vertices.update(dict.fromkeys(map(_vertex, comp.control.walk())))
    vertices.pop(None, None)
    graph = ConflictGraph(vertices)
    _conflicts_under(graph, comp.control)
    return graph


def _conflicts_under(graph: ConflictGraph, node: Control) -> int:
    """Add the conflicts of every ``par`` in ``node``; the mask of the
    vertices under it."""
    vertex = _vertex(node)
    below = graph.bit[vertex] if vertex is not None else 0
    for child in node.children():
        arm = _conflicts_under(graph, child)
        if isinstance(node, Par):
            graph.add_conflicts(arm, below)
        below |= arm
    return below
