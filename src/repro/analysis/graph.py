"""Generic graph algorithms shared by the simulator and the linter.

The levelized engine levelizes its port-level dependency graph to
schedule evaluation; the lint framework levelizes a *statically* extracted
combinational graph to find cycles without instantiating a simulator.
Both call :func:`levelize`, so they cannot disagree about what a cycle is.
It peels the graph in Kahn order, which proves most graphs acyclic in one
linear pass; only a graph with a cycle is condensed into its strongly
connected components by the iterative Tarjan of :func:`tarjan_scc`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def levelize(
    adj: Sequence[Sequence[int]],
) -> Tuple[List[int], List[int], Dict[int, List[int]], List[int]]:
    """The components of a graph given as adjacency lists, numbered in
    level order: ``(rank_of, heads, cycles, levels)``.

    ``rank_of[v]`` is the number of vertex ``v``'s component and
    ``heads[r]`` the least member of component ``r``, its only one unless
    the component is a genuine cycle (several members, or a self-loop).
    ``cycles`` maps each cyclic component's number to its sorted members,
    in the order Tarjan emits them (reverse topological), and ``levels``
    is each component's level: the length of the longest path of
    components reaching it. It never decreases with the number, and every
    edge between two components climbs at least one level, so no edge
    joins two components of one level.

    A Kahn peel, level by level, gives every vertex its level; when it
    orders every vertex the graph is acyclic, each vertex is a component
    of its own and they are numbered in ``(level, vertex)`` order.
    Otherwise Tarjan's condensation (:func:`tarjan_scc`) is levelized
    instead and numbered in ``(level, SCC id)`` order.
    """
    n = len(adj)
    indegree = [0] * n
    for successors in adj:
        for w in successors:
            indegree[w] += 1
    level = [v for v in range(n) if not indegree[v]]
    order: List[int] = []
    levels: List[int] = []
    depth = 0
    while level:
        order += level
        levels += [depth] * len(level)
        ready = []
        for v in level:
            for w in adj[v]:
                indegree[w] -= 1
                if not indegree[w]:
                    ready.append(w)
        ready.sort()
        level = ready
        depth += 1
    if len(order) < n:
        return _levelize_condensation(adj)
    rank_of = [0] * n
    for rank, v in enumerate(order):
        rank_of[v] = rank
    return rank_of, order, {}, levels


def _levelize_condensation(
    adj: Sequence[Sequence[int]],
) -> Tuple[List[int], List[int], Dict[int, List[int]], List[int]]:
    """:func:`levelize` for a graph with a cycle, over its Tarjan SCCs."""
    scc_of, sccs = tarjan_scc(adj)
    # Tarjan emits SCCs in reverse topological order; walk forward.
    levels = [0] * len(sccs)
    for scc_id in range(len(sccs) - 1, -1, -1):
        level = levels[scc_id] + 1
        for member in sccs[scc_id]:
            for succ in adj[member]:
                succ_scc = scc_of[succ]
                if succ_scc != scc_id and levels[succ_scc] < level:
                    levels[succ_scc] = level
    # ``(level, SCC id)`` order: a stable sort by level.
    order = sorted(range(len(sccs)), key=levels.__getitem__)
    rank = [0] * len(sccs)
    for position, scc in enumerate(order):
        rank[scc] = position
    cyclic = cyclic_sccs(adj, scc_of, sccs)
    return (
        [rank[scc] for scc in scc_of],
        [sccs[scc][0] for scc in order],
        {rank[scc]: members for scc, members in enumerate(sccs) if cyclic[scc]},
        [levels[scc] for scc in order],
    )


def tarjan_scc(adj: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]]]:
    """Strongly connected components of a graph given as adjacency lists.

    Returns ``(scc_of, sccs)`` where ``scc_of[v]`` is the component index
    of vertex ``v`` and ``sccs`` lists each component's members (sorted).
    Components are emitted in *reverse topological order*: every edge goes
    from a later component to an earlier one, so walking ``sccs`` backwards
    visits sources first. Iterative (explicit work stack), so graph depth
    is not bounded by the Python recursion limit.
    """
    n = len(adj)
    scc_of = [-1] * n
    sccs: List[List[int]] = []
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    counter = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # Iterative Tarjan: each frame is a vertex and the iterator over
        # its successors, resumed where the descent into a child left it.
        work = [(root, iter(adj[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
                work.pop()
                if low[v] == index_of[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc_of[w] = len(sccs)
                        component.append(w)
                        if w == v:
                            break
                    # Deterministic member order = vertex numbering order.
                    component.sort()
                    sccs.append(component)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]

    return scc_of, sccs


def cyclic_sccs(
    adj: Sequence[Sequence[int]],
    scc_of: Sequence[int],
    sccs: Sequence[Sequence[int]],
) -> List[bool]:
    """Which components are genuine cycles (size > 1, or a self-loop)."""
    return [
        len(members) > 1 or members[0] in adj[members[0]] for members in sccs
    ]
