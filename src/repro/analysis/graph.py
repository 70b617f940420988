"""Generic graph algorithms shared by the simulator and the linter.

The levelized engine condenses its port-level dependency graph into
strongly connected components to schedule evaluation; the lint framework
condenses a *statically* extracted combinational graph to find cycles
without instantiating a simulator. Both use the same iterative Tarjan
implementation so they cannot disagree about what a cycle is.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


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
