"""The conflict graph and greedy coloring of both sharing passes
(Sections 5.1-5.2).

A :class:`ConflictGraph` gives each of its names one bit and keeps one int
neighbour mask per name, so a set of names is an int. Coloring is greedy
in a given order and draws colors from the names themselves: a color is a
*representative*, which maps to itself, so the result is a rename map.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List


class ConflictGraph:
    """An undirected graph over a fixed sequence of names; bit ``i`` of
    every mask is the ``i``-th name."""

    def __init__(self, names: Iterable[Hashable]) -> None:
        self.names: List[Hashable] = list(names)
        self.bit = {name: 1 << i for i, name in enumerate(self.names)}
        #: ``_adj[i]``: neighbours of name ``i``; may hold bit ``i``.
        self._adj = [0] * len(self.names)
        self._cliques = set()

    def mask(self, names: Iterable[Hashable]) -> int:
        """The mask of a set of names."""
        bit = self.bit
        return sum(bit[name] for name in names)

    def add_clique(self, mask: int) -> None:
        """Make every pair of names in ``mask`` conflict."""
        if mask in self._cliques:
            return
        self._cliques.add(mask)
        adj, rest = self._adj, mask
        while rest:
            low = rest & -rest
            adj[low.bit_length() - 1] |= mask
            rest ^= low

    def add_conflicts(self, left: int, right: int) -> None:
        """Make every name in ``left`` conflict with every one in ``right``."""
        adj = self._adj
        while left and right:
            low = left & -left
            i = low.bit_length() - 1
            # The graph is symmetric: only edges new to ``i`` need their
            # reverse half.
            new = right & ~adj[i]
            adj[i] |= right
            while new:
                other = new & -new
                adj[other.bit_length() - 1] |= low
                new ^= other
            left ^= low

    def neighbours(self, name: Hashable) -> int:
        """The mask of names conflicting with ``name``, without itself."""
        bit = self.bit[name]
        return self._adj[bit.bit_length() - 1] & ~bit


def greedy_coloring(
    graph: ConflictGraph, order: Iterable[Hashable]
) -> Dict[Hashable, Hashable]:
    """Map each name of ``order`` to a representative; neighbours differ.

    A name joins the first color (earliest representative) that holds none
    of its neighbours, else it founds a new color, so the result reuses the
    earliest compatible resource. Names outside ``order`` are ignored.
    """
    color_of: Dict[Hashable, Hashable] = {}
    representatives: List[Hashable] = []
    members: List[int] = []  # member mask of each color
    for name in order:
        neighbours = graph.neighbours(name)
        for k, colored in enumerate(members):
            if not colored & neighbours:
                members[k] = colored | graph.bit[name]
                color_of[name] = representatives[k]
                break
        else:
            representatives.append(name)
            members.append(graph.bit[name])
            color_of[name] = name
    return color_of
