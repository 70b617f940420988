"""One netlist per component definition: the static facts its readers share.

Validation, lint and the engine build each used to work out the same facts
about a component definition. A :class:`Netlist` works them out once,
tolerantly (what does not resolve is recorded, never raised):

* the port table: each port reference's :class:`PortDef`, or why it does
  not resolve (:class:`Unresolved`); each cell's signature, or the error
  resolving it raised, which the engine raises again;
* the drivers with their gate groups (:func:`static_drivers`), and the
  driver races: unconditional drivers of one port in one scope;
* the port-level combinational edges and their cyclic SCCs;
* the input→output pairs: :attr:`Netlist.pairs` over those edges, which a
  parent's lint takes for a cell of this definition, and
  :attr:`Netlist.comb_input_deps`, on which the ``sweep`` engine makes a
  nested instance's child node depend (``levelized`` stamps nested
  instances into one netlist and needs no summary of them).

:class:`Netlists` holds the netlists of one call (one ``validate_program``,
one ``lint_program`` or one testbench build) and builds each definition's
on first use. It also keeps the facts of each distinct ``(comp_name,
args)`` (:meth:`Netlists.cell_facts`), so the cells of one kind share one
signature and one model query. Passes edit components in place, so none outlives its
call.
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter
from functools import cached_property
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set, Tuple,
    TypeVar, Union,
)

from repro.analysis.graph import levelize
from repro.errors import CalyxError
from repro.ir.ast import (
    Assignment, Cell, CellPort, Component, ConstPort, HolePort, PortRef, Program, ThisPort
)
from repro.ir.control import Invoke
from repro.ir.guards import Guard
from repro.ir.ports import DONE, GO
from repro.ir.types import Direction, PortDef
from repro.stdlib.behaviors import comb_paths, port_names
from repro.stdlib.primitives import make_model

#: One wire assignment and its gate group (``None`` = ungated).
Driver = Tuple[Optional[str], Assignment]
#: Unconditional drivers of one port in one scope: ``(gate, first, later)``.
DriverPair = Tuple[Optional[str], Assignment, Assignment]
#: ``(src_vertex, dst_vertex, gate_group_or_None, definite, representative)``
Edge = Tuple[int, int, Optional[str], bool, Optional[Assignment]]
#: ``(input port, output port, definite)`` through one cell.
CellPath = Tuple[str, str, bool]
T = TypeVar("T")


class Unresolved(NamedTuple):
    """Why a port reference does not resolve, and the cell it blames.

    ``message`` is ``None`` for a port of a cell whose instantiation
    fails: the cell's own failure is the one reason reported.
    """

    message: Optional[str]
    cell: Optional[str] = None


def static_drivers(comp: Component) -> Iterator[Driver]:
    """Every wire assignment with its gate group (``None`` = ungated).

    Mirrors the GoInsertion convention: an assignment inside a group is
    gated by that group's ``go`` hole *except* the group's own ``done``
    write, which must stay live so the executor can observe completion.
    Invoke-synthesized assignments are not included: they exist only in
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


def _reached(start: T, successors: Callable[[T], Iterable[T]]) -> Set[T]:
    """Every vertex reachable from ``start``, itself included."""
    seen = {start}
    frontier = [start]
    while frontier:
        for succ in successors(frontier.pop()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


class CellFacts:
    """What every cell of one ``(comp_name, args)`` shares, by port name.

    ``ins`` and ``outs`` are the signature's port names in protocol
    order, ``deps`` the inputs on some combinational path to an output
    and ``registered`` the outputs on none. A primitive or extern cell is
    simulated by a model: ``paths`` are its combinational paths, definite
    if the model declares them. A cell of a user definition takes
    ``deps`` from the definition's :attr:`Netlist.comb_input_deps`, has
    ``paths`` ``None`` and nothing registered.
    """

    __slots__ = ("ins", "outs", "paths", "deps", "registered")

    def __init__(
        self,
        ins: List[str],
        outs: List[str],
        paths: Optional[List[CellPath]],
        deps: FrozenSet[str],
        registered: FrozenSet[str],
    ):
        self.ins = ins
        self.outs = outs
        self.paths = paths
        self.deps = deps
        self.registered = registered


class Netlists:
    """The netlists of one call, one per component definition, and the
    facts of each distinct cell kind, so each signature is resolved and
    each model instantiated once per call."""

    def __init__(self, program: Program):
        self.program = program
        # Weak: a netlist is held by its readers and by the netlists of the
        # definitions instantiating it, never by the table, so a call's
        # netlists form no reference cycle and are freed when it returns.
        self._built: "weakref.WeakValueDictionary[int, Netlist]" = weakref.WeakValueDictionary()
        # Names only, no netlist: a cell kind's facts hold no reference back.
        self._cells: Dict[Tuple[str, tuple], CellFacts] = {}

    def of(self, comp: Component) -> "Netlist":
        """``comp``'s netlist, built on first use."""
        netlist = self._built.get(id(comp))
        if netlist is None:
            netlist = self._built[id(comp)] = Netlist(self, comp)
        return netlist

    def cell_facts(self, cell: Cell) -> CellFacts:
        """The facts of ``cell``'s ``(comp_name, args)``, raising what
        resolving its signature or instantiating its model raises."""
        key = (cell.comp_name, cell.args)
        facts = self._cells.get(key)
        if facts is None:
            program = self.program
            sig = program.cell_signature(cell)
            ins, outs = port_names(sig)
            comp = program.find_component(cell.comp_name)
            if comp is None or program.is_extern(cell.comp_name):
                pairs, declared = comb_paths(make_model(cell.comp_name, cell.args), sig)
                reached = {o for _, o in pairs}
                facts = CellFacts(
                    ins,
                    outs,
                    [(i, o, declared) for i, o in pairs],
                    frozenset(i for i, _ in pairs),
                    frozenset(o for o in outs if o not in reached),
                )
            else:
                deps = frozenset(self.of(comp).comb_input_deps)
                facts = CellFacts(ins, outs, None, deps, frozenset())
            self._cells[key] = facts
        return facts


class Netlist:
    """The static facts of one component definition (see the module doc)."""

    def __init__(self, netlists: Netlists, comp: Component):
        self.netlists = netlists
        self.program = netlists.program
        self.comp = comp
        #: The component's own ports; the first declaration wins.
        self.signature: Dict[str, PortDef] = {}
        for port in itertools.chain(comp.inputs, comp.outputs):
            self.signature.setdefault(port.name, port)
        self._ports: Dict[PortRef, Union[PortDef, Unresolved]] = {}
        self._cells: Dict[str, Union[Mapping[str, PortDef], Exception]] = {}
        self._definitions: Dict[str, Optional[Netlist]] = {}
        self.drivers: List[Driver] = list(static_drivers(comp))
        # Each later unconditional driver of a port is paired with its
        # scope's first: a conflict when the sources differ, else a duplicate.
        self.conflicts: List[DriverPair] = []
        self.duplicates: List[DriverPair] = []
        first: Dict[Tuple[Optional[str], PortRef], Assignment] = {}
        for gate, assign in self.drivers:
            if not assign.is_unconditional():
                continue
            prev = first.get((gate, assign.dst))
            if prev is None:
                first[(gate, assign.dst)] = assign
            else:
                races = self.duplicates if prev.src == assign.src else self.conflicts
                races.append((gate, prev, assign))
        #: The control tree's nodes, in walk order.
        self.control = list(comp.control.walk())
        self._building_edges = False
        self._pairs: Optional[Dict[str, Set[str]]] = None

    # -- the port table ----------------------------------------------------
    def duplicate_ports(self) -> Dict[str, int]:
        """Port names declared more than once, with their counts."""
        counts = Counter(p.name for p in itertools.chain(self.comp.inputs, self.comp.outputs))
        return {name: n for name, n in counts.items() if n > 1}

    def _cell(self, name: str) -> Union[Mapping[str, PortDef], Exception]:
        entry = self._cells.get(name)
        if entry is None:
            try:
                entry = self.program.cell_signature(self.comp.cells[name])
            except Exception as exc:  # recorded; readers report or re-raise it
                # Without its traceback, whose frame would refer back here.
                entry = exc.with_traceback(None)
            self._cells[name] = entry
        return entry

    def cell_signature(self, name: str) -> Optional[Mapping[str, PortDef]]:
        """A cell's signature, or ``None`` if it cannot resolve."""
        entry = self._cell(name)
        return None if isinstance(entry, Exception) else entry

    def cell_failure(self, name: str) -> Optional[str]:
        """Why a cell's signature does not resolve; ``None`` if it does."""
        entry = self._cell(name)
        if not isinstance(entry, Exception):
            return None
        if isinstance(entry, CalyxError):
            return str(entry)
        # Malformed primitive arguments and the like.
        cell = self.comp.cells[name]
        return f"{cell.comp_name}({', '.join(map(str, cell.args))}): {entry}"

    def port(self, ref: Union[ThisPort, CellPort]) -> Union[PortDef, Unresolved]:
        """The port table's entry for a component or cell port."""
        entry = self._ports.get(ref)
        if entry is None:
            entry = self._ports[ref] = self._resolve_port(ref)
        return entry

    def _resolve_port(self, ref: Union[ThisPort, CellPort]) -> Union[PortDef, Unresolved]:
        if isinstance(ref, ThisPort):
            port = self.signature.get(ref.port)
            if port is None:
                return Unresolved(f"component {self.comp.name!r} has no port {ref.port!r}")
            return port
        cell = self.comp.cells.get(ref.cell)
        if cell is None:
            return Unresolved(f"{ref.to_string()} names an undefined cell {ref.cell!r}")
        sig = self.cell_signature(ref.cell)
        if sig is None:
            return Unresolved(None, ref.cell)
        port = sig.get(ref.port)
        if port is None:
            return Unresolved(
                f"cell {ref.cell!r} ({cell.comp_name}) has no port {ref.port!r}", ref.cell
            )
        return port

    def resolve(self, ref: PortRef) -> Optional[PortDef]:
        """PortDef for a reference; None for holes/constants/unresolvable."""
        if isinstance(ref, (ThisPort, CellPort)):
            entry = self.port(ref)
            if entry.__class__ is not Unresolved:
                return entry
        return None

    def resolvable(self, ref: PortRef) -> bool:
        """Does this reference name something that exists?"""
        if isinstance(ref, ConstPort):
            return True
        if isinstance(ref, HolePort):
            return ref.group in self.comp.groups
        return self.resolve(ref) is not None

    def width(self, ref: PortRef) -> Optional[int]:
        if isinstance(ref, ConstPort):
            return ref.width
        if isinstance(ref, HolePort):
            return 1
        port = self.resolve(ref)
        return None if port is None else port.width

    def is_writable(self, ref: PortRef) -> Optional[bool]:
        """May this reference be an assignment destination? None = unknown."""
        if isinstance(ref, ConstPort):
            return False
        if isinstance(ref, HolePort):
            return True
        port = self.resolve(ref)
        if port is None:
            return None
        if isinstance(ref, ThisPort):
            return port.direction is Direction.OUTPUT
        return port.direction is Direction.INPUT

    def is_readable(self, ref: PortRef) -> Optional[bool]:
        """May this reference be a source or guard operand? None = unknown."""
        if isinstance(ref, (ConstPort, HolePort)):
            return True
        port = self.resolve(ref)
        if port is None:
            return None
        if isinstance(ref, ThisPort):
            return port.direction is Direction.INPUT
        return port.direction is Direction.OUTPUT

    # -- the combinational edges -------------------------------------------
    def definition(self, cell: Cell) -> Optional["Netlist"]:
        """The netlist of the user component a cell instantiates; ``None``
        for primitives, externs (simulated by a model) and unknown names."""
        name = cell.comp_name
        if name not in self._definitions:
            comp = self.program.find_component(name)
            extern = comp is None or self.program.is_extern(name)
            self._definitions[name] = None if extern else self.netlists.of(comp)
        return self._definitions[name]

    def _cell_paths(self, cell: Cell) -> List[CellPath]:
        """Combinational input→output paths through one cell."""
        child = self.definition(cell)
        if child is not None:
            # A subcomponent's activation state is unknown: never definite.
            return [(i, o, False) for i, outs in child.pairs.items() for o in sorted(outs)]
        try:
            return self.netlists.cell_facts(cell).paths
        except Exception:
            return []  # no signature or no model to ask: unknown-name reports it

    @cached_property
    def _graph(self) -> Tuple[List[PortRef], Dict[PortRef, int], List[List[int]], list, list]:
        """Vertices, their index and adjacency, then the edges of each driver
        and of each cell path (see :meth:`_edges`)."""
        refs: List[PortRef] = []
        index: Dict[PortRef, int] = {}
        adj: List[List[int]] = []
        wires, paths = [], []

        def vertex(ref: PortRef) -> int:
            idx = index.get(ref)
            if idx is None:
                idx = index[ref] = len(refs)
                refs.append(ref)
                adj.append([])
            return idx

        # The vertices of each distinct guard's ports, in tree order.
        guard_reads: Dict[Guard, List[int]] = {}
        self._building_edges = True
        try:
            for gate, assign in self.drivers:
                dst = vertex(assign.dst)
                src = None if isinstance(assign.src, ConstPort) else vertex(assign.src)
                reads = guard_reads.get(assign.guard)
                if reads is None:
                    ports = [ref for ref in assign.guard.ports() if not isinstance(ref, ConstPort)]
                    reads = guard_reads[assign.guard] = [vertex(ref) for ref in ports]
                wires.append((gate, assign, dst, src, reads))
                for read in reads if src is None else [src, *reads]:
                    adj[read].append(dst)
            for cell in self.comp.cells.values():
                for i, o, definite in self._cell_paths(cell):
                    src, dst = vertex(CellPort(cell.name, i)), vertex(CellPort(cell.name, o))
                    adj[src].append(dst)
                    paths.append((src, dst, definite))
        finally:
            self._building_edges = False
        return refs, index, adj, wires, paths

    @property
    def refs(self) -> List[PortRef]:
        """The port behind each vertex of the combinational edges."""
        return self._graph[0]

    def _edges(self) -> Iterator[Edge]:
        """Source and guard ports to each driver's destination (a guard port
        feeds the select, so whether a loop closes depends on its value:
        never definite), then each cell's input→output paths."""
        _, _, _, wires, paths = self._graph
        for gate, assign, dst, src, reads in wires:
            if src is not None:
                yield src, dst, gate, assign.is_unconditional(), assign
            for read in reads:
                yield read, dst, gate, False, assign
        for src, dst, definite in paths:
            yield src, dst, None, definite, None

    @cached_property
    def cycles(self) -> List[Tuple[List[int], List[Edge]]]:
        """Each cyclic SCC's member vertices and the edges inside it."""
        scc_of, _, cycles, _ = levelize(self._graph[2])
        inside: Dict[int, List[Edge]] = {scc: [] for scc in cycles}
        for edge in self._edges() if inside else ():
            scc = scc_of[edge[0]]
            if scc == scc_of[edge[1]] and scc in inside:
                inside[scc].append(edge)
        return [(cycles[scc], scc_edges) for scc, scc_edges in inside.items()]

    @property
    def pairs(self) -> Dict[str, Set[str]]:
        """Input port name → the output port names its edges reach.

        Asked for while this definition's own edges are being built (a
        definition that instantiates itself), it has none: the boundary is
        assumed registered.
        """
        if self._building_edges:
            return {}
        if self._pairs is None:
            refs, index, adj, _, _ = self._graph
            outputs = {p.name for p in self.comp.outputs}
            self._pairs = {}
            for port in self.comp.inputs:
                start = index.get(ThisPort(port.name))
                if start is None:
                    continue
                outs = {
                    refs[v].port
                    for v in _reached(start, adj.__getitem__)
                    if isinstance(refs[v], ThisPort) and refs[v].port in outputs
                }
                if outs:
                    self._pairs[port.name] = outs
        return self._pairs

    # -- what the engine wires ---------------------------------------------
    @cached_property
    def comb_input_deps(self) -> List[str]:
        """Input ports with a combinational path to some output in the engine.

        ``sweep`` makes a nested instance's child node depend on these. The
        engine has more paths than the lint edges: a gated driver reads
        its ``go`` hole, a ``go`` hole its ``done`` hole, invoke bindings are
        wires, and a cell node writes every output when a dependency input
        changes. ``go`` is included whenever there is control or a group:
        activation can follow it through the executor, which has no edges.
        """
        reads: Dict[PortRef, List[PortRef]] = {}

        def wire(src: PortRef, dst: PortRef) -> None:
            if not isinstance(src, ConstPort):
                reads.setdefault(src, []).append(dst)

        go_holes = {HolePort(name, GO) for name in self.comp.groups}
        for gate, assign in self.drivers:
            for src in assign.reads():
                wire(src, assign.dst)
            if gate is not None:
                wire(HolePort(gate, GO), assign.dst)
            if isinstance(assign.dst, HolePort) and assign.dst.port == GO:
                go_holes.add(assign.dst)
        for hole in go_holes:
            wire(HolePort(hole.group, DONE), hole)
        for node in self.control:
            if isinstance(node, Invoke):
                for assign in node.wires():
                    for src in assign.reads():
                        wire(src, assign.dst)
        for name, cell in self.comp.cells.items():
            facts = self.netlists.cell_facts(cell)
            for i in facts.ins:
                for o in facts.outs if i in facts.deps else ():
                    wire(CellPort(name, i), CellPort(name, o))
        targets = {ThisPort(p.name) for p in self.comp.outputs}
        deps = [
            port.name
            for port in self.comp.inputs
            if targets & _reached(ThisPort(port.name), lambda ref: reads.get(ref, ()))
        ]
        if GO not in deps and (self.comp.groups or not self.comp.control.is_empty()):
            deps.append(GO)
        return deps
