"""One netlist per component definition: the static facts its readers share.

Validation, lint and the engine build each used to work out the same facts
about a component definition. A :class:`Netlist` works them out once,
tolerantly (what does not resolve is recorded, never raised):

* the fact table: each distinct port reference's :class:`PortFacts` (its
  :class:`PortDef` or why it does not resolve, its width, whether it may
  be read or written), each assignment's record (:attr:`Netlist.wires`)
  and each distinct guard's :class:`GuardFacts`, so the rules look a port
  up once; each cell's signature, or the error resolving it raised,
  which the engine raises again;
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
from repro.ir.guards import CmpGuard, Guard, PortGuard, fold
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


class PortFacts:
    """What the rules ask of one port reference, worked out once per netlist:
    ``ref`` as first looked up, its declaration ``port`` (``None`` for a
    constant, a hole, or what does not resolve), why it does not resolve
    (``unresolved``, ``None`` if it does), and ``width``, ``readable`` and
    ``writable`` (``None`` where unknown). :meth:`Netlist._graph` numbers
    its ``vertex``."""

    __slots__ = ("ref", "port", "unresolved", "width", "readable", "writable", "vertex")

    def __init__(self, ref, port, unresolved, width, readable, writable):
        self.ref = ref
        self.vertex: Optional[int] = None
        self.port = port
        self.unresolved = unresolved
        self.width = width
        self.readable = readable
        self.writable = writable


class GuardFacts:
    """What the rules ask of one distinct guard. ``reads``, ``unresolved``
    and ``unreadable`` list, in tree order with repeats, the
    :class:`PortFacts` of its operands that are not constants, that do not
    resolve for a reason of their own, and that may not be read;
    ``widths`` are its ``guard-width`` findings, ``holes`` whether it
    reads a group hole."""

    __slots__ = ("reads", "unresolved", "unreadable", "widths", "holes")

    def __init__(self, reads, unresolved, unreadable, widths, holes):
        self.reads = reads
        self.unresolved = unresolved
        self.unreadable = unreadable
        self.widths = widths
        self.holes = holes


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
        #: The port table: each distinct reference's facts, on first use.
        self._ports: Dict[PortRef, PortFacts] = {}
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

    @cached_property
    def wires(self) -> List[tuple]:
        """Each assignment's record, in :attr:`drivers` order: ``(group,
        assign, dst, src, guard)``, its group (``None`` if continuous), its
        destination's and source's :class:`PortFacts` and its guard's
        :class:`GuardFacts`. Each distinct guard node is summarized once."""
        facts = self.facts
        guards: Dict[Guard, GuardFacts] = {}
        folded: Dict[Guard, tuple] = {}

        def visit(node: Guard, found: tuple) -> tuple:
            """A node's :class:`GuardFacts` fields, its operands' in tree order."""
            if found:
                if len(found) == 1:
                    return found[0]
                left, right = found
                return (
                    left[0] + right[0], left[1] + right[1], left[2] + right[2],
                    left[3] + right[3], left[4] or right[4],
                )
            if node.__class__ is PortGuard:
                operands = (facts(node.port),)
            elif node.__class__ is CmpGuard:
                operands = (facts(node.left), facts(node.right))
            else:
                return ((), (), (), (), False)
            reads = tuple(f for f in operands if f.ref.__class__ is not ConstPort)
            unresolved = tuple(
                f for f in operands
                if f.unresolved is not None and f.unresolved.message is not None
            )
            unreadable = tuple(f for f in operands if f.readable is False)
            holes = any(f.ref.__class__ is HolePort for f in operands)
            widths = [f.width for f in operands]
            finding = ()
            if len(widths) == 1 and widths[0] not in (None, 1):
                finding = (f"guard port {node.port.to_string()} must be 1 bit, is {widths[0]}",)
            elif len(widths) == 2 and None not in widths and widths[0] != widths[1]:
                finding = (
                    f"comparison width mismatch in {node.to_string()} "
                    f"({widths[0]} vs {widths[1]})",
                )
            return reads, unresolved, unreadable, finding, holes

        wires = []
        # The order of :func:`static_drivers`, so each record is its driver's.
        scopes = [(g.name, g.assignments) for g in self.comp.groups.values()]
        for group, assignments in scopes + [(None, self.comp.continuous)]:
            for assign in assignments:
                guard = guards.get(assign.guard)
                if guard is None:
                    guard = guards[assign.guard] = GuardFacts(*fold(assign.guard, visit, folded))
                wires.append((group, assign, facts(assign.dst), facts(assign.src), guard))
        return wires

    def facts(self, ref: PortRef) -> PortFacts:
        """The port table's record for ``ref``, worked out on first use."""
        entry = self._ports.get(ref)
        if entry is None:
            entry = self._ports[ref] = self._facts(ref)
        return entry

    def _facts(self, ref: PortRef) -> PortFacts:
        cls = ref.__class__
        if cls is ConstPort:
            return PortFacts(ref, None, None, ref.width, True, False)
        if cls is HolePort:
            missing = None
            if ref.group not in self.comp.groups:
                missing = Unresolved(f"hole {ref.to_string()} names an undefined group")
            return PortFacts(ref, None, missing, 1, True, True)
        if cls is ThisPort:
            port = self.signature.get(ref.port)
            if port is None:
                missing = Unresolved(f"component {self.comp.name!r} has no port {ref.port!r}")
                return PortFacts(ref, None, missing, None, None, None)
            readable = port.direction is Direction.INPUT
        else:
            cell = self.comp.cells.get(ref.cell)
            if cell is None:
                missing = Unresolved(f"{ref.to_string()} names an undefined cell {ref.cell!r}")
                return PortFacts(ref, None, missing, None, None, None)
            sig = self.cell_signature(ref.cell)
            port = None if sig is None else sig.get(ref.port)
            if port is None:
                missing = Unresolved(
                    None if sig is None else
                    f"cell {ref.cell!r} ({cell.comp_name}) has no port {ref.port!r}",
                    ref.cell,
                )
                return PortFacts(ref, None, missing, None, None, None)
            readable = port.direction is Direction.OUTPUT
        return PortFacts(ref, port, None, port.width, readable, not readable)

    def port(self, ref: Union[ThisPort, CellPort]) -> Union[PortDef, Unresolved]:
        """A component or cell port's declaration, or why it does not resolve."""
        return self.facts(ref).unresolved or self.facts(ref).port

    def width(self, ref: PortRef) -> Optional[int]:
        return self.facts(ref).width

    def is_writable(self, ref: PortRef) -> Optional[bool]:
        """May this reference be an assignment destination? None = unknown."""
        return self.facts(ref).writable

    def is_readable(self, ref: PortRef) -> Optional[bool]:
        """May this reference be a source or guard operand? None = unknown."""
        return self.facts(ref).readable

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
        and of each cell path (see :meth:`_edges`).

        A driver's destination, its source unless a constant, then its
        guard's operands if the guard is new, are numbered in driver order
        on their first sight, in their :class:`PortFacts`; then a cell
        path's ports.
        """
        refs: List[PortRef] = []
        index: Dict[PortRef, int] = {}
        adj: List[List[int]] = []
        wires, paths = [], []

        def vertex(facts: PortFacts) -> int:
            """The port's vertex, numbered on first sight."""
            if facts.vertex is None:
                facts.vertex = index[facts.ref] = len(refs)
                refs.append(facts.ref)
                adj.append([])
            return facts.vertex

        guard_reads: Dict[GuardFacts, List[int]] = {}
        for (gate, assign), (_, _, dst, src, guard) in zip(self.drivers, self.wires):
            dst = vertex(dst)
            src = None if assign.src.__class__ is ConstPort else vertex(src)
            reads = guard_reads.get(guard)
            if reads is None:
                reads = guard_reads[guard] = [vertex(f) for f in guard.reads]
            wires.append((gate, assign, dst, src, reads))
            for read in reads if src is None else [src, *reads]:
                adj[read].append(dst)

        self._building_edges = True
        try:
            for cell in self.comp.cells.values():
                for i, o, definite in self._cell_paths(cell):
                    src = vertex(self.facts(CellPort(cell.name, i)))
                    dst = vertex(self.facts(CellPort(cell.name, o)))
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
