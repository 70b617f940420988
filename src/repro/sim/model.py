"""The simulation model: the template layer and the flat engine.

An :class:`EngineInstance` simulates a component and everything it
instantiates. Its cells are primitive models with the protocol
``comb(ins) -> outs`` (combinational outputs from inputs) and ``tick(ins)``
(clock edge), over port values in signature order, each one node of the
netlist, reading its input slots and writing its output slots.

The clock edge (``step_edge``) steps every control executor and ticks the
stateful children. Input changes need no edge report; an input with a
combinational path to an output is a dependency slot of the child node.
State written outside ``tick`` is announced with
:meth:`EngineInstance.touch`.

Each component definition is compiled once per build into a
:class:`_Template`, taking its drivers, races, cell signatures and
dependency inputs from :mod:`repro.analysis.netlist`:

* every port reference is assigned an integer *slot*, numbered from 0;
* each destination port gets a *resolver* node over its drivers (guarded
  assignments, plus invoke bindings synthesized from the control tree),
  each cell a *child* node, an unlowered component a *done* node, and a
  component with groups or invokes an *executor* node writing the slots
  its control executor drives.

An instance *stamps* its template into a flat value array at a base slot,
creating the nodes with their slots moved up by that base; the dict-like
:attr:`~EngineInstance.nets` view reads and writes the array for the
testbench, watchdog and fault hooks. Each engine is a subclass of
:class:`EngineInstance`, with a template class of its own; this module
holds the flat one, :class:`ComponentInstance` (``levelized``), and
:mod:`repro.sim.reference` the reference (``sweep``).

:class:`ComponentInstance` stamps every nested instance into the root's
one array: a cell of another definition is a block of the parent's
:class:`_FlatTemplate`, and its port ``p`` is the block's slot of
``this.p``, so the whole design is one netlist. A nested instance is then
only a :class:`_Scope`, a view of the array (path, base, template) that
``find``, ``read``, ``state_dump`` and the watchdog's reports read. A
port-level dependency graph of the whole design — guard and source reads
plus the cells' dependency inputs, a registered output adding no edge — is
*levelized* and *ranked* in level order once per build
(:func:`~repro.analysis.graph.levelize`). The dirty set is one integer
bitmask over ranks, seeded by input changes, clock edges and control
executors; a node's fire returns the reader mask of the slots it changed
and the drain fires the lowest set bit next. Every distinct guard
sub-expression of a definition is one :class:`_GuardNode` writing an
unnamed slot, as the hardware shares the wire, so a driver's guard test is
one slot read and a shared prefix evaluates once per input change; the
comparisons of one slot against several constants are one
:class:`_BankNode`, a state decoder. A cell with a registered output read
below its rank fires at the edge, before the drain, so an acyclic node
fires at most once per drain, and the edge skips the idle tick of a model
that declares an ``enable`` port. Genuine combinational cycles fall back
to bounded fixpoint iteration inside their SCC, where each resolver
evaluates its drivers' whole guards over the slots.

A guard a resolver evaluates itself is resolved to slots once, at build:
:func:`_compile_slot_guard` turns the IR guard tree into nested evaluators
over the slot array, each port a slot index and each constant a literal.
The engines take ``!``, ``&`` and ``|`` from separate operator tables,
the reference from its own and the flat engine (cyclic SCCs only) from
:data:`_GUARD_NODE_OPS`, built at import from the guard nodes'
:data:`_GUARD_FNS`. The tree walk, the leaves and the comparison builder
are shared; ``tests/test_engine_equivalence.py`` checks both tables
against :func:`eval_guard`, which interprets a guard on cold paths only.

Both raise :class:`~repro.errors.OscillationError` /
:class:`~repro.errors.CombinationalLoopError` through one non-convergence
diagnosis, and ``tests/test_engine_equivalence.py`` locks them together.

Group activation follows the paper's semantics: a group's assignments are
evaluated only while its ``go`` hole is high. The ``go`` hole is high when
the control executor enables the group *or* when another (active) group's
assignment drives it — the latter is how programs behave after the
``CompileControl`` pass wires go/done signals structurally. The
:class:`~repro.sim.control.ControlExecutor` of an unlowered component
drives the netlist only through unnamed slots: an *enable* and a *force*
slot per group, read by its ``go`` resolver, a *live* slot per ``invoke``,
gating the invoke's bindings, and one *finished* slot, read by the done
node. Its executor node writes the first three, held low while the
component's ``go`` is, and the edge that moves the executor writes
finished, so both engines see them as ordinary nets.
"""

from __future__ import annotations

import operator
from collections.abc import MutableMapping
from functools import cached_property
from types import MappingProxyType
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union,
)

from repro.analysis.graph import levelize
from repro.analysis.netlist import Netlist, Netlists
from repro.errors import (
    CombinationalLoopError,
    MultipleDriverError,
    OscillationError,
    SimulationError,
    UndefinedError,
)
from repro.ir.ast import (
    Assignment,
    CellPort,
    Component,
    ConstPort,
    HolePort,
    PortRef,
    Program,
    ThisPort,
)
from repro.ir.control import Invoke
from repro.ir.guards import (
    AndGuard,
    CmpGuard,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
    TrueGuard,
    fold,
)
from repro.ir.ports import DONE, GO
from repro.sim.control import ControlExecutor
from repro.stdlib.behaviors import PrimitiveModel
from repro.stdlib.primitives import make_model

ReadFn = Callable[[PortRef], int]


def eval_guard(guard: Guard, read: ReadFn) -> bool:
    """Evaluate a guard against a net-reading function."""
    if isinstance(guard, TrueGuard):
        return True
    if isinstance(guard, PortGuard):
        return read(guard.port) != 0
    if isinstance(guard, NotGuard):
        return not eval_guard(guard.inner, read)
    if isinstance(guard, AndGuard):
        return eval_guard(guard.left, read) and eval_guard(guard.right, read)
    if isinstance(guard, OrGuard):
        return eval_guard(guard.left, read) or eval_guard(guard.right, read)
    if isinstance(guard, CmpGuard):
        left, right = read(guard.left), read(guard.right)
        if guard.op == "==":
            return left == right
        if guard.op == "!=":
            return left != right
        if guard.op == "<":
            return left < right
        if guard.op == ">":
            return left > right
        if guard.op == "<=":
            return left <= right
        return left >= right
    raise SimulationError(f"cannot evaluate guard {guard!r}")


def _both(x: int, y: int) -> bool:
    return x != 0 and y != 0


def _either(x: int, y: int) -> bool:
    return x != 0 or y != 0


#: A guard node's operator over its two operand values; ``!x`` is
#: ``x == 0`` against the constant-zero slot.
_GUARD_FNS: Dict[str, Callable[[int, int], bool]] = {
    "&": _both,
    "|": _either,
    "!": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

#: A guard compiled for one instance: its value over the slot array.
SlotGuard = Callable[[List[int]], bool]

#: A comparison operand: a slot index, or ``None`` and a literal.
_Operand = Tuple[Optional[int], int]

#: Builds one operator's :data:`SlotGuard`: ``!``, ``&`` and ``|`` from
#: their operands' evaluators, a comparison from two :data:`_Operand`.
SlotGuardOps = Dict[str, Callable[..., SlotGuard]]


def _comparison(fn: Callable[[int, int], bool]) -> Callable[[_Operand, _Operand], SlotGuard]:
    """Builds ``fn`` over two operands, reading only the slots among them."""

    def build(left: _Operand, right: _Operand) -> SlotGuard:
        (a, x), (b, y) = left, right
        if a is None and b is None:
            value = fn(x, y)
            return lambda v: value
        if a is None:
            return lambda v: fn(x, v[b])
        if b is None:
            return lambda v: fn(v[a], y)
        return lambda v: fn(v[a], v[b])

    return build


def _guard_node_ops() -> SlotGuardOps:
    """The guard nodes' operators, :data:`_GUARD_FNS`, as slot-guard builders."""
    ops: SlotGuardOps = {op: _comparison(fn) for op, fn in _GUARD_FNS.items()}
    negate, both, either = _GUARD_FNS["!"], _GUARD_FNS["&"], _GUARD_FNS["|"]
    ops["!"] = lambda x: lambda v: negate(x(v), 0)
    ops["&"] = lambda x, y: lambda v: both(x(v), y(v))
    ops["|"] = lambda x, y: lambda v: either(x(v), y(v))
    return ops


#: The flat engine compiles the guards of its cyclic SCCs with these. They
#: hold the :data:`_GUARD_FNS` entries as of import, so a later change to
#: that dict reaches the guard nodes but not these evaluators.
_GUARD_NODE_OPS = _guard_node_ops()


def _operand(ref: PortRef, slots: Dict[PortRef, int]) -> _Operand:
    if isinstance(ref, ConstPort):
        return None, ref.value
    return slots[ref], 0


def _compile_slot_guard(
    guard: Guard,
    slots: Dict[PortRef, int],
    ops: SlotGuardOps,
    memo: Dict[Guard, SlotGuard],
) -> SlotGuard:
    """``guard`` as an evaluator over a slot array, mirroring its tree.

    Each port becomes its slot in ``slots``, each constant a literal, and
    each operator the evaluator ``ops`` builds for it. ``memo`` is the
    :func:`fold` memo, so guards and sub-guards that recur share one.
    """

    def visit(node: Guard, operands: Tuple[SlotGuard, ...]) -> SlotGuard:
        if operands:
            return ops[node.op](*operands)
        if isinstance(node, CmpGuard):
            return ops[node.op](_operand(node.left, slots), _operand(node.right, slots))
        if isinstance(node, PortGuard):
            port = node.port
            if isinstance(port, ConstPort):
                value = port.value != 0
                return lambda v: value
            slot = slots[port]
            return lambda v: v[slot] != 0
        return lambda v: True

    return fold(guard, visit, memo)


_EMPTY: frozenset = frozenset()


class _Driver:
    """One assignment driving a destination slot, ready to evaluate.

    ``gate_slot`` is the slot that must be high for the driver to apply:
    its group's ``go`` hole or an invoke's live slot (``None`` when always
    active). ``guard_slot`` is the slot holding the guard's value when the
    netlist has guard nodes (``None`` when always true). ``guard`` is the
    guard compiled over the slot array for :meth:`_ResolverNode.sweep`
    (``None`` when always true), set for every resolver an engine sweeps.
    """

    __slots__ = ("gate_slot", "guard", "guard_slot", "src_slot", "src_const", "assign")

    def __init__(
        self,
        gate_slot: Optional[int],
        guard_slot: Optional[int],
        src_slot: Optional[int],
        src_const: int,
        assign: Assignment,
    ):
        self.gate_slot = gate_slot
        self.guard: Optional[SlotGuard] = None
        self.guard_slot = guard_slot
        self.src_slot = src_slot
        self.src_const = src_const
        self.assign = assign

    def shifted(self, base: int) -> "_Driver":
        """This driver with every slot moved up by ``base``."""
        gate, guard, src = self.gate_slot, self.guard_slot, self.src_slot
        return _Driver(
            None if gate is None else gate + base,
            None if guard is None else guard + base,
            None if src is None else src + base,
            self.src_const,
            self.assign,
        )


def _gather(slots: List[int]) -> Callable[[List[int]], Tuple[int, ...]]:
    """Reads the values of ``slots`` as a tuple, in C for two or more."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda v: (v[slot],)
    return lambda v: ()


def _shift(slots: List[int], base: int) -> List[int]:
    """``slots`` moved up by ``base``: the template's own list at base 0."""
    return [slot + base for slot in slots] if base else slots


# ---------------------------------------------------------------------------
# Evaluation nodes
# ---------------------------------------------------------------------------


class _ResolverNode:
    """Computes the committed value of one destination slot.

    Evaluates every driver of the destination: inactive gates and false
    guards drop out, agreeing drivers coalesce, disagreeing drivers raise
    :class:`MultipleDriverError`, and an undriven destination falls to 0.
    A go hole also reads the group's ``force``, ``enable`` and ``done``
    slots, the first two driven by the control executor: a forced
    condition group of an ``if``/``while`` is high during the condition
    phase regardless of its done value, and an enabled group's ``go`` is
    high only while its done hole is low (preventing the double-commit
    hazard on registered ``done`` signals). Other destinations have no
    such slots (``None``). ``path`` names the instance the destination
    belongs to.
    """

    __slots__ = (
        "index", "slot", "drivers", "force_slot", "enable_slot", "done_slot", "in_slots", "path",
        "readers",
    )

    def __init__(self, index, slot, drivers, go_slots, in_slots, path):
        self.index = index
        self.slot = slot
        self.drivers: List[_Driver] = drivers
        self.force_slot, self.enable_slot, self.done_slot = go_slots
        self.in_slots: List[int] = in_slots
        self.path = path
        self.readers = 0

    def fire(self, v: List[int]) -> int:
        """Evaluate with each guard read from its guard node's slot."""
        value = 0
        winner: Optional[_Driver] = None
        for d in self.drivers:
            gate = d.gate_slot
            if gate is not None and not v[gate]:
                continue
            guard = d.guard_slot
            if guard is not None and not v[guard]:
                continue
            val = v[d.src_slot] if d.src_slot is not None else d.src_const
            if winner is None:
                winner, value = d, val
            elif val != value:
                self._conflict(winner, value, d, val)
        if self.force_slot is not None:
            if v[self.force_slot]:
                value = 1
            elif v[self.enable_slot]:
                value = 0 if v[self.done_slot] else 1
        if v[self.slot] != value:
            v[self.slot] = value
            return self.readers
        return 0

    def sweep(self, inst: "EngineInstance") -> Tuple[int, ...]:
        """Evaluate with each driver's whole guard over the current slots."""
        v = inst._values
        value = 0
        winner: Optional[_Driver] = None
        for d in self.drivers:
            gate = d.gate_slot
            if gate is not None and not v[gate]:
                continue
            guard = d.guard
            if guard is not None and not guard(v):
                continue
            val = v[d.src_slot] if d.src_slot is not None else d.src_const
            if winner is None:
                winner, value = d, val
            elif val != value:
                self._conflict(winner, value, d, val)
        if self.force_slot is not None:
            if v[self.force_slot]:
                value = 1
            elif v[self.enable_slot]:
                value = 0 if v[self.done_slot] else 1
        if v[self.slot] != value:
            v[self.slot] = value
            return (self.slot,)
        return ()

    def _conflict(self, winner: _Driver, value: int, d: _Driver, val: int) -> None:
        raise MultipleDriverError(
            f"{self.path}: port {d.assign.dst.to_string()} driven "
            f"to both {value} and {val} by\n  "
            f"{winner.assign.to_string()}\n  {d.assign.to_string()}"
        )


class _GuardNode:
    """One distinct guard operator, writing its value to an unnamed slot.

    ``fn`` is the operator of :data:`_GUARD_FNS` applied to the values of
    slots ``a`` and ``b``: another guard node, a port, or a constant.
    """

    __slots__ = ("index", "slot", "fn", "a", "b", "in_slots", "readers")

    def __init__(self, index, slot, fn, a, b):
        self.index = index
        self.slot = slot
        self.fn = fn
        self.a = a
        self.b = b
        self.in_slots: List[int] = [a, b]
        self.readers = 0

    def fire(self, v: List[int]) -> int:
        value = self.fn(v[self.a], v[self.b])
        if v[self.slot] != value:
            v[self.slot] = value
            return self.readers
        return 0


class _BankNode:
    """One slot compared against several constants: a comparator bank.

    A synthesized FSM state decoder reads the state register once and
    drives one wire per compared state. The bank reads slot ``a`` once and
    writes each comparison's own slot: ``fn(v[a], c)`` for an entry of
    ``rhs``, ``fn(c, v[a])`` for one of ``lhs``, ``fn`` the comparison's
    :data:`_GUARD_FNS` operator and ``c`` its constant. An entry is
    ``(slot, fn, c, readers)``.
    """

    __slots__ = ("index", "a", "rhs", "lhs", "in_slots", "dep_slots", "out_slots", "comb_slots")

    def __init__(self, index, a, rhs, lhs):
        self.index = index
        self.a = a
        self.rhs: List[tuple] = rhs
        self.lhs: List[tuple] = lhs
        self.in_slots = self.dep_slots = [a]
        self.out_slots = self.comb_slots = [entry[0] for entry in rhs + lhs]

    def stamped(self, index: int, base: int) -> "_BankNode":
        """This template bank as node ``index``, its slots moved up by ``base``."""
        return _BankNode(
            index,
            self.a + base,
            [(slot + base, fn, c, 0) for slot, fn, c, _ in self.rhs],
            [(slot + base, fn, c, 0) for slot, fn, c, _ in self.lhs],
        )

    def set_readers(self, reader_mask: List[int]) -> None:
        """Take each entry's reader mask from the slots' ``reader_mask``."""
        self.rhs = [(slot, fn, c, reader_mask[slot]) for slot, fn, c, _ in self.rhs]
        self.lhs = [(slot, fn, c, reader_mask[slot]) for slot, fn, c, _ in self.lhs]

    def fire(self, v: List[int]) -> int:
        x = v[self.a]
        changed = 0
        for slot, fn, c, readers in self.rhs:
            value = fn(x, c)
            if v[slot] != value:
                v[slot] = value
                changed |= readers
        for slot, fn, c, readers in self.lhs:
            value = fn(c, x)
            if v[slot] != value:
                v[slot] = value
                changed |= readers
        return changed


class _ChildNode:
    """One cell: reads its input slots, writes its output slots.

    ``in_slots`` and ``out_slots`` follow the cell signature's port order,
    the order the child's ``comb``/``tick`` take and return values in;
    ``inputs(values)`` is the tuple of the input slots' values; outputs
    outside ``comb_slots`` are registered. ``early`` is true when some
    node ranked below this one reads a registered output (levelized
    schedule): its state moves are then fired at once, not at its rank
    (:meth:`ComponentInstance._refresh`). A stateful
    child whose model declares an ``enable`` port has that port's slot as
    ``enable_slot``, and ``idle`` is true while its last tick saw the port
    low and returned ``False`` (:meth:`ComponentInstance.step_edge`).
    """

    __slots__ = (
        "index", "child", "in_slots", "dep_slots", "out_slots", "comb_slots", "inputs", "outs",
        "early", "enable_slot", "idle",
    )

    def __init__(self, index, child, in_slots, dep_slots, out_slots, comb_slots):
        self.index = index
        self.child = child
        self.in_slots: List[int] = in_slots
        self.dep_slots: List[int] = dep_slots
        self.out_slots: List[int] = out_slots
        self.comb_slots: List[int] = comb_slots
        self.inputs = _gather(in_slots)
        #: ``(slot, reader mask)`` per output, set by the levelized schedule.
        self.outs: Tuple[Tuple[int, int], ...] = ()
        self.early = False
        self.enable_slot: Optional[int] = None
        self.idle = False

    def set_readers(self, reader_mask: List[int]) -> None:
        slots = self.out_slots
        self.outs = tuple(zip(slots, map(reader_mask.__getitem__, slots)))

    def fire(self, v: List[int]) -> int:
        changed = 0
        for (slot, readers), val in zip(self.outs, self.child.comb(self.inputs(v))):
            if v[slot] != val:
                v[slot] = val
                changed |= readers
        return changed

    def sweep(self, inst: "EngineInstance") -> List[int]:
        v = inst._values
        changed: List[int] = []
        outs = self.child.comb(self.inputs(v))
        for slot, val in zip(self.out_slots, outs):
            if v[slot] != val:
                v[slot] = val
                changed.append(slot)
        return changed


class _DoneNode:
    """Drives ``this.done`` from the executor's finished slot (unlowered form).

    The value depends only on latched executor state — not on the current
    go — mirroring a registered done and avoiding go/done oscillation when
    a parent gates go with !done; it clears at the reset edge after go
    falls.
    """

    __slots__ = ("index", "slot", "finished", "in_slots", "readers")

    def __init__(self, index, slot, finished):
        self.index = index
        self.slot = slot
        self.finished = finished
        self.in_slots: List[int] = [finished]
        self.readers = 0

    def fire(self, v: List[int]) -> int:
        value = v[self.finished]
        if v[self.slot] != value:
            v[self.slot] = value
            return self.readers
        return 0

    def sweep(self, inst: "EngineInstance") -> Tuple[int, ...]:
        v = inst._values
        value = v[self.finished]
        if v[self.slot] != value:
            v[self.slot] = value
            return (self.slot,)
        return ()


class _ExecutorNode:
    """One control executor: writes its high set, gated by its ``go``.

    The enables, forces and live invokes the executor holds high, or none
    while ``go`` is low, so an idle component's invokes do not run. Only
    the driven slots that changed are written; ``high`` is the set as last
    written. The executor moves only at an edge, stepped while ``go`` is
    high and reset once it falls (``was_high``), and each move writes the
    ``finished`` slot (:meth:`EngineInstance._clock`).
    """

    __slots__ = (
        "index", "executor", "in_slots", "dep_slots", "out_slots", "comb_slots", "high", "finished",
        "was_high", "readers",
    )

    def __init__(self, index, executor, go, out_slots, finished):
        self.index = index
        self.executor: ControlExecutor = executor
        self.in_slots = self.dep_slots = [go]
        self.out_slots = self.comb_slots = out_slots
        self.high: frozenset = _EMPTY
        self.finished = finished
        self.was_high = False
        #: Driven slot -> its reader mask, set by the levelized schedule.
        self.readers: Dict[int, int] = {}

    def set_readers(self, reader_mask: List[int]) -> None:
        slots = self.out_slots
        self.readers = dict(zip(slots, map(reader_mask.__getitem__, slots)))

    def _write(self, v: List[int]) -> frozenset:
        """Write the driven slots that changed; returns them."""
        high = self.executor.high if v[self.in_slots[0]] else _EMPTY
        if high == self.high:
            return _EMPTY
        changed = high ^ self.high
        for slot in changed:
            v[slot] = 1 if slot in high else 0
        self.high = high
        return changed

    def fire(self, v: List[int]) -> int:
        readers = self.readers
        mask = 0
        for slot in self._write(v):
            mask |= readers[slot]
        return mask

    def sweep(self, inst: "EngineInstance") -> frozenset:
        return self._write(inst._values)


#: The node classes that write several slots (``out_slots``), some of them
#: (``comb_slots``) from some of their inputs (``dep_slots``).
_MULTI_OUT = (_ChildNode, _ExecutorNode, _BankNode)

#: The nodes that evaluate guards: no fixpoint members of a cyclic SCC.
_GUARD_KINDS = (_GuardNode, _BankNode)

#: The guard operators a comparator bank takes.
_COMPARISONS = frozenset(("==", "!=", "<", ">", "<=", ">="))


# ---------------------------------------------------------------------------
# The template of one definition
# ---------------------------------------------------------------------------


class _Template:
    """One component definition's netlist, its slots numbered from 0.

    Built once per definition per build, from the definition's
    :class:`~repro.analysis.netlist.Netlist`: the named and unnamed slots,
    the constants, each destination's resolver (drivers, go slots, reads),
    each cell's port slots and the executor's driven slots. Nothing here
    belongs to one instance; an instance *stamps* the template at a base
    slot (:meth:`EngineInstance._stamp`), creating node objects whose slots
    are moved up by that base.

    Each engine subclasses it, and may change how :meth:`_cell` numbers a
    cell's ports and where :meth:`_guard_slot` says a driver's guard value
    comes from.
    ``templates`` holds the templates of the definitions this one
    instantiates, built first.
    """

    def __init__(self, netlist: Netlist, templates: Dict[Netlist, "_Template"]):
        comp = netlist.comp
        self.comp = comp
        #: The named slots; a guard node's slot has no port.
        self.slots: Dict[PortRef, int] = {}
        #: Every slot: named, unnamed and the nested blocks'.
        self.n_slots = 0
        #: Constant value -> its unnamed slot, set at every reset.
        self.constants: Dict[int, int] = {}
        # The declaration order is the signature order a parent passes
        # inputs in and reads outputs back in.
        self.in_slots = [self._slot(ThisPort(p.name)) for p in comp.inputs]
        self.out_slots = [self._slot(ThisPort(p.name)) for p in comp.outputs]
        self.go_slot = self._slot(ThisPort(GO))
        self.done_slot = self._slot(ThisPort(DONE))
        # True when wires drive this component's done port directly (the
        # lowered form); the executor then must not drive it.
        self.done_from_wires = any(
            isinstance(a.dst, ThisPort) and a.dst.port == DONE for _, a in netlist.drivers
        )

        #: Each child node's ``(name, in_slots, dep_slots, out_slots, comb_slots,
        #: in_ports)``; the outputs outside ``comb_slots`` are registered.
        self.cells: List[Tuple[str, list, list, list, list, list]] = []
        # The slots of this component's inputs and its cells' outputs: a
        # driver of one would fight its writer (:meth:`_refuse_driver`).
        read_only = set(self.in_slots)
        cell_facts = netlist.netlists.cell_facts
        for cell in comp.cells.values():
            child = templates.get(netlist.definition(cell))
            read_only.update(self._cell(cell, cell_facts(cell), child))

        # -- drivers per destination (deterministic first-seen order) ------
        #: Each destination's drivers and the slots they read.
        driver_map: Dict[PortRef, Tuple[List[_Driver], Set[int]]] = {}

        def add_driver(gate: Optional[str], live: Optional[int], assign: Assignment) -> None:
            entry = driver_map.get(assign.dst)
            if entry is None:
                entry = driver_map[assign.dst] = ([], set())
            entry[0].append(self._compile_driver(gate, live, assign, entry[1]))

        for gate, assign in netlist.drivers:
            add_driver(gate, None, assign)

        # Invoke-synthesized bindings, gated by the invoke's live slot.
        #: Each :class:`Invoke` node (by ``id``) -> its live slot.
        self.live: Dict[int, int] = {}
        for node in netlist.control:
            if isinstance(node, Invoke):
                self.live[id(node)] = live_slot = self._unnamed_slot()
                for assign in node.wires():
                    add_driver(None, live_slot, assign)
            elif isinstance(getattr(node, "port", None), ConstPort):
                self._const_slot(node.port.value)  # a constant condition

        # Every group's go hole resolves even with no structural driver, so
        # deactivating groups release their assignments.
        for name in comp.groups:
            hole = HolePort(name, GO)
            if hole not in driver_map:
                driver_map[hole] = ([], set())
        # The executor owns this.done unless wires drive it (lowered form).
        if not self.done_from_wires:
            driver_map.pop(ThisPort(DONE), None)

        # The executor drives each go hole through its group's force and
        # enable slots, and this.done through the finished slot.
        #: ``(slot, drivers, (force, enable, done) or Nones, reads)``.
        self.resolvers: List[Tuple[int, List[_Driver], tuple, List[int]]] = []
        self.enable: Dict[str, int] = {}
        self.force: Dict[str, int] = {}
        for dst, (drivers, reads) in driver_map.items():
            slot = self._slot(dst)
            if slot in read_only:
                self._refuse_driver(netlist, dst)
            in_slots = sorted(reads)
            go_slots: Tuple[Optional[int], ...] = (None, None, None)
            if isinstance(dst, HolePort) and dst.port == GO:
                done_slot = self._slot(HolePort(dst.group, DONE))
                if done_slot not in in_slots:
                    in_slots.append(done_slot)
                self.force[dst.group] = self._unnamed_slot()
                self.enable[dst.group] = self._unnamed_slot()
                go_slots = (self.force[dst.group], self.enable[dst.group], done_slot)
                in_slots += go_slots[:2]
            self.resolvers.append((slot, drivers, go_slots, in_slots))
        self.finished_slot = self._unnamed_slot()
        #: The slots the executor drives, through its :class:`_ExecutorNode`.
        self.driven = sorted({*self.enable.values(), *self.force.values(), *self.live.values()})
        self.done_slots = [
            slot for ref, slot in self.slots.items() if getattr(ref, "port", None) == DONE
        ]

    def _cell(self, cell, facts, child: Optional["_Template"]) -> List[int]:
        """Number ``cell``'s ports as one child node's, given its
        :class:`~repro.analysis.netlist.CellFacts` and ``child``, the
        template of its definition (``None`` for a primitive); returns the
        slots only the cell writes."""
        in_ports, out_ports = facts.ins, facts.outs
        in_slots = [self._slot(CellPort(cell.name, p)) for p in in_ports]
        out_slots = [self._slot(CellPort(cell.name, p)) for p in out_ports]
        deps, registered = facts.deps, facts.registered
        dep_slots = [s for p, s in zip(in_ports, in_slots) if p in deps]
        comb_slots = out_slots
        if registered:
            comb_slots = [s for p, s in zip(out_ports, out_slots) if p not in registered]
        self.cells.append((cell.name, in_slots, dep_slots, out_slots, comb_slots, in_ports))
        return out_slots

    def _guard_slot(self, guard: Guard, reads: Set[int]) -> Optional[int]:
        """The slot a driver reads ``guard``'s value from; adds the slots it
        reads to ``reads``. ``None`` here: the resolver evaluates the guard
        itself, over the slots of its ports."""
        reads.update(self._slot(port) for port in guard.ports() if not isinstance(port, ConstPort))
        return None

    @staticmethod
    def _refuse_driver(netlist: Netlist, dst: PortRef) -> None:
        """Refuse a wire driving ``dst``, a port that is not writable (a
        cell's output, say), with the error validation raises for it."""
        if netlist.is_writable(dst) is False and any(a.dst == dst for _, a in netlist.drivers):
            from repro.lint.rules_structure import PortDirectionRule  # lint imports sim

            raise PortDirectionRule().unwritable_error(netlist)

    def _slot(self, ref: PortRef) -> int:
        slot = self.slots.get(ref)
        if slot is None:
            slot = self.slots[ref] = self._unnamed_slot()
        return slot

    def _unnamed_slot(self) -> int:
        """A new slot; only :meth:`_slot` names it after a port."""
        self.n_slots += 1
        return self.n_slots - 1

    def _const_slot(self, value: int) -> int:
        """The unnamed slot every reader of constant ``value`` shares."""
        slot = self.constants.get(value)
        if slot is None:
            slot = self.constants[value] = self._unnamed_slot()
        return slot

    def port_slot(self, ref: PortRef) -> int:
        """The slot a read of ``ref`` sees; never numbers a new slot."""
        if isinstance(ref, ConstPort):
            return self.constants[ref.value]
        return self.slots[ref]

    def _compile_driver(
        self,
        gate: Optional[str],
        live: Optional[int],
        assign: Assignment,
        reads: Set[int],
    ) -> _Driver:
        """``assign`` gated by group ``gate``'s go hole or an invoke's
        ``live`` slot; adds the slots it reads to ``reads``."""
        guard_slot = self._guard_slot(assign.guard, reads)
        src = assign.src
        if isinstance(src, ConstPort):
            src_slot, src_const = None, src.value
        else:
            src_slot, src_const = self._slot(src), 0
            reads.add(src_slot)
        gate_slot = live
        if gate is not None:
            gate_slot = self._slot(HolePort(gate, GO))
        if gate_slot is not None:
            reads.add(gate_slot)
        return _Driver(gate_slot, guard_slot, src_slot, src_const, assign)


class _FlatTemplate(_Template):
    """A definition's template for the flat engine.

    A cell of another user definition owns a *block*: that definition's
    whole template, numbered inside this one at the block's offset, and the
    cell's port ``p`` is the block's slot of ``this.p``, so a parent's
    driver writes straight into the child's input and reads its output. The
    template of a definition therefore numbers every slot below it, and
    stamping the root's template lays out the whole design in one array.

    The guards are hash-consed into shared guard nodes. Bottom-up, each
    distinct ``(op, slot, slot)`` key gets one node writing one unnamed
    slot, created after its operands, so creation order is topological. A
    port guard is its port's slot, a constant operand gets a constant slot,
    and constant sub-guards fold (``a & true`` is ``a``). Each distinct
    (interned) guard node is consed once, however many assignments and
    enclosing guards share it. :meth:`_banked` then merges the comparisons
    of one slot against two or more constants into one :class:`_BankNode`.
    """

    def __init__(self, netlist: Netlist, templates: Dict[Netlist, _Template]):
        #: Each nested block's cell name and offset.
        self.blocks: List[Tuple[str, int]] = []
        #: Each guard node's ``(op, slot, slot)`` key -> its slot, in creation order.
        self._table: Dict[Tuple[str, int, int], int] = {}
        self._memo: Dict[Guard, Union[bool, int]] = {}
        super().__init__(netlist, templates)
        #: The guard nodes and banks, in creation order.
        self.guards: List[Union[_GuardNode, _BankNode]] = self._banked()
        del self._table, self._memo  # needed only while the guards are consed

    def _cell(self, cell, facts, child: Optional[_Template]) -> List[int]:
        if child is None:
            return super()._cell(cell, facts, child)
        block = self.n_slots
        self.n_slots += child.n_slots
        for port in facts.ins + facts.outs:
            local = child.slots.get(ThisPort(port))
            ref = CellPort(cell.name, port)
            if local is None:
                self._slot(ref)
            else:
                self.slots[ref] = block + local
        self.blocks.append((cell.name, block))
        return [self.slots[CellPort(cell.name, p)] for p in facts.outs]

    def _guard_slot(self, guard: Guard, reads: Set[int]) -> Optional[int]:
        value = fold(guard, self._cons, self._memo)
        if value is True:
            return None
        slot = self._const_slot(0) if value is False else value
        reads.add(slot)
        return slot

    def _banked(self) -> List[Union[_GuardNode, _BankNode]]:
        """The guard nodes in creation order, each slot compared against two
        or more constants as one bank at its first comparison's place (its
        one input is a port, so the bank precedes every reader of its
        entries, a cyclic SCC's guard nodes included)."""
        consts = {slot: value for value, slot in self.constants.items()}
        # Each compared port's slot -> its comparisons against a constant,
        # in creation order: ``(slot, fn, constant, constant on the left)``.
        compared: Dict[int, List[Tuple[int, Callable, int, bool]]] = {}
        for (op, a, b), slot in self._table.items():
            if op in _COMPARISONS and (a in consts) != (b in consts):
                port, left = (b, True) if a in consts else (a, False)
                compared.setdefault(port, []).append(
                    (slot, _GUARD_FNS[op], consts[a if left else b], left)
                )
        # The first comparison of each bank -> the bank; its other comparisons.
        banks: Dict[int, _BankNode] = {}
        merged: Set[int] = set()
        for port, entries in compared.items():
            if len(entries) < 2:
                continue
            rhs = [(slot, fn, c, 0) for slot, fn, c, left in entries if not left]
            lhs = [(slot, fn, c, 0) for slot, fn, c, left in entries if left]
            banks[entries[0][0]] = _BankNode(-1, port, rhs, lhs)
            merged.update(entry[0] for entry in entries[1:])
        nodes = [
            _GuardNode(-1, slot, _GUARD_FNS[op], a, b) for (op, a, b), slot in self._table.items()
        ]
        if not banks:
            return nodes
        return [banks.get(n.slot, n) for n in nodes if n.slot not in merged]

    def _guard_operand(self, ref: PortRef) -> int:
        if isinstance(ref, ConstPort):
            return self._const_slot(ref.value)
        return self._slot(ref)

    def _node(self, op: str, a: int, b: int) -> int:
        key = (op, a, b)
        slot = self._table.get(key)
        if slot is None:
            slot = self._table[key] = self._unnamed_slot()
        return slot

    def _cons(self, guard: Guard, operands: Tuple[Union[bool, int], ...]) -> Union[bool, int]:
        """The :func:`fold` visit: a constant guard's value, else its slot."""
        if isinstance(guard, NotGuard):
            (inner,) = operands
            if isinstance(inner, bool):
                return not inner
            return self._node("!", inner, self._const_slot(0))
        if isinstance(guard, AndGuard):
            left, right = operands
            if left is False or right is False:
                return False
            if left is True or right is True:
                return right if left is True else left
            return self._node("&", left, right)
        if isinstance(guard, OrGuard):
            left, right = operands
            if left is True or right is True:
                return True
            if left is False or right is False:
                return right if left is False else left
            return self._node("|", left, right)
        if isinstance(guard, CmpGuard):
            left, right = guard.left, guard.right
            if isinstance(left, ConstPort) and isinstance(right, ConstPort):
                return _GUARD_FNS[guard.op](left.value, right.value)
            return self._node(guard.op, self._guard_operand(left), self._guard_operand(right))
        if isinstance(guard, PortGuard):
            port = guard.port
            if isinstance(port, ConstPort):
                return port.value != 0
            return self._slot(port)
        return True


# ---------------------------------------------------------------------------
# The nets view (watchdog / fault-injection access)
# ---------------------------------------------------------------------------


class _SlotNets(MutableMapping):
    """Dict-like view of the slot array, keyed by :class:`PortRef`.

    External pokes — the testbench raises ``go`` and the fault-injection
    hook writes ``inst.nets[ref] = value`` — land in the slot array, and
    the engine learns of them (:meth:`EngineInstance._poked`), so
    downstream logic sees the fault and the next settle recomputes the
    clean value. Unknown refs are stored inertly: a write to a net nothing
    reads.
    """

    def __init__(self, inst: "EngineInstance"):
        self._inst = inst

    def __getitem__(self, ref: PortRef) -> int:
        slot = self._inst._slots.get(ref)
        if slot is not None:
            return self._inst._values[slot]
        return self._inst._extra_nets[ref]

    def __setitem__(self, ref: PortRef, value: int) -> None:
        inst = self._inst
        slot = inst._slots.get(ref)
        if slot is None:
            inst._extra_nets[ref] = value
            return
        if inst._values[slot] != value:
            inst._values[slot] = value
            inst._poked(slot)

    def __delitem__(self, ref: PortRef) -> None:
        inst = self._inst
        slot = inst._slots.get(ref)
        if slot is None:
            del inst._extra_nets[ref]
        else:
            self[ref] = 0

    def __iter__(self) -> Iterator[PortRef]:
        yield from self._inst._slots
        yield from self._inst._extra_nets

    def __len__(self) -> int:
        return len(self._inst._slots) + len(self._inst._extra_nets)

    def clear(self) -> None:
        self._inst._reset_dynamic()


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class _Scope:
    """One instantiation of a definition: its names over a slot array.

    Construction makes the cells (a primitive or extern model, or a nested
    instance, in cell order), refuses the definition's first driver race,
    and takes the definition's template, built by its first instance.
    Stamping then sets ``_base``, the slot of the template's slot 0, and the
    instance's control executor. A nested instance of the flat engine is
    only this — a path, a base and a :class:`_FlatTemplate` over the root's
    array, which :meth:`find`, :meth:`read`, :meth:`state_dump` and the
    watchdog reports read. Each engine's root class derives from it and
    may change ``_template_class`` and :meth:`_nested`.
    """

    _base = 0
    _extra_nets: Mapping[PortRef, int] = MappingProxyType({})
    #: The class of this engine's templates.
    _template_class: type = _FlatTemplate

    def __init__(
        self,
        program: Program,
        comp: Component,
        path: str = "main",
        netlists: Optional[Netlists] = None,
        templates: Optional[Dict[Netlist, _Template]] = None,
    ):
        self.program = program
        self.comp = comp
        self.path = path
        self.netlist = (netlists or Netlists(program)).of(comp)
        if templates is None:
            templates = {}
        self.children: Dict[str, object] = {
            cell.name: self._make_child(cell, templates) for cell in comp.cells.values()
        }
        #: The nested instances among the children, in cell order.
        self._sub_instances = [c for c in self.children.values() if isinstance(c, _Scope)]
        self._reject_driver_race()
        template = templates.get(self.netlist)
        if template is None:
            template = templates[self.netlist] = self._template_class(self.netlist, templates)
        self.template = template
        self._slots = template.slots

    def _make_child(self, cell, templates: Dict[Netlist, _Template]) -> object:
        # Extern components have no body; they need a registered model.
        definition = self.netlist.definition(cell)
        if definition is None:
            return make_model(cell.comp_name, cell.args)
        return self._nested(definition.comp, f"{self.path}.{cell.name}", templates)

    def _nested(self, comp: Component, path: str, templates: Dict[Netlist, _Template]) -> "_Scope":
        """A nested instance of ``comp``: a view, stamped into the root's array."""
        return _Scope(self.program, comp, path, self.netlist.netlists, templates)

    def _reject_driver_race(self) -> None:
        """Refuse the definition's first definite driver race: the runtime
        check compares values, so agreeing racers would pass unnoticed."""
        if self.netlist.conflicts:
            gate, prev, assign = self.netlist.conflicts[0]
            where = f"group {gate!r}" if gate else "always-active scope"
            raise MultipleDriverError(
                f"{self.path}: port {assign.dst.to_string()} has two unconditional "
                f"drivers in the same {where}:\n"
                f"  {prev.to_string()}\n  {assign.to_string()}\n"
                f"(a definite multiple-driver race; the winner would depend on "
                f"assignment order)"
            )

    # -- net access --------------------------------------------------------
    def read(self, ref: PortRef) -> int:
        if isinstance(ref, ConstPort):
            return ref.value
        slot = self._slots.get(ref)
        if slot is not None:
            return self._values[self._base + slot]
        return self._extra_nets.get(ref, 0)

    # -- watchdog support ----------------------------------------------------
    def _running(self) -> bool:
        return self._values[self._go_slot] != 0

    def _active_now(self) -> List[str]:
        """The groups the executor has active right now, sorted."""
        if not self._running():
            return []
        high = self.executor.high
        return sorted(group for group, slot in self._enable.items() if slot in high)

    def state_dump(self, max_nets: int = 48) -> str:
        """Human-readable snapshot of nets and control state for reports."""
        lines = [f"instance {self.path}:"]
        if self.comp.groups:
            active = self._active_now()
            lines.append(f"  active groups: {', '.join(active) or '(none)'}")
        values, base = self._values, self._base
        nets = sorted((ref.to_string(), values[base + slot]) for ref, slot in self._slots.items())
        for name, val in nets[:max_nets]:
            lines.append(f"  {name} = {val}")
        if len(nets) > max_nets:
            lines.append(f"  ... ({len(nets) - max_nets} more nets)")
        for child in self._sub_instances:
            lines.append(child.state_dump(max_nets=max_nets // 2))
        return "\n".join(lines)

    def stuck_groups(self) -> List[str]:
        """Dotted names of groups active right now, recursively."""
        out = [f"{self.path}.{name}" for name in self._active_now()]
        for child in self._sub_instances:
            out.extend(child.stuck_groups())
        return out

    def deadlock_report(self) -> str:
        """Explain what each active group's done condition is waiting on."""
        lines: List[str] = []
        active = self._active_now()
        for name in active:
            group = self.comp.groups[name]
            lines.append(f"{self.path}: group {name!r} is stuck; waiting on:")
            done_writes = group.done_assignments()
            if not done_writes:
                lines.append("    (group has no done condition)")
            for assign in done_writes:
                guard_val = eval_guard(assign.guard, self.read)
                src_val = self.read(assign.src)
                lines.append(
                    f"    {assign.to_string()}  "
                    f"[guard={'1' if guard_val else '0'}, src={src_val}]"
                )
        if not active and self._running() and self.comp.groups:
            lines.append(
                f"{self.path}: running but no group is active "
                f"(control executor state inconsistent?)"
            )
        for child in self._sub_instances:
            sub = child.deadlock_report()
            if sub:
                lines.append(sub)
        return "\n".join(lines)

    # -- inspection ----------------------------------------------------------
    def find(self, path: str) -> object:
        """Locate a child instance by dotted cell path (e.g. ``"pe0.acc"``)."""
        node: object = self
        for part in path.split("."):
            if not isinstance(node, _Scope) or part not in node.children:
                raise UndefinedError(f"no cell at path {path!r}")
            node = node.children[part]
        return node

    def find_model(self, path: str) -> PrimitiveModel:
        node = self.find(path)
        if isinstance(node, _Scope):
            raise UndefinedError(f"cell at {path!r} is not a primitive")
        return node


class EngineInstance(_Scope):
    """The root of one simulation: a slot array, its nodes and the clock.

    Each engine is a subclass, named in :data:`repro.sim.ENGINES`: it fixes
    how a clock phase settles (:meth:`settle`), what the clock edge does
    (:meth:`step_edge`) and how nested instances are built. Every instance
    takes the static facts of its component's definition from the build's
    ``netlists``, and its template from the build's ``templates``, which
    nested instances share. What is here is structure, which both engines
    run: the stamping of one scope's nodes, the nets view, the reset, the
    non-convergence diagnosis and the watchdog's readings.
    """

    #: Extra probe sweeps used to tell a limit cycle from non-convergence.
    OSCILLATION_PROBE_ITERS = 64

    def __init__(
        self,
        program: Program,
        comp: Component,
        path: str = "main",
        netlists: Optional[Netlists] = None,
        templates: Optional[Dict[Netlist, _Template]] = None,
    ):
        super().__init__(program, comp, path, netlists, templates)
        self._extra_nets: Dict[PortRef, int] = {}
        self._values: List[int] = [0] * self.template.n_slots
        self._nodes: List[object] = []
        #: The stateful children, ticked at the clock edge.
        self._stateful_nodes: List[_ChildNode] = []
        #: Every executor in the array, and those with control to step.
        self._executor_nodes: List[_ExecutorNode] = []
        self._clocked: List[_ExecutorNode] = []
        #: Every scope stamped into this array below this instance. No
        #: list holds the instance itself: it owns no reference cycle, so it
        #: is freed when its last user drops it.
        self._scopes: List[_Scope] = []
        self._stamp(self, 0)
        self._reset_values = list(self._values)
        self._done_values = _gather(
            list(
                dict.fromkeys(
                    s._base + slot for s in (self, *self._scopes) for slot in s.template.done_slots
                )
            )
        )

    def settle(self) -> None:
        """Bring one clock phase to its fixpoint."""
        raise NotImplementedError

    def step_edge(self) -> bool:
        """The clock edge: every executor with control steps or resets
        (:meth:`_clock`) and every stateful child ticks, whatever its
        model's ``enable``. True if the outputs may have moved: some child
        reported a change, or some executor state can move."""
        values = self._values
        for node in self._clocked:
            self._clock(node, values)
        ticked = [
            node for node in self._stateful_nodes if node.child.tick(node.inputs(values)) is not False
        ]
        return bool(self._clocked or ticked)

    @property
    def nets(self) -> _SlotNets:
        """The slot array as a dict keyed by this instance's port references."""
        return _SlotNets(self)

    # -- construction -----------------------------------------------------
    def _stamp(self, scope: _Scope, base: int) -> None:
        """Create ``scope``'s nodes and executor with its template's slots
        moved up by ``base``: its children, resolvers, done node and
        executor node, numbered together."""
        t = scope.template
        scope._base = base
        scope._values = values = self._values
        for value, slot in t.constants.items():
            values[base + slot] = value
        nodes = self._nodes
        scope._cell_node = cell_node = {}
        for name, in_slots, dep_slots, out_slots, comb_slots, in_ports in t.cells:
            child = scope.children[name]
            cell_node[name] = len(nodes)
            outs = _shift(out_slots, base)
            node = _ChildNode(
                len(nodes), child, _shift(in_slots, base), _shift(dep_slots, base), outs,
                outs if comb_slots is out_slots else _shift(comb_slots, base),
            )
            nodes.append(node)
            if type(child).tick is not PrimitiveModel.tick:
                enable = getattr(child, "enable", None)
                if enable in in_ports:
                    node.enable_slot = node.in_slots[in_ports.index(enable)]
                self._stateful_nodes.append(node)
        path = scope.path
        for slot, drivers, go_slots, in_slots in t.resolvers:
            if base:
                drivers = [d.shifted(base) for d in drivers]
                if go_slots[0] is not None:
                    force, enable, done = go_slots
                    go_slots = (force + base, enable + base, done + base)
                in_slots = [s + base for s in in_slots]
            nodes.append(_ResolverNode(len(nodes), slot + base, drivers, go_slots, in_slots, path))
        finished = base + t.finished_slot
        if not t.done_from_wires:
            nodes.append(_DoneNode(len(nodes), base + t.done_slot, finished))

        def slot_of(ref: PortRef) -> int:
            return base + t.port_slot(ref)

        scope._enable = {group: base + slot for group, slot in t.enable.items()}
        force = {group: base + slot for group, slot in t.force.items()}
        live = {key: base + slot for key, slot in t.live.items()}
        scope.executor = ControlExecutor(t.comp, slot_of, scope._enable, force, live)
        scope._go_slot = base + t.go_slot
        values[finished] = 1 if scope.executor.finished else 0
        node = _ExecutorNode(
            len(nodes), scope.executor, scope._go_slot, _shift(t.driven, base), finished
        )
        nodes.append(node)
        self._executor_nodes.append(node)
        if not t.comp.control.is_empty():
            self._clocked.append(node)

    # -- reset and writes from outside --------------------------------------
    def _reset_dynamic(self) -> None:
        values = self._values
        values[:] = self._reset_values
        self._extra_nets.clear()
        for node in self._executor_nodes:
            node.high = _EMPTY
            values[node.finished] = 1 if node.executor.finished else 0

    def _poked(self, slot: int) -> None:
        """A write from outside changed ``slot``. An engine that schedules
        its nodes marks what must see it; one that sweeps them all need not."""

    def reset(self) -> None:
        for node in self._executor_nodes:
            node.executor.reset()
            node.was_high = False
        for node in self._nodes:
            if isinstance(node, _ChildNode):
                node.child.reset()
                node.idle = False
        self._reset_dynamic()

    # -- sweeps and the non-convergence diagnosis -------------------------------
    def _sweep(self) -> bool:
        """Fire every node of :attr:`_sweep_nodes` once, in build order.

        Resolvers evaluate their compiled guards. True if any slot changed.
        """
        changed = False
        for node in self._sweep_nodes:
            if node.sweep(self):
                changed = True
        return changed

    def _net_names(self) -> Iterator[Tuple[str, int]]:
        """Each named slot of the array once, under its outermost name:
        this instance's bare, a stamped scope's under its path below this
        one (a cell port and the child's own port are one slot)."""
        seen: Set[int] = set()
        for scope in (self, *self._scopes):
            prefix = scope.path[len(self.path) + 1:]
            for ref, slot in scope._slots.items():
                slot += scope._base
                if slot not in seen:
                    seen.add(slot)
                    name = ref.to_string()
                    yield (f"{prefix}.{name}" if prefix else name), slot

    def _diagnose_nonconvergence(self, spent_iters: int) -> None:
        """Out of iterations: classify limit cycle vs. divergence.

        Keeps sweeping the netlist for a bounded number of extra iterations
        while fingerprinting the slot array. A repeated fingerprint proves a
        true combinational limit cycle (:class:`OscillationError`, reporting
        the named nets that toggle and the period); no repeat within the
        probe means generic non-convergence
        (:class:`CombinationalLoopError`). Returns if a sweep changes
        nothing: the netlist converged late.
        """
        seen: Dict[Tuple[int, ...], int] = {}
        history: List[List[int]] = []
        for i in range(self.OSCILLATION_PROBE_ITERS):
            fingerprint = tuple(self._values)
            if fingerprint in seen:
                start = seen[fingerprint]
                period = i - start
                cycle_states = history[start:]
                first = cycle_states[0]
                toggling = sorted(
                    name
                    for name, slot in self._net_names()
                    if any(state[slot] != first[slot] for state in cycle_states)
                )
                raise OscillationError(
                    f"{self.path}: combinational limit cycle with period "
                    f"{period}: nets oscillate forever: "
                    + ", ".join(toggling[:12])
                    + ("..." if len(toggling) > 12 else ""),
                    nets=toggling,
                    period=period,
                ).with_state(self.state_dump())
            seen[fingerprint] = i
            history.append(list(self._values))
            if not self._sweep():
                return
        raise CombinationalLoopError(
            f"{self.path}: combinational logic did not converge after "
            f"{spent_iters + self.OSCILLATION_PROBE_ITERS} iterations "
            f"(values still changing; not a finite limit cycle)"
        ).with_state(self.state_dump())

    # -- the clock edge, watchdog and testbench support ---------------------
    def _clock(self, node: _ExecutorNode, values: List[int]) -> bool:
        """Step an executor on the settled slots while its ``go`` is high,
        or reset it at the first edge after ``go`` falls, and write its
        finished slot; True if it moved."""
        if values[node.in_slots[0]]:
            node.executor.step(values)
            node.was_high = True
        elif node.was_high:
            node.executor.reset()
            node.was_high = False
        else:
            return False
        values[node.finished] = 1 if node.executor.finished else 0
        return True

    def touch(self, path: str) -> None:
        """Re-evaluate the cell at dotted ``path`` at the next settle, for
        state written outside ``tick`` (a memory load). An engine that
        sweeps every node at every settle only checks the path."""
        self.find(path)

    def done_signature(self) -> Tuple:
        """Values of every ``done``-like net in the array (watchdog food)."""
        return self._done_values(self._values)


class ComponentInstance(EngineInstance):
    """The flat engine (``levelized``): the whole design in one array.

    Every nested instance is a :class:`_Scope` stamped into this
    instance's slot array, with its guard nodes and banks. One schedule
    ranks the nodes of the whole design, and each settle drains one dirty
    mask in rank order (:meth:`_drain`).
    """

    def __init__(self, program: Program, comp: Component):
        super().__init__(program, comp)
        #: The stateful children whose model declares an ``enable`` port,
        #: ticked only while armed, and those ticked at every edge.
        self._gated = [node for node in self._stateful_nodes if node.enable_slot is not None]
        self._stateful_nodes = [node for node in self._stateful_nodes if node.enable_slot is None]
        self._schedule()
        self._compile_guards(node for members, _ in self._cyclic.values() for node in members)
        self._reset_dynamic()

    @cached_property
    def _sweep_nodes(self) -> List[object]:
        """What the non-convergence probe sweeps: all but the guard nodes,
        each resolver's guards compiled for it on first use."""
        nodes = [n for n in self._nodes if not isinstance(n, _GUARD_KINDS)]
        self._compile_guards(nodes)
        return nodes

    def settle(self) -> None:
        """Drain the dirty mask in rank order."""
        self._drain()

    # -- construction -----------------------------------------------------
    def _stamp(self, scope: _Scope, base: int) -> None:
        """Stamp ``scope``'s nodes, then its guard nodes in creation
        (topological) order, so a cyclic SCC evaluates them in index
        order, then its nested blocks the same way."""
        if scope is not self:
            self._scopes.append(scope)
        super()._stamp(scope, base)
        nodes = self._nodes
        for g in scope.template.guards:
            if type(g) is _GuardNode:
                nodes.append(_GuardNode(len(nodes), g.slot + base, g.fn, g.a + base, g.b + base))
            else:
                nodes.append(g.stamped(len(nodes), base))
        for name, block in scope.template.blocks:
            self._stamp(scope.children[name], base + block)

    def _compile_guards(self, nodes: Iterable[object]) -> None:
        """Compile the guard of every driver of the resolvers in ``nodes``,
        over the slots of each resolver's scope, with ``!``, ``&`` and ``|``
        from the guard nodes' table, :data:`_GUARD_NODE_OPS`."""
        scopes = {scope.path: scope for scope in (self, *self._scopes)}
        compiled: Dict[str, Tuple[Dict[PortRef, int], Dict[Guard, SlotGuard]]] = {}
        for node in nodes:
            if isinstance(node, _ResolverNode):
                entry = compiled.get(node.path)
                if entry is None:
                    scope = scopes[node.path]
                    slots = {ref: slot + scope._base for ref, slot in scope._slots.items()}
                    entry = compiled[node.path] = (slots, {})
                slots, memo = entry
                for d in node.drivers:
                    guard = d.assign.guard
                    if not isinstance(guard, TrueGuard):
                        d.guard = _compile_slot_guard(guard, slots, _GUARD_NODE_OPS, memo)

    def _schedule(self) -> None:
        """Levels (:func:`~repro.analysis.graph.levelize`), ranks and reader
        masks of the levelized drain.

        A node's edges run from the writers of the slots it reads
        combinationally to it, and from it to the readers of the slots it
        writes combinationally: a registered output adds none. Each node
        takes the reader masks of the slots it writes, registered or not,
        so a fire returns the ranks its changes dirty.
        """
        nodes = self._nodes
        fanout: List[List[int]] = [[] for _ in range(len(self._values))]
        #: Each slot's writer node, for a write from outside (:class:`_SlotNets`).
        self._writer = writer = {}
        # A node's successors: the readers of its one output (that slot's
        # fanout list, filled as the loop goes), or of its combinational ones.
        adj: List[List[int]] = []
        multi: List[object] = []
        for node in nodes:
            index = node.index
            if isinstance(node, _MULTI_OUT):
                for slot in node.out_slots:
                    writer[slot] = index
                multi.append(node)
                adj.append([])
                reads = node.dep_slots
            else:
                writer[node.slot] = index
                adj.append(fanout[node.slot])
                reads = node.in_slots
            for slot in reads:
                fanout[slot].append(index)
        for node in multi:
            adj[node.index] = [r for slot in node.comb_slots for r in fanout[slot]]
        rank_of, heads, cycles, levels = levelize(adj)
        self._rank_of = rank_of
        #: The number of levels, a deterministic counter of the schedule.
        self._level_count = levels[-1] + 1 if levels else 0
        self._reader_mask = reader_mask = []
        for readers in fanout:
            mask = 0
            for node_idx in readers:
                mask |= 1 << rank_of[node_idx]
            reader_mask.append(mask)
        for node in nodes:
            if isinstance(node, _MULTI_OUT):
                node.set_readers(reader_mask)
            else:
                node.readers = reader_mask[node.slot]
        #: The ``early`` children, fired at every reset.
        self._early: List[_ChildNode] = []
        for node in multi:
            comb = node.comb_slots
            if comb is not node.out_slots:
                below = (1 << rank_of[node.index]) - 1
                node.early = any(reader_mask[s] & below for s in node.out_slots if s not in comb)
                if node.early:
                    self._early.append(node)
        #: Per rank: an acyclic SCC's one node's ``fire``, or None for a cyclic SCC.
        self._rank_fire = [nodes[i].fire for i in heads]
        #: Per cyclic SCC's rank: its fixpoint members and its guard nodes,
        #: each in index order.
        self._cyclic: Dict[int, Tuple[list, list]] = {}
        for rank, scc in cycles.items():
            self._rank_fire[rank] = None
            members = [nodes[i] for i in scc]
            self._cyclic[rank] = (
                [n for n in members if not isinstance(n, _GUARD_KINDS)],
                [n for n in members if isinstance(n, _GUARD_KINDS)],
            )

    # -- dirty-mask bookkeeping -------------------------------------------
    def _reset_dynamic(self) -> None:
        super()._reset_dynamic()
        self._dirty = (1 << len(self._rank_fire)) - 1
        for node in self._early:
            node.fire(self._values)

    def _poked(self, slot: int) -> None:
        """Dirty the slot's fanout, so downstream logic sees the write, and
        its own producer, so the next settle recomputes the clean value."""
        self._dirty |= self._reader_mask[slot]
        writer = self._writer.get(slot)
        if writer is not None:
            self._dirty |= 1 << self._rank_of[writer]

    # -- simulation core ----------------------------------------------------
    def _drain(self) -> None:
        """Fire the SCC of the dirty mask's lowest set bit until none is set.

        An acyclic SCC's fire returns the reader mask of what it changed.
        """
        rank_fire = self._rank_fire
        values = self._values
        d = self._dirty
        while d:
            low = d & -d
            d ^= low
            fire = rank_fire[low.bit_length() - 1]
            if fire is None:
                self._dirty = d
                self._run_cyclic_scc(low.bit_length() - 1)
                d = self._dirty
            else:
                d |= fire(values)
        self._dirty = 0

    def _run_cyclic_scc(self, rank: int) -> None:
        """Bounded fixpoint iteration inside one combinational cycle.

        The members iterate with compiled slot guards; the SCC's guard nodes
        are no fixpoint members but evaluate once, in creation order, after
        the cycle converges.
        """
        members, guards = self._cyclic[rank]
        reader_mask = self._reader_mask
        outside = ~(1 << rank)
        limit = 8 * (len(members) + 8)
        for _ in range(limit):
            any_change = False
            for node in members:
                for slot in node.sweep(self):
                    any_change = True
                    self._dirty |= reader_mask[slot] & outside
            if not any_change:
                values = self._values
                for node in guards:
                    self._dirty |= node.fire(values) & outside
                return
        self._diagnose_nonconvergence(limit)

    def _diagnose_nonconvergence(self, spent_iters: int) -> None:
        """The probe sweeps every node but the guard nodes. Converged late,
        those refresh and the dirty mask is satisfied wholesale."""
        super()._diagnose_nonconvergence(spent_iters)
        for node in self._nodes:
            if isinstance(node, _GUARD_KINDS):
                node.fire(self._values)
        self._dirty = 0

    def step_edge(self) -> bool:
        """The clock edge: advance control state, latch stateful children.

        Every executor with control steps on the settled slots while its
        ``go`` is high, and resets once ``go`` falls (the calling
        convention). Neither step writes a named slot, so each child reads
        the settled values of its input slots. Once every child has
        ticked, each whose tick did not return ``False`` is scheduled
        (:meth:`_refresh`). True if the outputs may have moved: a child
        was scheduled or some executor state can move.

        A child whose model declares an ``enable`` port is not ticked while
        that port is low and its last tick saw it low and returned
        ``False``: by the model's contract that tick would do nothing and
        return ``False`` again (:class:`~repro.stdlib.behaviors.PrimitiveModel`).
        """
        values = self._values
        for node in self._clocked:
            self._clock(node, values)
        ticked = [
            node for node in self._stateful_nodes if node.child.tick(node.inputs(values)) is not False
        ]
        for node in self._gated:
            enabled = values[node.enable_slot]
            if node.idle and not enabled:
                continue
            if node.child.tick(node.inputs(values)) is not False:
                node.idle = False
                ticked.append(node)
            else:
                node.idle = not enabled
        # Every tick has read the settled slots: now outputs may move.
        for node in ticked:
            self._refresh(node)
        return bool(self._clocked or ticked)

    def _refresh(self, node: _ChildNode) -> None:
        """Schedule a child whose state moved. An ``early`` one fires now,
        so no node ranked below it reads its old registered outputs; its
        combinational outputs fire again when their inputs move."""
        if node.early:
            self._dirty |= node.fire(self._values)
        else:
            self._dirty |= 1 << self._rank_of[node.index]

    def _clock(self, node: _ExecutorNode, values: List[int]) -> bool:
        """Step or reset one executor, marking what it drives."""
        finished = values[node.finished]
        if not super()._clock(node, values):
            return False
        self._dirty |= 1 << self._rank_of[node.index]
        if values[node.finished] != finished:
            self._dirty |= self._reader_mask[node.finished]
        return True

    def touch(self, path: str) -> None:
        """Re-evaluate the cell at dotted ``path`` at the next settle.

        For state written outside ``tick`` (a memory load): marks the
        cell's node, or fires it now if it is ``early``, and re-arms its tick.
        """
        super().touch(path)
        outer, _, name = path.rpartition(".")
        scope = self.find(outer) if outer else self
        index = scope._cell_node.get(name)
        if index is not None:
            node = self._nodes[index]
            node.idle = False
            self._refresh(node)
