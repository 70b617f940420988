"""The contract between the two engines of the simulator.

Every design the repo can produce — each ``examples/*.futil`` program and
each PolyBench kernel, compiled through every registered pipeline plus the
unlowered interpreter — must behave *bit-identically* under the reference
``sweep`` engine and the ``levelized`` engine: the differential
harness (:mod:`repro.robustness.difftest`) must find the same final
memories, cycle count, registers and done-net valuation. Any divergence
here means the levelized engine's scheduling (levelization, dirty-set
propagation, cycle fallback) or its shared guard nodes changed observable
semantics, and it is the levelized engine that is wrong.

Each distinct lowered program is simulated once: pipelines that print the
same IL for the same memories share one run (``_SIMULATED``), while every
pipeline still compiles. Problem sizes are kept small (:data:`EQUIV_N`)
so the full kernel-by-pipeline matrix stays affordable; the cross-check
is about engine agreement, not performance.
"""

import collections
import glob
import os

import pytest
from hypothesis import given, strategies as st

from repro.frontends.dahlia import compile_dahlia
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.ir.printer import print_program
from repro.ir.guards import G_TRUE, AndGuard, CmpGuard, NotGuard, OrGuard, PortGuard
from repro.ir.ports import CellPort, ConstPort
from repro.lint import lint_program
from repro.passes import PIPELINES, compile_program
from repro.robustness.difftest import compare, observe
from repro.sim import Testbench, Watchdog, eval_guard
from repro.sim.model import (
    _GUARD_FNS,
    _GUARD_NODE_OPS,
    ComponentInstance,
    _BankNode,
    _ChildNode,
    _DoneNode,
    _ExecutorNode,
    _GuardNode,
    _ResolverNode,
    _compile_slot_guard,
)
from repro.sim.reference import _SLOT_GUARD_OPS
from repro.stdlib.behaviors import PrimitiveModel
from repro.workloads.polybench import ALL_KERNELS, get_kernel
from tests.conftest import SUM_LOOP

#: Every way this repo can lower a program before simulating it.
#: ``interpret`` is the unlowered control-executor path; ``validate``
#: does not produce a simulatable design.
SIM_PIPELINES = ["interpret"] + [p for p in sorted(PIPELINES) if p != "validate"]

EXAMPLES = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "..", "examples", "*.futil")
    )
)

EQUIV_N = 2


#: Printed IL plus memories -> what both engines observed. Pipelines that
#: print the same program (``heuristic-share`` and ``register-share-only``
#: on every kernel, say) simulate it once; every pipeline still compiles.
_SIMULATED = {}


def run_both_engines(program, memories=None, max_cycles=500_000):
    """Run one program under both engines, asserting identical behavior.

    A program already simulated with the same memories is not run again.
    """
    key = (print_program(program), repr(sorted((memories or {}).items())))
    if key not in _SIMULATED:
        watchdog = Watchdog(max_cycles=max_cycles)
        sweep, levelized = (
            observe(program, memories, engine, watchdog)
            for engine in ("sweep", "levelized")
        )
        if sweep.error is not None:
            raise sweep.error
        divergence = compare(sweep, levelized, "levelized")
        assert divergence is None, divergence.describe()
        _SIMULATED[key] = sweep
    return _SIMULATED[key]


def build_example(path, pipeline):
    with open(path) as handle:
        program = parse_program(handle.read())
    if pipeline != "interpret":
        compile_program(program, pipeline)
    return program


def build_kernel(kernel, pipeline):
    design = compile_dahlia(kernel.source)
    if pipeline != "interpret":
        compile_program(design.program, pipeline)
    return design.program, design.split_memories(kernel.memories_for(False))


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES]
)
@pytest.mark.parametrize("pipeline", SIM_PIPELINES)
def test_examples_engine_equivalence(path, pipeline):
    program = build_example(path, pipeline)
    run_both_engines(program)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_polybench_engine_equivalence(name):
    kernel = get_kernel(name, n=EQUIV_N, unroll=2)
    for pipeline in SIM_PIPELINES:
        program, memories = build_kernel(kernel, pipeline)
        run_both_engines(program, memories)


def test_one_printed_program_is_simulated_once():
    """Pipelines that print the same program share one simulation."""
    path = next(p for p in EXAMPLES if p.endswith("sum_loop.futil"))
    programs = [build_example(path, p) for p in ("lower-static", "heuristic-share")]
    assert print_program(programs[0]) == print_program(programs[1])
    outcome = run_both_engines(programs[0])
    assert run_both_engines(programs[1]) is outcome
    assert run_both_engines(programs[1], {"mem": [1, 2, 3, 4]}) is not outcome


def test_example_cycle_counts_are_nontrivial():
    """Guard against the vacuous pass: designs actually run for cycles."""
    program = build_example(EXAMPLES[0], "interpret")
    outcome = run_both_engines(program)
    assert outcome.cycles > 0


def test_reference_strategy_does_not_use_compiled_guards(monkeypatch):
    """The oracle must stay independent of the guard nodes.

    With every guard node forced to evaluate true, the reference strategy —
    which builds no guard nodes and evaluates each driver's guard through
    evaluators resolved to slots, from its own ``_SLOT_GUARD_OPS`` table —
    still computes lowered SUM_LOOP exactly, while the levelized strategy,
    whose drivers read the guard nodes, does not.
    """
    program = parse_program(SUM_LOOP)
    compile_program(program, "lower")
    memories = {"mem": [1, 2, 3, 4]}
    clean = observe(program, memories)
    assert clean.memories["mem"][0] == 10
    for op in list(_GUARD_FNS):
        monkeypatch.setitem(_GUARD_FNS, op, lambda x, y: True)
    # An error (two drivers now both active, say) is a divergence too.
    watchdog = Watchdog(max_cycles=2_000)
    assert compare(clean, observe(program, memories, "sweep", watchdog)) is None
    forced = observe(program, memories, "levelized", watchdog)
    assert compare(clean, forced, fields=["cycles", "memories"]) is not None


def test_levelized_strategy_does_not_use_slot_guards(monkeypatch):
    """The mirror image: the guard nodes stay independent of the oracle.

    With every operator of the compiled slot guards forced to evaluate
    true, the reference strategy, whose resolvers evaluate those, no longer
    computes lowered SUM_LOOP, while the levelized strategy, whose drivers
    read the guard nodes, still does.
    """
    program = parse_program(SUM_LOOP)
    compile_program(program, "lower")
    memories = {"mem": [1, 2, 3, 4]}
    clean = observe(program, memories)
    assert clean.memories["mem"][0] == 10
    for op in list(_SLOT_GUARD_OPS):
        monkeypatch.setitem(_SLOT_GUARD_OPS, op, lambda *operands: lambda v: True)
    watchdog = Watchdog(max_cycles=2_000)
    assert compare(clean, observe(program, memories, "levelized", watchdog)) is None
    forced = observe(program, memories, "sweep", watchdog)
    assert compare(clean, forced, fields=["cycles", "memories"]) is not None


_PORTS = [CellPort(name, "out") for name in ("a", "b", "c")]


@st.composite
def _guards(draw, depth=0):
    """Guards over every operator, a constant on either side of a comparison."""
    kinds = ["port", "const", "true", "cmp"] + (["not", "and", "or"] if depth < 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "port":
        return PortGuard(draw(st.sampled_from(_PORTS)))
    if kind == "const":
        return PortGuard(ConstPort(2, draw(st.integers(0, 3))))
    if kind == "true":
        return G_TRUE
    if kind == "cmp":
        operand = st.one_of(
            st.sampled_from(_PORTS), st.builds(ConstPort, st.just(2), st.integers(0, 3))
        )
        op = draw(st.sampled_from(["==", "!=", "<", ">", "<=", ">="]))
        return CmpGuard(op, draw(operand), draw(operand))
    if kind == "not":
        return NotGuard(draw(_guards(depth + 1)))
    left, right = draw(_guards(depth + 1)), draw(_guards(depth + 1))
    return AndGuard(left, right) if kind == "and" else OrGuard(left, right)


@given(
    guards=st.lists(_guards(), min_size=1, max_size=3),
    values=st.lists(st.integers(0, 3), min_size=len(_PORTS), max_size=len(_PORTS)),
)
def test_slot_guard_matches_eval_guard(guards, values):
    """A guard compiled over slots, with either engine's operators,
    evaluates as ``eval_guard`` does."""
    # Slot 0 is left unread, so a port never lands on its list index.
    slots = {port: i + 1 for i, port in enumerate(_PORTS)}
    array = [7] + values

    def read(ref):
        return ref.value if isinstance(ref, ConstPort) else array[slots[ref]]

    for ops in (_SLOT_GUARD_OPS, _GUARD_NODE_OPS):
        memo = {}
        for guard in guards:
            compiled = _compile_slot_guard(guard, slots, ops, memo)
            assert bool(compiled(array)) == eval_guard(guard, read), guard.to_string()
            assert _compile_slot_guard(guard, slots, ops, memo) is compiled


def _operator_subguards(guard, out):
    """Collect every operator or comparison sub-guard of ``guard``."""
    if isinstance(guard, (NotGuard, AndGuard, OrGuard, CmpGuard)):
        out.add(guard)
    if isinstance(guard, NotGuard):
        _operator_subguards(guard.inner, out)
    elif isinstance(guard, (AndGuard, OrGuard)):
        _operator_subguards(guard.left, out)
        _operator_subguards(guard.right, out)


def _gemm(pipeline="all"):
    kernel = get_kernel("gemm", n=4)
    design = compile_dahlia(kernel.source)
    if pipeline is not None:
        compile_program(design.program, pipeline)
    return design.program, design.split_memories(kernel.memories_for(False))


def _gemm_interpreted():
    return _gemm(None)


def _gemm_unrolled():
    kernel = get_kernel("gemm", n=4, unroll=2)
    design = compile_dahlia(kernel.unrolled_source)
    compile_program(design.program, "all")
    return design.program, design.split_memories(kernel.memories_for(True))


def _systolic(n, pipeline):
    program = generate_systolic_array(SystolicConfig.square(n))
    if pipeline is not None:
        compile_program(program, pipeline)
    memories = {f"l{r}": [r + c + 1 for c in range(n)] for r in range(n)}
    memories.update({f"t{c}": [2 * c + k + 1 for k in range(n)] for c in range(n)})
    return program, memories


def _systolic_4x4():
    return _systolic(4, "all")


def _systolic_2x2_interpreted():
    return _systolic(2, None)


#: A genuine guard-dependent loop: ``x`` and ``y`` feed each other through
#: wires, and ``sel`` picks which of the two breaks the loop with a constant.
GUARD_LOOP = """
component main(go: 1) -> (done: 1) {
  cells {
    sel = std_reg(1);
    x = std_wire(8);
    y = std_wire(8);
    r = std_reg(8);
  }
  wires {
    group set_sel {
      sel.in = 1'd1; sel.write_en = 1'd1;
      set_sel[done] = sel.done;
    }
    group settle {
      x.in = sel.out ? 8'd5;
      x.in = !sel.out ? y.out;
      y.in = sel.out ? x.out;
      y.in = !sel.out ? 8'd7;
      r.in = y.out; r.write_en = 1'd1;
      settle[done] = r.done;
    }
  }
  control { seq { set_sel; settle; } }
}
"""


def _guard_loop_interpreted():
    return parse_program(GUARD_LOOP), {}


#: A registered output read below its cell's rank: ``M.done`` reads no
#: input, so the continuous ``x.in`` driver that reads it ranks below
#: ``M``, whose address is reached through ``wr``'s go. At the edge that
#: moves the executor to ``other``, ``M.done`` falls as ``other``'s go
#: rises; a reader that saw the old done with the new go would find two
#: drivers of ``x.in``.
REGISTERED_READER = """
component main(go: 1) -> (done: 1) {
  cells {
    @external M = std_mem_d1(8, 1, 1);
    x = std_wire(8);
    o = std_reg(8);
  }
  wires {
    group wr {
      M.addr0 = 1'd0; M.write_data = 8'd3; M.write_en = 1'd1;
      wr[done] = M.done;
    }
    group other {
      x.in = 8'd2;
      o.in = x.out; o.write_en = 1'd1;
      other[done] = o.done;
    }
    x.in = M.done ? 8'd1;
  }
  control { seq { wr; other; } }
}
"""


def _registered_reader_interpreted():
    return parse_program(REGISTERED_READER), {}


@pytest.mark.parametrize(
    "build",
    [_gemm_unrolled, _systolic_4x4, _systolic_2x2_interpreted],
    ids=["gemm-unrolled", "systolic-4x4", "systolic-2x2-interpreted"],
)
def test_guard_nodes_are_shared_and_invisible(build):
    """One slot per distinct sub-guard; no trace of them in the nets.

    ``main``'s guards repeat their enclosing control's prefix in every
    assignment, but the levelized netlist holds each distinct operator or
    comparison sub-guard once, as the hardware does: one slot, written by
    a guard node or by an entry of a comparator bank. Its unnamed slots,
    and the control executor's in an unlowered build, stay out of every
    view the testbench, watchdog and reports read.
    """
    program, memories = build()
    views = {}
    for engine in ("sweep", "levelized"):
        bench = Testbench(program, engine=engine)
        inst = bench.instance
        guard_nodes = [n for n in inst._nodes if isinstance(n, (_GuardNode, _BankNode))]
        if engine == "levelized":
            # Each definition's template holds them; each instance stamps its copy.
            scopes = (inst, *inst._scopes)
            for scope in scopes:
                distinct = set()
                for _, assign in scope.comp.all_assignments():
                    _operator_subguards(assign.guard, distinct)
                written = [
                    slot
                    for g in scope.template.guards
                    for slot in (g.out_slots if isinstance(g, _BankNode) else [g.slot])
                ]
                assert len(set(written)) == len(written) == len(distinct), scope.path
            assert len(guard_nodes) == sum(len(s.template.guards) for s in scopes)
        else:
            assert guard_nodes == []
        for path, values in memories.items():
            bench.write_mem(path, values)
        bench.run()
        views[engine] = (sorted(inst.nets, key=str), inst.state_dump())
    assert views["levelized"] == views["sweep"]


def _record_fires(monkeypatch, on_fire, on_tick=None):
    """Call ``on_fire(node)`` before every node evaluation, a drain's fire
    or a cyclic SCC's sweep, and ``on_tick(model)`` before every stateful
    model's clock edge."""
    for cls in (_BankNode, _ChildNode, _DoneNode, _ExecutorNode, _GuardNode, _ResolverNode):
        for name in ("fire", "sweep"):
            if not hasattr(cls, name):
                continue

            def evaluate(node, arg, _evaluate=getattr(cls, name)):
                on_fire(node)
                return _evaluate(node, arg)

            monkeypatch.setattr(cls, name, evaluate)
    if on_tick is not None:
        for cls in _stateful_models(PrimitiveModel):

            def tick(model, ins, _tick=cls.tick):
                on_tick(model)
                return _tick(model, ins)

            monkeypatch.setattr(cls, "tick", tick)


def _stateful_models(cls):
    """The subclasses of ``cls`` that define a ``tick`` of their own."""
    for sub in cls.__subclasses__():
        if "tick" in vars(sub):
            yield sub
        yield from _stateful_models(sub)


def _run_levelized(build):
    program, memories = build()
    bench = Testbench(program, engine="levelized")
    for path, values in memories.items():
        bench.write_mem(path, values)
    return bench.run()


@pytest.mark.parametrize(
    "build",
    [_gemm, _systolic_4x4, _gemm_interpreted, _registered_reader_interpreted],
    ids=["gemm", "systolic-4x4", "gemm-interpreted", "registered-reader-interpreted"],
)
def test_drain_fires_in_rank_order(build, monkeypatch):
    """Within one drain, the acyclic SCCs fire once each, in rank order.

    Ranks follow levels, so a node's predecessors that fire in the same
    drain fire before it. The nested instances are stamped into the
    root's array, so their nodes fire in the root's one drain. A cell
    whose registered output is read below its rank fires at the edge,
    before the drain, so no drain goes back down for it.
    """
    fired = []
    checked = collections.Counter()

    def drain(inst, _drain=ComponentInstance._drain):
        fired.clear()
        _drain(inst)
        # A cyclic SCC's members and guard nodes share its rank; only
        # acyclic ones count.
        acyclic = [n for n in fired if inst._rank_of[n.index] not in inst._cyclic]
        ranks = [inst._rank_of[n.index] for n in acyclic]
        assert all(a < b for a, b in zip(ranks, ranks[1:])), inst.path
        position = {n.index: i for i, n in enumerate(acyclic)}
        for i, node in enumerate(acyclic):
            reads = node.dep_slots if isinstance(node, _ChildNode) else node.in_slots
            for slot in reads:
                writer = inst._writer.get(slot)
                if writer is None:
                    continue
                # A registered output adds no edge: its writer may rank above.
                if slot in getattr(inst._nodes[writer], "comb_slots", (slot,)):
                    assert position.get(writer, -1) < i, (inst.path, node.index, writer)
        checked["all"] += len(acyclic)
        checked["banks"] += sum(1 for n in acyclic if isinstance(n, _BankNode))
        checked["nested"] += sum(
            1 for n in acyclic if isinstance(n, _ResolverNode) and n.path != inst.path
        )

    _record_fires(monkeypatch, fired.append)
    monkeypatch.setattr(ComponentInstance, "_drain", drain)
    _run_levelized(build)
    assert checked["all"] > 0
    if build is _gemm:
        assert checked["banks"] > 0  # the FSM state decoders
    if build is _systolic_4x4:
        assert checked["nested"] > 0  # the processing elements, in the root's drain


#: Levelized node evaluations per node class over one whole run, every
#: stamped instance included, and the stateful models' ``tick`` calls. An
#: evaluation is a drain's fire or, for a cyclic SCC's members, a sweep.
#: The schedule is deterministic, so these only move when the netlist or
#: its scheduling does. In the unlowered builds a done node fires only when
#: the control executor's finished slot moves.
PINNED_FIRES = {
    "gemm": (
        _gemm,
        1128,
        {
            "_BankNode": 1123, "_ChildNode": 4843, "_ExecutorNode": 1, "_GuardNode": 11344,
            "_ResolverNode": 10264, "tick": 3415,
        },
    ),
    "systolic-4x4": (
        _systolic_4x4,
        76,
        {
            "_BankNode": 563, "_ChildNode": 2094, "_ExecutorNode": 145, "_GuardNode": 1776,
            "_ResolverNode": 4426, "tick": 1778,
        },
    ),
    "gemm-interpreted": (
        _gemm_interpreted,
        1382,
        {
            "_ChildNode": 2771, "_DoneNode": 2, "_ExecutorNode": 1383, "_GuardNode": 195,
            "_ResolverNode": 10163, "tick": 1749,
        },
    ),
    "systolic-2x2-interpreted": (
        _systolic_2x2_interpreted,
        48,
        {
            "_ChildNode": 166, "_DoneNode": 22, "_ExecutorNode": 125, "_GuardNode": 40,
            "_ResolverNode": 780, "tick": 173,
        },
    ),
    "guard-loop-interpreted": (
        _guard_loop_interpreted,
        4,
        {
            "_ChildNode": 24, "_DoneNode": 2, "_ExecutorNode": 5, "_GuardNode": 2,
            "_ResolverNode": 41, "tick": 6,
        },
    ),
    "registered-reader-interpreted": (
        _registered_reader_interpreted,
        4,
        {"_ChildNode": 11, "_DoneNode": 2, "_ExecutorNode": 5, "_ResolverNode": 30, "tick": 6},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FIRES))
def test_node_fire_counts_are_pinned(name, monkeypatch):
    build, cycles, expected = PINNED_FIRES[name]
    fires = collections.Counter()
    _record_fires(
        monkeypatch,
        lambda node: fires.update([type(node).__name__]),
        lambda model: fires.update(["tick"]),
    )
    assert _run_levelized(build).cycles == cycles
    assert dict(fires) == expected


def test_a_guard_dependent_loop_converges_in_its_scc(monkeypatch):
    """A loop only the guards can close is the levelized schedule's one
    cyclic SCC: the two wires and their input resolvers. Its fixpoint
    converges every time the drain reaches it, over guards compiled for
    its members, and agrees with the reference; lint warns of the loop."""
    converged = []

    def run_cyclic_scc(inst, rank, _run=ComponentInstance._run_cyclic_scc):
        _run(inst, rank)
        converged.append(rank)

    monkeypatch.setattr(ComponentInstance, "_run_cyclic_scc", run_cyclic_scc)
    results = {}
    for engine in ("sweep", "levelized"):
        bench = Testbench(parse_program(GUARD_LOOP), engine=engine)
        results[engine] = (bench.run().cycles, bench.instance.find_model("r").value)
    assert results == {"sweep": (4, 5), "levelized": (4, 5)}
    inst = bench.instance
    ((members, guards),) = inst._cyclic.values()
    assert sorted(type(n).__name__ for n in members) == ["_ChildNode"] * 2 + ["_ResolverNode"] * 2
    assert guards == []
    assert all(
        d.guard is not None for n in members if isinstance(n, _ResolverNode) for d in n.drivers
    )
    assert converged and set(converged) == set(inst._cyclic)
    report = lint_program(parse_program(GUARD_LOOP))
    assert [d.rule for d in report.diagnostics] == ["comb-cycle-maybe"]


def test_a_registered_output_read_below_its_cell_is_fresh():
    """``M`` ranks above the resolver of ``x.in``, which reads ``M.done``;
    ``M`` fires at the edge, so the resolver never pairs the old done with
    the new go, and both engines agree."""
    results = {}
    for engine in ("sweep", "levelized"):
        bench = Testbench(parse_program(REGISTERED_READER), engine=engine)
        results[engine] = (bench.run().cycles, bench.instance.find_model("o").value)
    assert results == {"sweep": (4, 2), "levelized": (4, 2)}
    inst = bench.instance
    memory = inst._nodes[inst._cell_node["M"]]
    (x_in,) = [
        n for n in inst._nodes
        if isinstance(n, _ResolverNode) and n.slot == inst._slots[CellPort("x", "in")]
    ]
    assert inst._rank_of[x_in.index] < inst._rank_of[memory.index]
    assert inst._early == [memory]


def _kernel(name, unrolled):
    kernel = get_kernel(name, n=4)
    design = compile_dahlia(kernel.unrolled_source if unrolled else kernel.source)
    compile_program(design.program, "all")
    return design.program


#: The levelized schedule of each perfbench design under ``all`` — the
#: systolic arrays and the Fig. 8 fast subset at n=4, plain and unrolled:
#: its nodes, its levels and its cyclic SCCs. Deterministic, so they move
#: only when the netlist or its scheduling does; no design has a cycle.
SCHEDULE_COUNTERS = {
    "systolic-4x4": (lambda: _systolic(4, "all")[0], (894, 13, 0)),
    "systolic-8x8": (lambda: _systolic(8, "all")[0], (3138, 17, 0)),
    "atax": (lambda: _kernel("atax", False), (265, 13, 0)),
    "gemm": (lambda: _kernel("gemm", False), (269, 15, 0)),
    "gesummv": (lambda: _kernel("gesummv", False), (212, 15, 0)),
    "mvt": (lambda: _kernel("mvt", False), (243, 13, 0)),
    "trisolv": (lambda: _kernel("trisolv", False), (185, 15, 0)),
    "atax-unrolled": (lambda: _kernel("atax", True), (350, 15, 0)),
    "gemm-unrolled": (lambda: _kernel("gemm", True), (384, 17, 0)),
    "gesummv-unrolled": (lambda: _kernel("gesummv", True), (418, 17, 0)),
    "mvt-unrolled": (lambda: _kernel("mvt", True), (483, 15, 0)),
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_COUNTERS))
def test_schedule_counters_are_pinned(name):
    build, expected = SCHEDULE_COUNTERS[name]
    inst = Testbench(build(), engine="levelized").instance
    assert (len(inst._nodes), inst._level_count, len(inst._cyclic)) == expected
