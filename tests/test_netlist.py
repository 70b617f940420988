"""The per-definition netlist that validation, lint and the engine share.

* its port table resolves what resolves and records why the rest does
  not, with the error class and text the engine raises;
* its engine dependencies (``comb_input_deps``) are pinned on every nested
  definition of the test programs and of systolic arrays 2–4, at the
  source and after ``all``, as the engine computed them per instance
  before the netlist existed;
* one call builds one netlist per definition, however many cells
  instantiate it, and resolves each cell kind once;
* a build, a lint and the backends leave nothing for the cyclic collector;
* a primitive's signature mapping, shared by every cell, is read-only.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.netlist import Netlist, Netlists, Unresolved
from repro.backend import emit_verilog, estimate_resources
from repro.frontends.dahlia import compile_dahlia
from repro.errors import UndefinedError, ValidationError
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.ir.ast import Assignment, CellPort, Program, ThisPort
from repro.ir.types import Direction, PortDef
from repro.lint import lint_program
from repro.passes import compile_program
from repro.sim import Testbench
from repro.stdlib.primitives import get_primitive
from repro.workloads.polybench import get_kernel
from tests.test_sim import HOLDER, LATCH
from tests.test_static_and_sharing import PAR_INVOKES

MALFORMED = """
component sub(a: 8, a: 8) -> (y: 8) {
  cells {}
  wires { y = a; }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells {
    r = std_reg(8);
    bad = std_reg(8, 9);
    x = nosuch(8);
    s = sub();
  }
  wires {
    r.in = ghost.out;
    r.write_en = nope;
    done = r.nope;
    x.in = 8'd1;
  }
  control {}
}
"""

#: A subcomponent whose inputs reach outputs through a primitive (add),
#: a guard (sel), a comparator (b) and a memory's read port (addr).
COMB_PASS = """
component pass(a: 8, b: 8, sel: 1, addr: 1) -> (y: 8, z: 1, m: 8) {
  cells {
    add = std_add(8); lt = std_lt(8); r = std_reg(8);
    mem = std_mem_d1(8, 2, 1);
  }
  wires {
    add.left = a; add.right = 8'd1;
    y = sel ? add.out;
    lt.left = r.out; lt.right = b;
    z = lt.out;
    mem.addr0 = addr;
    m = mem.read_data;
  }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells { p = pass(); r = std_reg(8); }
  wires {
    p.a = 8'd1; p.b = 8'd2; p.sel = 1'd1; p.addr = 1'd0;
    group g { r.in = p.y; r.write_en = 1'd1; g[done] = r.done; }
  }
  control { g; }
}
"""

#: Paths only the engine has: ``ready`` finishes ``hold``, whose go hole
#: gates ``out``; ``start`` drives ``inner``'s go hole, which gates ``o2``.
WAITER = """
component waiter(ready: 1, v: 8, start: 1) -> (out: 8, o2: 8) {
  cells { r = std_reg(8); }
  wires {
    group hold { out = 8'd7; hold[done] = ready; }
    group cp { r.in = v; r.write_en = 1'd1; cp[done] = r.done; }
    group outer { inner[go] = start; outer[done] = inner[done]; }
    group inner { o2 = 8'd3; inner[done] = r.done; }
  }
  control { seq { hold; cp; outer; } }
}
component main(go: 1) -> (done: 1) {
  cells { w = waiter(); }
  wires {}
  control { invoke w(ready=1'd1, v=8'd2, start=1'd1)(); }
}
"""

#: Invoke bindings are wires in the engine: ``x`` reaches ``y`` through
#: ``echo``'s own combinational path.
RELAY = """
component echo(i: 8) -> (o: 8) {
  cells { r = std_reg(1); }
  wires {
    o = i;
    group tick { r.in = 1'd1; r.write_en = 1'd1; tick[done] = r.done; }
  }
  control { tick; }
}
component relay(x: 8) -> (y: 8) {
  cells { e = echo(); }
  wires {}
  control { invoke e(i=x)(o=y); }
}
component main(go: 1) -> (done: 1) {
  cells { rl = relay(); }
  wires {}
  control { invoke rl(x=8'd4)(); }
}
"""

PROGRAMS = {
    "holder": HOLDER,
    "latch": LATCH,
    "par-invokes": PAR_INVOKES,
    "comb-pass": COMB_PASS,
    "waiter": WAITER,
    "relay": RELAY,
}

#: Each nested definition's ``comb_input_deps``, as every engine instance
#: of it computed them from its own slot graph before the netlist.
PINNED_DEPS = {
    "holder/source": {"holder": []},
    "holder/all": {},
    "latch/source": {"latch": []},
    "latch/all": {"latch": ["go"]},
    "par-invokes/source": {"add1": ["go"]},
    "par-invokes/all": {"add1": []},
    "comb-pass/source": {"pass": ["a", "b", "sel", "addr"]},
    "comb-pass/all": {"pass": ["a", "b", "sel", "addr", "go"]},
    "waiter/source": {"waiter": ["ready", "start", "go"]},
    "waiter/all": {"waiter": ["ready", "start", "go"]},
    "relay/source": {"relay": ["x", "go"], "echo": ["i", "go"]},
    "relay/all": {"relay": ["x", "go"], "echo": ["i"]},
    "systolic-2/source": {"mac_pe": ["go"]},
    "systolic-2/all": {"mac_pe": []},
    "systolic-3/source": {"mac_pe": ["go"]},
    "systolic-3/all": {"mac_pe": []},
    "systolic-4/source": {"mac_pe": ["go"]},
    "systolic-4/all": {"mac_pe": []},
}


def _malformed() -> Netlist:
    """``main``'s netlist in :data:`MALFORMED`."""
    program = parse_program(MALFORMED)
    # The parser sizes constants through these cells, so add it afterwards.
    program.main.continuous.append(Assignment(CellPort("s", "a"), CellPort("bad", "out")))
    return Netlists(program).of(program.main)


def _build(key: str) -> Program:
    name, stage = key.split("/")
    if name.startswith("systolic-"):
        program = generate_systolic_array(SystolicConfig.square(int(name.split("-")[1])))
    else:
        program = parse_program(PROGRAMS[name])
    if stage == "all":
        compile_program(program, "all")
    return program


def _nested_deps(program: Program):
    deps = {}

    def walk(net):
        for cell in net.comp.cells.values():
            child = net.definition(cell)
            if child is not None:
                deps[child.comp.name] = child.comb_input_deps
                walk(child)

    walk(Netlists(program).of(program.main))
    return deps


class TestPortTable:
    def test_resolved_entries(self):
        net = _malformed()
        assert net.port(ThisPort("go")) == PortDef("go", 1, Direction.INPUT)
        assert net.port(CellPort("r", "out")) == PortDef("out", 8, Direction.OUTPUT)
        assert net.width(CellPort("r", "in")) == 8
        assert net.is_writable(CellPort("r", "in")) is True
        assert net.is_readable(CellPort("r", "in")) is False

    def test_unresolved_reasons(self):
        net = _malformed()
        assert net.port(ThisPort("nope")) == Unresolved("component 'main' has no port 'nope'")
        assert net.port(CellPort("ghost", "out")) == Unresolved(
            "ghost.out names an undefined cell 'ghost'"
        )
        assert net.port(CellPort("r", "nope")) == Unresolved(
            "cell 'r' (std_reg) has no port 'nope'", "r"
        )
        # A port of a cell that does not resolve defers to the cell's reason.
        for cell in ("bad", "x", "s"):
            assert net.port(CellPort(cell, "in")) == Unresolved(None, cell)
            assert net.width(CellPort(cell, "in")) is None

    def test_cell_failures_and_the_errors_the_engine_raises(self):
        net = _malformed()
        expected = {
            "bad": (ValidationError, "primitive 'std_reg' takes 1 parameter(s) (WIDTH), got 2"),
            "x": (UndefinedError, "unknown primitive 'nosuch'"),
            "s": (ValidationError, "component 'sub' declares port 'a' twice"),
        }
        for cell, (error, text) in expected.items():
            assert net.cell_failure(cell) == text
            assert net.cell_signature(cell) is None
            with pytest.raises(error) as raised:
                net.netlists.cell_facts(net.comp.cells[cell])
            assert str(raised.value) == text
        assert net.cell_failure("r") is None

    def test_lint_reports_each_reason_once(self):
        program = _malformed().program
        messages = [d.message for d in lint_program(program) if d.rule == "unknown-name"]
        assert messages == [
            "cell 'bad' does not instantiate a known component: "
            "primitive 'std_reg' takes 1 parameter(s) (WIDTH), got 2",
            "cell 'x' does not instantiate a known component: unknown primitive 'nosuch'",
            "cell 's' does not instantiate a known component: "
            "component 'sub' declares port 'a' twice",
            "continuous assignments: ghost.out names an undefined cell 'ghost'",
            "continuous assignments: component 'main' has no port 'nope'",
            "continuous assignments: cell 'r' (std_reg) has no port 'nope'",
        ]


@pytest.mark.parametrize("key", sorted(PINNED_DEPS))
def test_comb_input_deps_are_pinned(key):
    assert _nested_deps(_build(key)) == PINNED_DEPS[key]


def test_pairs_follow_wires_and_primitive_paths():
    program = parse_program(COMB_PASS)
    net = Netlists(program).of(program.get_component("pass"))
    assert net.pairs == {"a": {"y"}, "b": {"z"}, "sel": {"y"}, "addr": {"m"}}
    assert net.cycles == []


def test_a_self_instantiating_definition_has_no_pairs_through_itself():
    program = parse_program(
        """
        component loop(i: 8) -> (o: 8) {
          cells { inner = loop(); }
          wires { inner.i = i; o = inner.o; }
          control {}
        }
        component main(go: 1) -> (done: 1) { cells {} wires {} control {} }
        """
    )
    net = Netlists(program).of(program.get_component("loop"))
    assert net.pairs == {}


def _count_netlists(monkeypatch):
    built = []
    original = Netlist.__init__

    def counting(self, netlists, comp):
        built.append(comp.name)
        original(self, netlists, comp)

    monkeypatch.setattr(Netlist, "__init__", counting)
    return built


@pytest.mark.parametrize("engine", ["levelized", "sweep"])
def test_one_netlist_per_definition_per_call(engine, monkeypatch):
    program = generate_systolic_array(SystolicConfig.square(4))
    compile_program(program, "all")
    built = _count_netlists(monkeypatch)
    bench = Testbench(program, engine=engine)
    assert len(bench.instance._sub_instances) == 16
    assert sorted(built) == ["mac_pe", "main"]
    built.clear()
    lint_program(program)
    assert sorted(built) == ["mac_pe", "main"]


@pytest.mark.parametrize("engine", ["levelized", "sweep"])
def test_one_cell_table_entry_per_kind_per_call(engine, monkeypatch):
    """A build resolves each distinct ``(comp_name, args)`` once, however
    many cells share it: 111 cells of 12 kinds in the 4x4 array's main."""
    program = generate_systolic_array(SystolicConfig.square(4))
    compile_program(program, "all")
    resolved = []
    original = Program.cell_signature

    def counting(self, cell):
        resolved.append((cell.comp_name, cell.args))
        return original(self, cell)

    monkeypatch.setattr(Program, "cell_signature", counting)
    Testbench(program, engine=engine)
    assert len(resolved) == len(set(resolved))
    main = program.get_component("main")
    kinds = {(cell.comp_name, cell.args) for cell in main.cells.values()}
    assert (len(main.cells), len(kinds)) == (111, 12)
    assert kinds <= set(resolved)


def _atax_all():
    kernel = get_kernel("atax", n=4)
    design = compile_dahlia(kernel.source)
    compile_program(design.program, "all")
    return design.program, design.split_memories(kernel.memories_for(False))


def _systolic_4x4_all():
    program = generate_systolic_array(SystolicConfig.square(4))
    compile_program(program, "all")
    memories = {f"l{r}": [r + 1] * 4 for r in range(4)}
    memories.update({f"t{c}": [c + 1] * 4 for c in range(4)})
    return program, memories


@pytest.mark.parametrize("build", [_systolic_4x4_all, _atax_all], ids=["systolic-4x4", "atax"])
def test_a_build_is_freed_by_refcount(build):
    """Nothing of an engine build and run (either engine), a lint or the
    backends waits for the cyclic collector: the cell table holds names,
    never a netlist, and a netlist's table holds it weakly."""
    program, memories = build()
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for engine in ("levelized", "sweep"):
            bench = Testbench(program, engine=engine)
            for path, values in memories.items():
                bench.write_mem(path, values)
            bench.run()
            del bench
        lint_program(program)
        estimate_resources(program)
        emit_verilog(program)
        gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage[kept:]})
    finally:
        del gc.garbage[kept:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert kinds == []


def test_primitive_signatures_are_shared_and_read_only():
    sig = get_primitive("std_reg").signature((8,))
    assert get_primitive("std_reg").signature((8,)) is sig
    with pytest.raises(TypeError):
        sig["in"] = PortDef("in", 4, Direction.INPUT)
    with pytest.raises(TypeError):
        del sig["out"]
