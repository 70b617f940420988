"""The levelized engine stamps every nested instance into one slot array.

Each component definition is built once into a template, and each nested
instance is that template at a base slot of the root's array. Everything a
user reads about a nested instance goes through a view of it — ``find``,
``memory_paths``, ``nets``, ``state_dump``, the done nets, the watchdog's
reports and the errors' paths — and must read exactly as the ``sweep``
reference's own nested instances do.
"""

import pytest

from repro.errors import DeadlockError, MultipleDriverError, OscillationError, UndefinedError
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.ir.ports import CellPort, ThisPort
from repro.passes import compile_program
from repro.robustness.difftest import canonical_done_nets
from repro.sim import ComponentInstance, Testbench, Watchdog
from repro.sim.model import _Scope, _Template
from repro.stdlib.behaviors import MemModel, RegModel
from tests.test_sim import HOLDER, LATCH, _count_drains
from tests.test_static_and_sharing import PAR_INVOKES


def _systolic(n, pipeline):
    program = generate_systolic_array(SystolicConfig.square(n))
    if pipeline is not None:
        compile_program(program, pipeline)
    memories = {f"l{r}": [r + c + 1 for c in range(n)] for r in range(n)}
    memories.update({f"t{c}": [2 * c + k + 1 for k in range(n)] for c in range(n)})
    return program, memories


DESIGNS = {
    **{
        f"systolic-{n}x{n}-{pipeline}": (lambda n=n, p=pipeline: _systolic(n, p))
        for n in (2, 3, 4)
        for pipeline in ("all", None)
    },
    "holder": lambda: (parse_program(HOLDER), {}),
    "latch": lambda: (parse_program(LATCH), {"mem": [0]}),
    "par-invokes": lambda: (parse_program(PAR_INVOKES), {"mem": [0, 0]}),
}


def _cell_paths(scope, prefix=""):
    for name, child in scope.children.items():
        yield prefix + name
        if isinstance(child, _Scope):
            yield from _cell_paths(child, f"{prefix}{name}.")


def _model_state(model):
    if isinstance(model, MemModel):
        return list(model.data)
    if isinstance(model, RegModel):
        return model.value, model.done
    return None


def _views(bench):
    """What a user can read about the instance tree after a run."""
    inst = bench.instance
    found = {}
    for path in _cell_paths(inst):
        node = inst.find(path)
        if isinstance(node, _Scope):
            with pytest.raises(UndefinedError) as info:
                inst.find_model(path)
            found[path] = ("instance", node.path, str(info.value))
        else:
            found[path] = (type(node).__name__, _model_state(inst.find_model(path)))
    return {
        "find": found,
        "memory_paths": bench.memory_paths(),
        "nets": sorted(inst.nets, key=str),
        "state_dump": inst.state_dump(),
        "done_nets": canonical_done_nets(inst),
        "stuck": (inst.stuck_groups(), inst.deadlock_report()),
    }


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_views_match_sweep(name):
    program, memories = DESIGNS[name]()
    views, cycles = {}, {}
    for engine in ("sweep", "levelized"):
        bench = Testbench(program, engine=engine)
        for path, values in memories.items():
            bench.write_mem(path, values)
        cycles[engine] = bench.run().cycles
        views[engine] = _views(bench)
    assert cycles["levelized"] == cycles["sweep"]
    assert views["levelized"] == views["sweep"]


def test_nested_views_read_the_root_array():
    program, _ = _systolic(2, None)
    inst = Testbench(program).instance
    pe = inst.find("pe_00")
    assert isinstance(pe, _Scope) and not isinstance(pe, ComponentInstance)
    assert pe._values is inst._values and pe._base > 0
    assert pe.template is inst.find("pe_11").template
    # A parent's cell port and the child's own port are one slot.
    assert inst._slots[CellPort("pe_00", "top")] == pe._base + pe._slots[ThisPort("top")]


STUCK = """
component stuck(go: 1) -> (done: 1) {
  cells { r = std_reg(8); }
  wires { group wait { r.in = 8'd1; wait[done] = r.done; } }
  control { wait; }
}
component main(go: 1) -> (done: 1) {
  cells { s = stuck(); t = stuck(); }
  wires {}
  control { par { invoke s()(); invoke t()(); } }
}
"""


@pytest.mark.parametrize("pipeline", [None, "lower"])
def test_nested_deadlock_reports_match_sweep(pipeline):
    program = parse_program(STUCK)
    if pipeline is not None:
        compile_program(program, pipeline)
    reports = {}
    for engine in ("sweep", "levelized"):
        with pytest.raises(DeadlockError) as info:
            Testbench(program, engine=engine).run(watchdog=Watchdog(deadlock_window=16))
        exc = info.value
        reports[engine] = (str(exc), exc.stuck_groups, exc.cycles, exc.state_dump)
    assert reports["levelized"] == reports["sweep"]
    if pipeline is None:
        assert reports["sweep"][1] == ["main.s.wait", "main.t.wait"]


RACER = """
component racer(go: 1) -> (done: 1) {
  cells { r = std_reg(8); }
  wires {
    group g { r.in = 8'd1; r.in = RACE; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
component main(go: 1) -> (done: 1) {
  cells { a = racer(); b = racer(); }
  wires {}
  control { seq { invoke a()(); invoke b()(); } }
}
"""


@pytest.mark.parametrize("race", ["8'd2", "go ? 8'd2"], ids=["definite", "at-runtime"])
def test_nested_driver_race_errors_match_sweep(race):
    program = parse_program(RACER.replace("RACE", race))
    errors = {}
    for engine in ("sweep", "levelized"):
        with pytest.raises(MultipleDriverError) as info:
            Testbench(program, engine=engine).run(max_cycles=100)
        errors[engine] = str(info.value)
    assert errors["levelized"] == errors["sweep"]
    assert errors["sweep"].startswith("main.a: port r.in ")


LOOP_THROUGH_CHILD = """
component inv(in: 1) -> (out: 1) {
  cells { n = std_not(1); }
  wires { n.in = in; out = n.out; }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells { a = inv(); r = std_reg(1); }
  wires {
    a.in = a.out;
    group g { r.in = a.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""


def test_oscillation_through_a_nested_instance():
    program = parse_program(LOOP_THROUGH_CHILD)
    nets = {}
    for engine in ("sweep", "levelized"):
        with pytest.raises(OscillationError) as info:
            Testbench(program, engine=engine).run(max_cycles=10)
        nets[engine] = info.value.nets
    assert nets["sweep"] == ["a.in", "a.out", "r.in"]
    # The flat array names each slot once, a cell port by the parent's name,
    # and sees inside the child.
    assert nets["levelized"] == ["a.in", "a.n.in", "a.n.out", "a.out", "r.in"]


def _count_templates(monkeypatch):
    built = []
    original = _Template.__init__

    def counting(self, netlist, templates):
        built.append(netlist.comp.name)
        original(self, netlist, templates)

    monkeypatch.setattr(_Template, "__init__", counting)
    return built


@pytest.mark.parametrize(
    "n, engine",
    [pytest.param(n, engine, id=f"{n}-sweep" if engine == "sweep" else str(n))
     for engine in ("levelized", "sweep") for n in (4, 8)],
)
def test_one_template_per_definition(n, engine, monkeypatch):
    """Both engines build each definition's template once: ``levelized``
    stamps it for every processing element, and ``sweep``'s nested
    instances share it."""
    program, _ = _systolic(n, "all")
    built = _count_templates(monkeypatch)
    inst = Testbench(program, engine=engine).instance
    assert sorted(built) == ["mac_pe", "main"]
    if engine == "levelized":
        assert len(inst._scopes) == n * n
    else:
        pes = inst._sub_instances
        assert len(pes) == n * n and all(pe.template is pes[0].template for pe in pes)


def test_one_drain_per_settle(monkeypatch):
    program, memories = _systolic(4, "all")
    bench = Testbench(program)
    for path, values in memories.items():
        bench.write_mem(path, values)
    counts = _count_drains(bench, monkeypatch)
    result = bench.run()
    assert counts["settles"] == result.cycles + 1
    assert counts["drains"] <= counts["settles"]
