"""Black-box RTL (extern) components — paper Section 6.2's sqrt example.

Externs have no Calyx body; simulation uses a registered Python model and
code generation leaves the module definition to the linked file. A
data-dependent-latency sqrt mixes latency-insensitive compilation with
static neighbors (the paper's headline compositionality claim).
"""

import collections

import pytest

from repro.backend import emit_verilog
from repro.ir import parse_program
from repro.ir.attributes import STATIC
from repro.passes import compile_program, get_pass
from repro.robustness.difftest import compare, observe
from repro.sim import Testbench, run_program
from repro.lint import lint_program
from repro.stdlib.behaviors import EXTERN_MODELS, PrimitiveModel, SqrtModel
from tests.conftest import compile_source

SQRT_PROGRAM = """
extern "sqrt.sv" {
  component sqrt(in: 32, go: 1) -> (out: 32, done: 1);
}
component main(go: 1) -> (done: 1) {
  cells {
    s = sqrt();
    @external mem = std_mem_d1(32, 2, 1);
    r = std_reg(32);
  }
  wires {
    group load {
      mem.addr0 = 1'd0;
      r.in = mem.read_data; r.write_en = 1;
      load[done] = r.done;
    }
    group root {
      s.in = r.out;
      s.go = !s.done ? 1;
      root[done] = s.done;
    }
    group store {
      mem.addr0 = 1'd1;
      mem.write_data = s.out;
      mem.write_en = 1;
      store[done] = mem.done;
    }
  }
  control { seq { load; root; store; } }
}
"""


@pytest.fixture(autouse=True)
def register_sqrt_model():
    EXTERN_MODELS["sqrt"] = lambda args: SqrtModel((32,))
    yield
    EXTERN_MODELS.pop("sqrt", None)


class TestExternSimulation:
    def test_interpreted(self):
        result = run_program(parse_program(SQRT_PROGRAM), memories={"mem": [144, 0]})
        assert result.mem("mem") == [144, 12]

    @pytest.mark.parametrize("pipeline", ["lower", "lower-static", "all"])
    def test_lowered(self, pipeline):
        prog = parse_program(SQRT_PROGRAM)
        compile_program(prog, pipeline)
        result = run_program(prog, memories={"mem": [625, 0]})
        assert result.mem("mem") == [625, 25]

    def test_latency_depends_on_data(self):
        small = run_program(parse_program(SQRT_PROGRAM), memories={"mem": [4, 0]})
        big = run_program(
            parse_program(SQRT_PROGRAM), memories={"mem": [1 << 30, 0]}
        )
        assert big.cycles > small.cycles

    def test_sqrt_group_stays_dynamic(self):
        """No static latency can be inferred for the extern call, but the
        neighbors still get one — graceful mixing (Section 4.4)."""
        prog = parse_program(SQRT_PROGRAM)
        get_pass("infer-latency").run(prog)
        assert not prog.main.get_group("root").attributes.has(STATIC)
        assert prog.main.get_group("load").attributes.get(STATIC) == 1
        assert prog.main.get_group("store").attributes.get(STATIC) == 1


class TestExternCodegen:
    def test_verilog_instantiates_but_does_not_define(self):
        prog = parse_program(SQRT_PROGRAM)
        compile_program(prog, "lower")
        text = emit_verilog(prog)
        assert "sqrt s (" in text
        assert "module sqrt" not in text  # linked from sqrt.sv


INCR_PROGRAM = """
extern "incr.sv" {
  component incr(in: 8) -> (out: 8);
}
component main(go: 1) -> (done: 1) {
  cells {
    b = incr();
    @external mem = std_mem_d1(8, 1, 1);
  }
  wires {
    %s
    group write {
      b.in = 8'd41;
      mem.addr0 = 1'd0;
      mem.write_data = b.out;
      mem.write_en = 1;
      write[done] = mem.done;
    }
  }
  control { write; }
}
"""


class IncrModel(PrimitiveModel):
    """An extern model written without ``comb_deps``.

    Ports follow the extern declaration, which gains the implicit
    interface: inputs ``(in, go)``, outputs ``(out, done)``.
    """

    def comb(self, ins):
        return ((ins[0] + 1) & 0xFF, 0)


class TestUndeclaredCombDeps:
    """A model without ``comb_deps`` counts as fully combinational."""

    @pytest.fixture(autouse=True)
    def register_incr_model(self):
        EXTERN_MODELS["incr"] = IncrModel
        yield
        EXTERN_MODELS.pop("incr", None)

    @pytest.mark.parametrize("engine", ["sweep", "levelized"])
    def test_simulation_follows_inputs(self, engine):
        result = run_program(parse_program(INCR_PROGRAM % ""), engine=engine)
        assert result.mem("mem") == [42]

    def test_lint_assumed_cycle_is_only_a_warning(self):
        report = lint_program(parse_program(INCR_PROGRAM % "b.in = b.out;"))
        assert "comb-cycle-maybe" in {d.rule for d in report.warnings}
        assert "comb-cycle" not in {d.rule for d in report.errors}


COUNTER_PROGRAM = """
extern "counter.sv" {
  component counter(en: 1) -> (count: 8);
}
component main(go: 1) -> (done: 1) {
  cells {
    c = counter();
    @external mem = std_mem_d1(8, 1, 1);
    r = std_reg(8);
  }
  wires {
    group bump {
      c.en = 1'd1;
      r.in = c.count; r.write_en = 1;
      bump[done] = r.done;
    }
    group store {
      mem.addr0 = 1'd0; mem.write_data = c.count; mem.write_en = 1;
      store[done] = mem.done;
    }
  }
  control { seq { bump; bump; bump; store; } }
}
"""


class CounterModel(PrimitiveModel):
    """A stateful extern written to the old protocol: ``tick`` returns
    ``None``. Its output is registered, so only the edge can show a change.

    Ports: inputs ``(en, go)``, outputs ``(count, done)``.
    """

    comb_deps = {"count": [], "done": []}

    def __init__(self, args):
        super().__init__(args)
        self.count = 0

    def comb(self, ins):
        return (self.count, 0)

    def tick(self, ins):
        if ins[0]:
            self.count = (self.count + 1) & 0xFF

    def reset(self):
        self.count = 0


class TestOldProtocolTick:
    """A tick that reports nothing counts as a change."""

    @pytest.fixture(autouse=True)
    def register_counter_model(self):
        EXTERN_MODELS["counter"] = CounterModel
        yield
        EXTERN_MODELS.pop("counter", None)

    @pytest.mark.parametrize("pipeline", [None, "lower", "all"])
    def test_engines_agree(self, pipeline):
        prog = compile_source(COUNTER_PROGRAM, pipeline)
        sweep, levelized = (observe(prog, engine=e) for e in ("sweep", "levelized"))
        assert sweep.memories["mem"][0] > 0
        assert compare(sweep, levelized) is None

    def test_model_without_enable_is_ticked_every_edge(self):
        """Only a model that declares ``enable`` may skip an idle edge."""
        bench = Testbench(compile_source(COUNTER_PROGRAM, None), engine="levelized")
        ticks = collections.Counter()
        for path in ("c", "r"):
            model = bench.instance.find_model(path)

            def tick(ins, _tick=model.tick, _path=path):
                ticks[_path] += 1
                return _tick(ins)

            model.tick = tick
        result = bench.run()
        assert CounterModel.enable is None
        assert ticks["c"] == result.cycles
        assert 0 < ticks["r"] < result.cycles  # std_reg's write_en arms its edge
