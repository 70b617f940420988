"""Tests for the simulator: settle semantics, control execution, timing."""

import collections

import pytest

from repro.errors import (
    CombinationalLoopError,
    MultipleDriverError,
    SimulationError,
    UndefinedError,
    ValidationError,
)
from repro.ir import parse_program
from repro.ir.ast import ThisPort
from repro.ir.validate import validate_program
from repro.robustness.difftest import compare, difftest_program, observe
from repro.sim import ComponentInstance, Testbench, run_program
from tests.conftest import SUM_LOOP, TWO_WRITES, compile_source, run_source


class TestBasicExecution:
    def test_two_writes(self):
        tb = Testbench(parse_program(TWO_WRITES))
        tb.run()
        assert tb.register_value("x") == 5
        assert tb.register_value("y") == 5

    def test_two_writes_timing(self):
        # Latency-insensitive semantics: each register write takes 2
        # cycles (write + done observation).
        result = run_source(TWO_WRITES)
        assert result.cycles == 4

    def test_sum_loop(self):
        result = run_source(SUM_LOOP, memories={"mem": [10, 20, 30, 40]})
        assert result.mem("mem")[0] == 100

    def test_memory_roundtrip(self):
        tb = Testbench(parse_program(SUM_LOOP))
        tb.write_mem("mem", [1, 2, 3, 4])
        assert tb.read_mem("mem") == [1, 2, 3, 4]

    def test_write_mem_size_check(self):
        tb = Testbench(parse_program(SUM_LOOP))
        with pytest.raises(SimulationError):
            tb.write_mem("mem", [1, 2])

    def test_memory_paths(self):
        tb = Testbench(parse_program(SUM_LOOP))
        assert tb.memory_paths() == ["mem"]

    def test_not_a_memory(self):
        tb = Testbench(parse_program(SUM_LOOP))
        with pytest.raises(UndefinedError):
            tb.write_mem("idx", [0])

    def test_timeout(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(1); lt = std_lt(1); }
  wires {
    group cond { lt.left = 1'd0; lt.right = 1'd1; cond[done] = 1'd1; }
    group body { r.in = 1'd1; r.write_en = 1; body[done] = r.done; }
  }
  control { while lt.out with cond { body; } }
}
"""
        with pytest.raises(SimulationError):
            run_source(src, max_cycles=100)

    def test_reset_allows_rerun(self):
        tb = Testbench(parse_program(TWO_WRITES))
        first = tb.run()
        tb.reset()
        tb.instance.nets.clear()
        second = tb.run()
        assert first.cycles == second.cycles


class TestControlSemantics:
    def control_program(self, control, extra_groups=""):
        return f"""
component main(go: 1) -> (done: 1) {{
  cells {{
    x = std_reg(32);
    y = std_reg(32);
    lt = std_lt(32);
    a = std_add(32);
  }}
  wires {{
    group wx {{ x.in = 32'd1; x.write_en = 1; wx[done] = x.done; }}
    group wy {{ y.in = 32'd2; y.write_en = 1; wy[done] = y.done; }}
    group cond {{ lt.left = x.out; lt.right = 32'd5; cond[done] = 1'd1; }}
    group incr {{
      a.left = x.out; a.right = 32'd1;
      x.in = a.out; x.write_en = 1;
      incr[done] = x.done;
    }}
    {extra_groups}
  }}
  control {{ {control} }}
}}
"""

    def regs_after(self, control, extra=""):
        tb = Testbench(parse_program(self.control_program(control, extra)))
        result = tb.run()
        return tb.register_value("x"), tb.register_value("y"), result.cycles

    def test_seq(self):
        x, y, _ = self.regs_after("seq { wx; wy; }")
        assert (x, y) == (1, 2)

    def test_par(self):
        x, y, cycles_par = self.regs_after("par { wx; wy; }")
        assert (x, y) == (1, 2)
        _, _, cycles_seq = self.regs_after("seq { wx; wy; }")
        assert cycles_par < cycles_seq

    def test_if_true_branch(self):
        x, y, _ = self.regs_after("if lt.out with cond { wy; }")
        assert y == 2  # x=0 < 5

    def test_if_false_branch(self):
        x, y, _ = self.regs_after(
            "seq { wx5; if lt.out with cond { wy; } else { wx; } }",
            extra="group wx5 { x.in = 32'd9; x.write_en = 1; wx5[done] = x.done; }",
        )
        assert x == 1  # 9 < 5 is false -> else branch overwrote x
        assert y == 0

    def test_if_empty_else(self):
        x, y, _ = self.regs_after(
            "seq { wx5; if lt.out with cond { wy; } }",
            extra="group wx5 { x.in = 32'd9; x.write_en = 1; wx5[done] = x.done; }",
        )
        assert y == 0

    def test_while_counts_to_five(self):
        x, _, _ = self.regs_after("while lt.out with cond { incr; }")
        assert x == 5

    def test_while_zero_iterations(self):
        x, y, _ = self.regs_after(
            "seq { wx5; while lt.out with cond { wy; } }",
            extra="group wx5 { x.in = 32'd9; x.write_en = 1; wx5[done] = x.done; }",
        )
        assert y == 0

    def test_empty_control_finishes_immediately(self):
        result = self.regs_after("")
        assert result[2] == 0

    def test_nested_seq_in_par(self):
        x, y, _ = self.regs_after("par { seq { wx; incr; } wy; }")
        assert (x, y) == (2, 2)

    def test_group_enabled_twice(self):
        x, _, _ = self.regs_after("seq { incr; incr; incr; }")
        assert x == 3

    CONST_COND = """
component main(go: 1) -> (done: 1) {
  cells { @external mem = std_mem_d1(32, 2, 1); lt = std_lt(1); }
  wires {
    group w0 { mem.addr0 = 1'd0; mem.write_data = 32'd7; mem.write_en = 1; w0[done] = mem.done; }
    group w1 { mem.addr0 = 1'd1; mem.write_data = 32'd9; mem.write_en = 1; w1[done] = mem.done; }
    group cond { lt.left = 1'd0; lt.right = 1'd1; cond[done] = 1'd1; }
  }
  control { CONTROL }
}
"""

    # A sized literal is a valid condition (lint only warns that a branch
    # is unreachable); the interpreter reads it from a constant slot.
    @pytest.mark.parametrize("engine", ["sweep", "levelized"])
    @pytest.mark.parametrize(
        "control, mem",
        [
            ("if 1'd1 { w0; }", [7, 0]),
            ("if 1'd0 { w0; } else { w1; }", [0, 9]),
            ("if 1'd0 with cond { w0; } else { w1; }", [0, 9]),
            ("seq { w0; while 1'd0 { w0; } w1; }", [7, 9]),
        ],
    )
    def test_constant_condition(self, control, mem, engine):
        source = self.CONST_COND.replace("CONTROL", control)
        reference = observe(parse_program(source), {"mem": [0, 0]}, "sweep")
        assert reference.error is None and reference.memories["mem"] == mem
        assert compare(reference, observe(parse_program(source), {"mem": [0, 0]}, engine)) is None
        for pipeline in ("lower", "all"):
            lowered = observe(compile_source(source, pipeline), {"mem": [0, 0]}, engine)
            assert compare(reference, lowered, pipeline, ("memories",)) is None


class TestInvoke:
    SRC = """
component doubler(value: 32) -> (result: 32) {
  cells { r = std_reg(32); a = std_add(32); }
  wires {
    group compute {
      a.left = value; a.right = value;
      r.in = a.out; r.write_en = 1;
      compute[done] = r.done;
    }
    result = r.out;
  }
  control { compute; }
}
component main(go: 1) -> (done: 1) {
  cells { d = doubler(); out = std_reg(32); }
  wires {}
  control {
    seq {
      invoke d(value=32'd21)(result=out.in);
      invoke d(value=32'd5)();
    }
  }
}
"""

    def test_invoke_runs_subcomponent(self):
        src = self.SRC.replace(
            "invoke d(value=32'd21)(result=out.in);",
            "invoke d(value=32'd21)();",
        ).replace("invoke d(value=32'd5)();", "")
        prog = parse_program(src)
        tb = Testbench(prog)
        tb.run()
        inner = tb.instance.find("d")
        assert inner.children["r"].value == 42

    def test_invoke_twice_reruns(self):
        src = self.SRC.replace(
            "invoke d(value=32'd21)(result=out.in);",
            "invoke d(value=32'd21)();",
        )
        tb = Testbench(parse_program(src))
        tb.run()
        assert tb.instance.find("d").children["r"].value == 10

    # ``m``'s invoke of ``c`` sits idle until ``main`` invokes ``m``: the
    # counter runs once, however long ``m``'s go stays low before that.
    IDLE = """
component counter(value: 32) -> () {
  cells { r = std_reg(32); a = std_add(32); }
  wires {
    group incr {
      a.left = r.out; a.right = value;
      r.in = a.out; r.write_en = 1;
      incr[done] = r.done;
    }
  }
  control { incr; }
}
component mid() -> () {
  cells { c = counter(); }
  wires {}
  control { invoke c(value=32'd1)(); }
}
component main(go: 1) -> (done: 1) {
  cells { m = mid(); w = std_reg(1); }
  wires {
    group wait { w.in = 1'd1; w.write_en = 1; wait[done] = w.done; }
  }
  control { seq { wait; wait; wait; wait; invoke m()(); } }
}
"""

    @pytest.mark.parametrize("engine", ["sweep", "levelized"])
    @pytest.mark.parametrize("pipeline", [None, "lower", "all"])
    def test_idle_invoke_waits_for_go(self, pipeline, engine):
        tb = Testbench(compile_source(self.IDLE, pipeline), engine=engine)
        tb.run()
        assert tb.instance.find("m.c.r").value == 1


class TestErrorDetection:
    def test_conflicting_drivers_detected(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(32); }
  wires {
    group g {
      r.in = 32'd1;
      r.write_en = 1;
      g[done] = r.done;
    }
    r.in = 32'd2;
  }
  control { g; }
}
"""
        with pytest.raises(MultipleDriverError):
            run_source(src)

    def test_same_value_drivers_tolerated(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(32); }
  wires {
    group g {
      r.in = 32'd1;
      r.write_en = 1;
      g[done] = r.done;
    }
    r.in = 32'd1;
  }
  control { g; }
}
"""
        run_source(src)

    def test_combinational_loop_detected(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { a = std_add(8); b = std_add(8); r = std_reg(8); }
  wires {
    a.left = b.out;
    b.left = a.out;
    a.right = 8'd1;
    b.right = 8'd1;
    group g { r.in = a.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""
        with pytest.raises(CombinationalLoopError):
            run_source(src)

    CELL_OUTPUT_DRIVERS = {
        "component-output": """
component seven(in: 8) -> (out: 8) {
  cells {}
  wires { out = 8'd5; }
  control {}
}
component main() -> () {
  cells { x = seven(); mem = std_mem_d1(8, 1, 1); }
  wires {
    group store {
      x.out = 8'd7;
      mem.addr0 = 1'd0;
      mem.write_data = x.out;
      mem.write_en = 1'd1;
      store[done] = mem.done;
    }
  }
  control { store; }
}
""",
        "primitive-output": """
component main() -> () {
  cells { r = std_reg(8); mem = std_mem_d1(8, 1, 1); }
  wires {
    group store {
      r.out = 1;
      mem.addr0 = 1'd0;
      mem.write_data = r.out;
      mem.write_en = 1'd1;
      store[done] = mem.done;
    }
  }
  control { store; }
}
""",
    }

    @pytest.mark.parametrize("design", sorted(CELL_OUTPUT_DRIVERS))
    def test_driver_of_a_cell_output_is_refused_at_build(self, design):
        """Both engines refuse the netlist with validation's own error,
        rather than letting the driver and the cell fight over one slot."""
        program = parse_program(self.CELL_OUTPUT_DRIVERS[design])
        with pytest.raises(ValidationError) as validated:
            validate_program(program)
        assert "error[port-direction]" in str(validated.value)
        for engine in ("sweep", "levelized"):
            with pytest.raises(ValidationError) as built:
                Testbench(program, engine=engine)
            assert str(built.value) == str(validated.value), engine
        with pytest.raises(ValidationError) as diffed:
            difftest_program(program, {"mem": [0]})
        assert str(diffed.value) == str(validated.value)

    def test_find_model_path_errors(self):
        tb = Testbench(parse_program(TWO_WRITES))
        with pytest.raises(UndefinedError):
            tb.instance.find("nothing.here")


class TestHierarchy:
    def test_structural_subcomponent(self):
        src = """
component plus_one(value: 8) -> (result: 8) {
  cells { a = std_add(8); }
  wires {
    a.left = value;
    a.right = 8'd1;
    result = a.out;
  }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells { p = plus_one(); r = std_reg(8); }
  wires {
    p.value = 8'd41;
    group g { r.in = p.result; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""
        tb = Testbench(parse_program(src))
        tb.run()
        assert tb.register_value("r") == 42


HELD_REGISTER = """
component main(go: 1) -> (done: 1) {
  cells {
    k = std_reg(8); acc = std_reg(8); i = std_reg(4);
    add = std_add(8); inc = std_add(4); lt = std_lt(4);
    @external mem = std_mem_d1(8, 1, 1);
  }
  wires {
    group init { k.in = 8'd3; k.write_en = 1; init[done] = k.done; }
    group cond { lt.left = i.out; lt.right = 4'd10; cond[done] = 1'd1; }
    group body {
      add.left = acc.out; add.right = k.out;
      acc.in = add.out; acc.write_en = 1; body[done] = acc.done;
    }
    group step {
      inc.left = i.out; inc.right = 4'd1;
      i.in = inc.out; i.write_en = 1; step[done] = i.done;
    }
    group store {
      mem.addr0 = 1'd0; mem.write_data = acc.out; mem.write_en = 1;
      store[done] = mem.done;
    }
  }
  control { seq { init; while lt.out with cond { seq { body; step; } } store; } }
}
"""

LOAD_THEN_STORE = """
component main(go: 1) -> (done: 1) {
  cells { @external mem = std_mem_d1(8, 2, 1); r = std_reg(8); }
  wires {
    group load {
      mem.addr0 = 1'd0; r.in = mem.read_data; r.write_en = 1;
      load[done] = r.done;
    }
    group store {
      mem.addr0 = 1'd1; mem.write_data = r.out; mem.write_en = 1;
      store[done] = mem.done;
    }
  }
  control { seq { load; store; } }
}
"""

HOLDER = """
component holder(in: 8, en: 1) -> (out: 8) {
  cells { r = std_reg(8); }
  wires { r.in = in; r.write_en = en; out = r.out; }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells { h = holder(); }
  wires {}
  control {}
}
"""


class TestEdgeReports:
    """The clock edge re-evaluates only the children whose state moved."""

    @pytest.mark.parametrize("pipeline", [None, "lower", "all"])
    def test_held_register_is_not_refired_each_cycle(self, pipeline):
        bench = Testbench(compile_source(HELD_REGISTER, pipeline), engine="levelized")
        model = bench.instance.find_model("k")
        calls, writes = [0], [0]
        comb, tick = model.comb, model.tick

        def counting_comb(ins):
            calls[0] += 1
            return comb(ins)

        def counting_tick(ins):
            writes[0] += ins[1]
            return tick(ins)

        model.comb, model.tick = counting_comb, counting_tick
        result = bench.run()
        assert result.mem("mem") == [30]
        assert writes[0] == 1
        # Once at reset, then per write: its edge and the edge done falls.
        assert calls[0] <= 1 + 2 * writes[0] < result.cycles

    @pytest.mark.parametrize("pipeline", [None, "lower"])
    def test_write_mem_after_settle(self, pipeline):
        program = compile_source(LOAD_THEN_STORE, pipeline)

        def observe(engine):
            bench = Testbench(program.copy(), engine=engine)
            bench.instance.settle()
            bench.write_mem("mem", [9, 0])
            result = bench.run()
            return result.cycles, result.memories

        expected = observe("sweep")
        assert expected[1]["mem"] == [9, 9]
        assert observe("levelized") == expected

    def test_nested_instance_reports_its_children(self):
        # Only ``sweep`` keeps nested instances in the child protocol;
        # ``levelized`` stamps them into the root's array.
        holder = Testbench(parse_program(HOLDER), engine="sweep").instance.find("h")
        # Inputs (in, en, go); outputs (out, done).
        assert holder.tick([7, 1, 0]) is True
        assert holder.tick([7, 0, 0]) is True  # the register's done falls
        assert holder.tick([9, 0, 0]) is False
        assert holder.comb([9, 0, 0]) == [7, 1]

    def test_instance_with_control_reports_every_edge(self):
        bench = Testbench(parse_program(TWO_WRITES))
        bench.instance.settle()
        assert bench.instance.step_edge() is True

    def test_touch_unknown_cell(self):
        bench = Testbench(parse_program(HOLDER))
        with pytest.raises(UndefinedError):
            bench.instance.touch("h.nothing")


LATCH = """
component latch(in: 8) -> (out: 8) {
  cells { r = std_reg(8); }
  wires { r.in = in; r.write_en = 1'd1; out = r.out; }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells {
    @external mem = std_mem_d1(8, 1, 1);
    c = std_reg(8); add = std_add(8); l = latch();
  }
  wires {
    add.left = c.out; add.right = 8'd1;
    l.in = c.out;
    group count { c.in = add.out; c.write_en = 1; count[done] = c.done; }
    group store {
      mem.addr0 = 1'd0; mem.write_data = l.out; mem.write_en = 1;
      store[done] = mem.done;
    }
  }
  control { seq { count; count; count; store; } }
}
"""


def _count_edge_settles(bench, path):
    """Wrap the instance at ``path``: count its ticks and the ticks that settle."""
    inst = bench.instance.find(path)
    settle, tick = inst.settle, inst.tick
    counts = {"ticks": 0, "settled": 0}
    in_tick = [False]

    def counting_settle():
        counts["settled"] += in_tick[0]
        settle()

    def counting_tick(ins):
        counts["ticks"] += 1
        in_tick[0] = True
        try:
            return tick(ins)
        finally:
            in_tick[0] = False

    inst.settle, inst.tick = counting_settle, counting_tick
    return counts


def _count_drains(bench, monkeypatch):
    """Count the root's settles and the drains inside them."""
    inst = bench.instance
    counts = {"settles": 0, "drains": 0}
    settle, drain = inst.settle, ComponentInstance._drain

    def counting_settle():
        counts["settles"] += 1
        settle()

    def counting_drain(self):
        counts["drains"] += 1
        drain(self)

    inst.settle = counting_settle
    monkeypatch.setattr(ComponentInstance, "_drain", counting_drain)
    return counts


class TestQuietEdgeSettle:
    """A nested ``sweep`` instance settles before every edge. ``levelized``
    stamps it into the root's array: it has no settle of its own, and the
    root drains once per settle."""

    @pytest.mark.parametrize("pipeline", [None, "lower"])
    def test_register_only_input_latches_on_the_same_edge(self, pipeline):
        # ``l.in`` has no combinational path to ``l.out``, so a parent that
        # re-evaluated ``l`` only when its outputs could move would miss it:
        # the register must still latch the new value at the next edge.
        program = compile_source(LATCH, pipeline)
        sweep, levelized = (observe(program, {"mem": [0]}, e) for e in ("sweep", "levelized"))
        assert sweep.error is None and sweep.memories["mem"] == [3]
        assert compare(sweep, levelized, "levelized") is None

    @pytest.mark.parametrize("engine", ["sweep", "levelized"])
    def test_quiet_instance_without_control_skips_its_edge_settle(self, engine, monkeypatch):
        bench = Testbench(parse_program(LATCH), engine=engine)
        if engine == "sweep":
            counts = _count_edge_settles(bench, "l")
            bench.run()
            assert counts["settled"] == counts["ticks"]
        else:
            # Stamped, the latch settles only inside the root's drains.
            assert not hasattr(bench.instance.find("l"), "settle")
            drains = _count_drains(bench, monkeypatch)
            result = bench.run()
            assert drains["drains"] == drains["settles"] == result.cycles + 1

    @pytest.mark.parametrize("engine", ["sweep", "levelized"])
    def test_instance_with_control_settles_every_edge(self, engine, monkeypatch):
        program = parse_program(TestInvoke.SRC)
        bench = Testbench(program, engine=engine)
        if engine == "sweep":
            counts = _count_edge_settles(bench, "d")
            bench.run()
            assert counts["settled"] == counts["ticks"] > 0
        else:
            # Stamped, ``d``'s executor is clocked at every edge, as ``main``'s.
            clocked = collections.Counter()
            clock = ComponentInstance._clock

            def counting_clock(inst, node, values):
                clocked[id(node)] += 1
                clock(inst, node, values)

            monkeypatch.setattr(ComponentInstance, "_clock", counting_clock)
            result = bench.run()
            assert sorted(clocked.values()) == [result.cycles] * 2 and result.cycles > 0
        sweep, levelized = (observe(program, {}, e) for e in ("sweep", "levelized"))
        assert sweep.error is None
        assert compare(sweep, levelized, "levelized") is None
