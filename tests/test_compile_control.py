"""Tests for the main compilation passes (paper Section 4).

The key property, checked program-by-program: for every control construct,
the fully lowered design computes the same result as the control-tree
interpreter, and the lowered program contains no groups or control.
"""

import pytest

from repro.errors import PassError
from repro.ir import parse_program
from repro.ir.ast import HolePort
from repro.ir.control import Empty, Enable
from repro.passes import compile_program, get_pass
from repro.robustness import difftest_program
from repro.sim import Testbench
from tests.conftest import SUM_LOOP, TWO_WRITES, run_source


def lower(source, pipeline="lower"):
    prog = parse_program(source)
    compile_program(prog, pipeline)
    return prog


class TestLoweredShape:
    def test_no_groups_or_control_after_lowering(self):
        prog = lower(SUM_LOOP)
        assert not prog.main.groups
        assert isinstance(prog.main.control, Empty)

    def test_no_holes_in_lowered_assignments(self):
        prog = lower(SUM_LOOP)
        for assign in prog.main.continuous:
            assert not any(isinstance(p, HolePort) for p in assign.ports())

    def test_compile_control_reduces_to_single_enable(self):
        prog = parse_program(SUM_LOOP)
        for name in ("well-formed", "go-insertion", "compile-control"):
            get_pass(name).run(prog)
        assert isinstance(prog.main.control, Enable)

    def test_remove_groups_requires_compiled_control(self):
        prog = parse_program(TWO_WRITES)
        with pytest.raises(PassError):
            get_pass("remove-groups").run(prog)

    def test_fsm_cells_added(self):
        prog = lower(TWO_WRITES)
        fsm_cells = [n for n in prog.main.cells if n.startswith("fsm")]
        assert fsm_cells


class TestLoweredEquivalence:
    """Lowered simulation must match the control-tree interpreter."""

    def lowered(self, source, memories=None):
        """The lowered run, once the oracle finds it agrees with the tree."""
        report = difftest_program(
            parse_program(source), memories or {}, ["lower"], engine="levelized"
        )
        assert report.ok, report.describe()
        return report.outcomes[0]

    def test_seq(self):
        assert self.lowered(TWO_WRITES).cycles >= 4

    def test_full_program(self):
        lowered = self.lowered(SUM_LOOP, {"mem": [10, 20, 30, 40]})
        assert lowered.memories["mem"] == [100, 20, 30, 40]

    def control_src(self, control, groups=""):
        return f"""
component main(go: 1) -> (done: 1) {{
  cells {{
    @external mem = std_mem_d1(32, 4, 2);
    x = std_reg(32);
    lt = std_lt(32);
    a = std_add(32);
    sl = std_slice(32, 2);
  }}
  wires {{
    sl.in = x.out;
    group wx {{ x.in = 32'd2; x.write_en = 1; wx[done] = x.done; }}
    group st0 {{
      mem.addr0 = 2'd0; mem.write_data = x.out; mem.write_en = 1;
      st0[done] = mem.done;
    }}
    group st1 {{
      mem.addr0 = 2'd1; mem.write_data = 32'd7; mem.write_en = 1;
      st1[done] = mem.done;
    }}
    group cond {{ lt.left = x.out; lt.right = 32'd4; cond[done] = 1'd1; }}
    group incr {{
      a.left = x.out; a.right = 32'd1;
      x.in = a.out; x.write_en = 1;
      incr[done] = x.done;
    }}
    {groups}
  }}
  control {{ {control} }}
}}
"""

    def check(self, control, groups="", expected_mem=None):
        lowered = self.lowered(self.control_src(control, groups))
        if expected_mem is not None:
            assert lowered.memories["mem"] == expected_mem

    def test_par_lowering(self):
        # st0 and st1 use the same memory port: schedule them with seq
        # inside the par arms against independent work.
        self.check("seq { wx; par { st0; incr; } }", expected_mem=[2, 0, 0, 0])

    def test_if_true_lowering(self):
        self.check(
            "seq { wx; if lt.out with cond { st0; } else { st1; } }",
            expected_mem=[2, 0, 0, 0],
        )

    def test_if_false_lowering(self):
        self.check(
            "seq { wx; incr; incr; incr; "
            "if lt.out with cond { st0; } else { st1; } }",
            expected_mem=[0, 7, 0, 0],
        )

    def test_if_empty_else_lowering(self):
        self.check(
            "seq { wx; incr; incr; incr; if lt.out with cond { st0; } st1; }",
            expected_mem=[0, 7, 0, 0],
        )

    def test_while_lowering(self):
        self.check(
            "seq { wx; while lt.out with cond { incr; } st0; }",
            expected_mem=[4, 0, 0, 0],
        )

    def test_while_zero_trips_lowering(self):
        self.check(
            "seq { wx; incr; incr; incr; while lt.out with cond { incr; } st0; }",
            expected_mem=[5, 0, 0, 0],
        )

    def test_nested_par_in_while(self):
        self.check(
            "seq { wx; while lt.out with cond { par { incr; st1; } } st0; }",
            expected_mem=[4, 7, 0, 0],
        )

    def test_invoke_lowering(self):
        src = """
component sub(v: 32) -> (r: 32) {
  cells { q = std_reg(32); a = std_add(32); }
  wires {
    group c {
      a.left = v; a.right = 32'd1;
      q.in = a.out; q.write_en = 1;
      c[done] = q.done;
    }
    r = q.out;
  }
  control { c; }
}
component main(go: 1) -> (done: 1) {
  cells {
    s = sub();
    @external mem = std_mem_d1(32, 4, 2);
  }
  wires {
    group st {
      mem.addr0 = 2'd0; mem.write_data = s.r; mem.write_en = 1;
      st[done] = mem.done;
    }
  }
  control { seq { invoke s(v=32'd41)(); st; } }
}
"""
        assert self.lowered(src).memories["mem"][0] == 42


class TestLatencyInsensitiveTiming:
    def test_seq_write_is_two_cycles(self):
        result = run_source(TWO_WRITES, "lower")
        # Two register writes, each write + done handshake, plus FSM exit.
        assert 4 <= result.cycles <= 6

    def test_repeat_runs_after_reset(self):
        prog = lower(TWO_WRITES)
        tb = Testbench(prog)
        first = tb.run()
        # Drop go for one cycle: FSM resets through continuous wires.
        from repro.ir.ast import ThisPort

        tb.instance.nets[ThisPort("go")] = 0
        tb.instance.settle()
        tb.instance.step_edge()
        tb.instance.step_edge()
        second = tb.run()
        assert abs(first.cycles - second.cycles) <= 1
