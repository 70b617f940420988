"""Tests for the Sensitive pass, latency inference, and the sharing passes
(paper Sections 4.4 and 5)."""

from repro.ir import parse_program
from repro.ir.attributes import STATIC
from repro.ir.control import Invoke
from repro.passes import compile_program, get_pass
from repro.robustness import difftest_program
from repro.sim import Testbench, run_program
from tests.conftest import SUM_LOOP, TWO_WRITES, run_source

STATIC_TWO_WRITES = TWO_WRITES.replace(
    "group one {", 'group one<"static"=1> {'
).replace("group two {", 'group two<"static"=1> {')


class TestInferLatency:
    def test_register_write_group_inferred(self):
        prog = parse_program(TWO_WRITES)
        get_pass("infer-latency").run(prog)
        assert prog.main.get_group("one").attributes.get(STATIC) == 1
        assert prog.main.get_group("two").attributes.get(STATIC) == 1

    def test_mult_group_inferred(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { m = std_mult_pipe(32); }
  wires {
    group g {
      m.left = 32'd3; m.right = 32'd4;
      m.go = !m.done ? 1;
      g[done] = m.done;
    }
  }
  control { g; }
}
"""
        prog = parse_program(src)
        get_pass("infer-latency").run(prog)
        assert prog.main.get_group("g").attributes.get(STATIC) == 4

    def test_sqrt_group_not_inferred(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { s = std_sqrt(32); }
  wires {
    group g {
      s.in = 32'd16;
      s.go = !s.done ? 1;
      g[done] = s.done;
    }
  }
  control { g; }
}
"""
        prog = parse_program(src)
        get_pass("infer-latency").run(prog)
        assert not prog.main.get_group("g").attributes.has(STATIC)

    def test_complex_group_not_inferred(self):
        # done depends on a register, but a second stateful unit makes the
        # paper's simple rule inapplicable... here: two done writes.
        src = TWO_WRITES.replace(
            "one[done] = x.done;", "one[done] = x.done;\n      one[done] = !x.done ? 1'd0;"
        )
        prog = parse_program(src)
        get_pass("infer-latency").run(prog)
        assert not prog.main.get_group("one").attributes.has(STATIC)

    def test_component_latency_propagates(self):
        src = """
component sub(go: 1) -> (done: 1) {
  cells { r = std_reg(8); }
  wires {
    group w { r.in = 8'd1; r.write_en = 1; w[done] = r.done; }
  }
  control { seq { w; w; } }
}
component main(go: 1) -> (done: 1) {
  cells { s = sub(); }
  wires {}
  control { invoke s()(); }
}
"""
        prog = parse_program(src)
        get_pass("infer-latency").run(prog)
        assert prog.get_component("sub").attributes.get(STATIC) == 2

    def test_while_blocks_component_latency(self):
        prog = parse_program(SUM_LOOP)
        get_pass("infer-latency").run(prog)
        assert not prog.main.attributes.has(STATIC)


class TestStaticCompile:
    def test_static_seq_faster_than_dynamic(self):
        dynamic = run_source(STATIC_TWO_WRITES, "lower")
        static = run_source(STATIC_TWO_WRITES, "lower-static")
        assert static.cycles < dynamic.cycles
        # Two 1-cycle groups back-to-back: 2 work cycles + handshake.
        assert static.cycles <= 4

    def test_static_results_correct(self):
        prog = parse_program(STATIC_TWO_WRITES)
        compile_program(prog, "lower-static")
        tb = Testbench(prog)
        tb.run()
        assert tb.register_value("x") == 5
        assert tb.register_value("y") == 5

    def test_static_par(self):
        src = STATIC_TWO_WRITES.replace(
            "group two {", "group two {"
        ).replace("seq { one; two; }", "par { one; two; }").replace(
            "y.in = x.out", "y.in = 32'd9"
        )
        prog = parse_program(src)
        compile_program(prog, "lower-static")
        tb = Testbench(prog)
        result = tb.run()
        assert tb.register_value("x") == 5
        assert tb.register_value("y") == 9
        assert result.cycles <= 3

    def test_mixed_static_dynamic(self):
        """A while loop (dynamic) wrapping static bodies still works."""
        report = difftest_program(
            parse_program(SUM_LOOP), {"mem": [1, 2, 3, 4]}, ["lower", "lower-static"]
        )
        assert report.ok, report.describe()
        dynamic, mixed = report.outcomes
        assert mixed.cycles < dynamic.cycles

    def test_sum_loop_all_pipelines_agree(self):
        expected = [100, 20, 30, 40]
        for pipeline in ("lower", "lower-static", "all", "no-static"):
            result = run_source(SUM_LOOP, pipeline, {"mem": [10, 20, 30, 40]})
            assert result.mem("mem") == expected, pipeline


SHARING_SRC = """
component main(go: 1) -> (done: 1) {
  cells {
    @external mem = std_mem_d1(32, 4, 2);
    r0 = std_reg(32);
    r1 = std_reg(32);
    a0 = std_add(32);
    a1 = std_add(32);
    a2 = std_add(32);
  }
  wires {
    group g0 {
      a0.left = 32'd1; a0.right = 32'd2;
      r0.in = a0.out; r0.write_en = 1;
      g0[done] = r0.done;
    }
    group g1 {
      a1.left = r0.out; a1.right = 32'd3;
      r1.in = a1.out; r1.write_en = 1;
      g1[done] = r1.done;
    }
    group g2 {
      a2.left = r1.out; a2.right = 32'd4;
      mem.addr0 = 2'd0; mem.write_data = a2.out; mem.write_en = 1;
      g2[done] = mem.done;
    }
  }
  control { seq { g0; g1; g2; } }
}
"""


class TestResourceSharing:
    def test_sequential_adders_merge(self):
        prog = parse_program(SHARING_SRC)
        get_pass("resource-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        adders = [c for c in prog.main.cells.values() if c.comp_name == "std_add"]
        assert len(adders) == 1

    def test_parallel_adders_do_not_merge(self):
        src = SHARING_SRC.replace("seq { g0; g1; g2; }", "seq { par { g0; g1; } g2; }")
        prog = parse_program(src)
        get_pass("resource-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        adders = [c for c in prog.main.cells.values() if c.comp_name == "std_add"]
        assert len(adders) == 2  # g0/g1 conflict; g2 reuses one of them

    def test_undefined_group_in_control_does_not_raise(self):
        # Lint reports the undefined group; a pass list without
        # well-formed must still run.
        prog = parse_program(SHARING_SRC.replace("g2; }", "g2; ghost; }"))
        get_pass("resource-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        adders = [c for c in prog.main.cells.values() if c.comp_name == "std_add"]
        assert len(adders) == 1

    def test_registers_never_merged_by_resource_sharing(self):
        prog = parse_program(SHARING_SRC)
        get_pass("resource-sharing").run(prog)
        regs = [c for c in prog.main.cells.values() if c.comp_name == "std_reg"]
        assert len(regs) == 2

    def test_shared_design_still_correct(self):
        prog = parse_program(SHARING_SRC)
        get_pass("resource-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        compile_program(prog, "lower")
        result = run_program(prog, memories={"mem": [0, 0, 0, 0]})
        assert result.mem("mem")[0] == 1 + 2 + 3 + 4

    def test_different_widths_never_merge(self):
        src = SHARING_SRC.replace("a1 = std_add(32)", "a1 = std_add(16)").replace(
            "a1.left = r0.out; a1.right = 32'd3;",
            "a1.left = 16'd1; a1.right = 16'd3;",
        ).replace("r1.in = a1.out;", "r1.in = a0.out;")
        prog = parse_program(src)
        get_pass("resource-sharing").run(prog)
        widths = {c.args for c in prog.main.cells.values() if c.comp_name == "std_add"}
        assert (16,) in widths  # the 16-bit adder survives distinct


class TestRegisterSharing:
    def test_dead_register_reused(self):
        """r0's last read is in g1, so g2-era registers could share it —
        here r0 and r1 have overlapping ranges, but a third register that
        is written after r0 dies can merge with it."""
        src = SHARING_SRC.replace(
            "group g2 {",
            """group g3 {
      r2.in = 32'd9; r2.write_en = 1;
      g3[done] = r2.done;
    }
    group g2 {""",
        ).replace(
            "r1 = std_reg(32);", "r1 = std_reg(32);\n    r2 = std_reg(32);"
        ).replace("seq { g0; g1; g2; }", "seq { g0; g1; g2; g3; }")
        prog = parse_program(src)
        before = sum(1 for c in prog.main.cells.values() if c.comp_name == "std_reg")
        get_pass("register-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        after = sum(1 for c in prog.main.cells.values() if c.comp_name == "std_reg")
        assert after < before

    def test_last_read_allows_reuse(self):
        # r0's last read is in g1, the group that writes r1, so the two
        # may share one register (non-blocking reads see the old value) —
        # exactly the paper's "last group to read from it" rule.
        prog = parse_program(SHARING_SRC)
        get_pass("register-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        regs = [c for c in prog.main.cells.values() if c.comp_name == "std_reg"]
        assert len(regs) == 1
        compile_program(prog, "lower")
        result = run_program(prog, memories={"mem": [0, 0, 0, 0]})
        assert result.mem("mem")[0] == 10

    def test_simultaneously_live_registers_not_merged(self):
        # g2 reads both r0 and r1: their live ranges overlap.
        src = SHARING_SRC.replace(
            "a2.left = r1.out; a2.right = 32'd4;",
            "a2.left = r0.out; a2.right = r1.out;",
        )
        prog = parse_program(src)
        get_pass("register-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        regs = [c for c in prog.main.cells.values() if c.comp_name == "std_reg"]
        assert len(regs) == 2

    def test_shared_registers_still_correct(self):
        src = SHARING_SRC.replace(
            "seq { g0; g1; g2; }", "seq { g0; g1; g2; g0; g1; g2; }"
        )
        prog = parse_program(src)
        get_pass("register-sharing").run(prog)
        compile_program(prog, "lower")
        result = run_program(prog, memories={"mem": [0, 0, 0, 0]})
        assert result.mem("mem")[0] == 10

    def test_all_pipeline_equivalent_on_sum_loop(self):
        program = parse_program(SUM_LOOP)
        report = difftest_program(program, {"mem": [3, 1, 4, 1]}, ["lower", "all"])
        assert report.ok, report.describe()


PAR_INVOKES = """
component add1<"share"=1>(x: 8) -> (y: 8) {
  cells { r = std_reg(8); a = std_add(8); }
  wires {
    group inc {
      a.left = x; a.right = 8'd1;
      r.in = a.out; r.write_en = 1;
      inc[done] = r.done;
    }
    y = r.out;
  }
  control { inc; }
}
component main(go: 1) -> (done: 1) {
  cells {
    u = add1(); v = add1();
    @external mem = std_mem_d1(8, 2, 1);
  }
  wires {
    group store_u {
      mem.addr0 = 1'd0; mem.write_data = u.y; mem.write_en = 1;
      store_u[done] = mem.done;
    }
    group store_v {
      mem.addr0 = 1'd1; mem.write_data = v.y; mem.write_en = 1;
      store_v[done] = mem.done;
    }
  }
  control {
    seq {
      par { invoke u(x=8'd5)(); invoke v(x=8'd9)(); }
      store_u; store_v;
    }
  }
}
"""


class TestSharingInvokes:
    """Invoking a cell uses it: cells invoked in parallel never merge."""

    def test_cells_invoked_in_parallel_stay_distinct(self):
        prog = parse_program(PAR_INVOKES)
        get_pass("resource-sharing").run(prog)
        invoked = [node.cell for node in prog.main.control.walk() if isinstance(node, Invoke)]
        assert invoked == ["u", "v"]

    def test_cells_invoked_in_sequence_merge(self):
        prog = parse_program(
            PAR_INVOKES.replace("par { invoke u", "seq { invoke u")
        )
        get_pass("resource-sharing").run(prog)
        invoked = [node.cell for node in prog.main.control.walk() if isinstance(node, Invoke)]
        assert invoked == ["u", "u"]

    def test_cells_bound_by_an_invoke_are_busy_during_it(self):
        # a0 and a1 serve sequential groups, but the invoke that runs
        # alongside both reads a0.out throughout: merging them would feed
        # g0's sum into u.x.
        src = PAR_INVOKES.replace(
            "u = add1(); v = add1();",
            "u = add1(); v = add1(); a0 = std_add(8); a1 = std_add(8);",
        ).replace(
            "par { invoke u(x=8'd5)(); invoke v(x=8'd9)(); }",
            "par { seq { g0; g1; } invoke u(x=a0.out)(); }",
        ).replace(
            "group store_u {",
            """group g0 {
      a1.left = 8'd1; a1.right = 8'd2;
      mem.addr0 = 1'd0; mem.write_data = a1.out; mem.write_en = 1;
      g0[done] = mem.done;
    }
    group g1 {
      a0.left = 8'd3; a0.right = 8'd4;
      mem.addr0 = 1'd1; mem.write_data = a0.out; mem.write_en = 1;
      g1[done] = mem.done;
    }
    group store_u {""",
        )
        prog = parse_program(src)
        get_pass("resource-sharing").run(prog)
        for group, adder in (("g0", "a1"), ("g1", "a0")):
            assigns = prog.main.get_group(group).assignments
            assert adder + ".left" in {a.dst.to_string() for a in assigns}

    def test_parallel_invokes_agree_under_every_pipeline(self):
        report = difftest_program(parse_program(PAR_INVOKES), name="par-invokes")
        assert report.ok, report.describe()
        assert report.reference.memories["mem"] == [6, 10]
