"""Tests for the Verilog backend and the resource estimator."""

import glob
import os

import pytest

from repro.backend import emit_verilog, estimate_resources
from repro.backend.resources import _is_operator, count_register_cells
from repro.backend.verilog import verilog_loc
from repro.cli import main as cli_main
from repro.errors import PassError
from repro.frontends.dahlia import compile_dahlia
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.ir.guards import AndGuard, NotGuard, OrGuard, PortGuard, TrueGuard, fold
from repro.passes import compile_program, get_pass
from repro.stdlib.primitives import get_primitive
from repro.workloads.polybench import get_kernel
from tests.conftest import SUM_LOOP, TWO_WRITES, verilog_module_ports

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def lowered(source=SUM_LOOP, pipeline="lower"):
    prog = parse_program(source)
    compile_program(prog, pipeline)
    return prog


class TestVerilog:
    def test_requires_lowered_program(self):
        with pytest.raises(PassError):
            emit_verilog(parse_program(TWO_WRITES))

    def test_module_structure(self):
        text = emit_verilog(lowered())
        assert "module main (" in text
        assert "endmodule" in text
        assert "input  logic clk" in text

    def test_prelude_contains_used_primitives(self):
        text = emit_verilog(lowered())
        assert "module std_reg" in text
        assert "module std_mem_d1" in text
        assert "module std_add" in text
        # unused primitives are not emitted
        assert "module std_div_pipe" not in text

    def test_no_prelude_option(self):
        text = emit_verilog(lowered(), include_prelude=False)
        assert "module std_reg" not in text
        assert "module main (" in text

    def test_cells_instantiated_with_parameters(self):
        text = emit_verilog(lowered())
        assert "std_mem_d1 #(.WIDTH(32), .SIZE(4), .IDX_SIZE(2)) mem (" in text

    def test_guarded_assignment_becomes_mux_chain(self):
        text = emit_verilog(lowered())
        assert " ? " in text and " : " in text

    def test_loc_counts(self):
        assert verilog_loc(lowered()) > 100

    def test_hierarchical_emission(self):
        src = """
component sub(v: 8) -> (r: 8) {
  cells { a = std_add(8); }
  wires { a.left = v; a.right = 8'd1; r = a.out; }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells { s = sub(); q = std_reg(8); }
  wires {
    s.v = 8'd1;
    group g { q.in = s.r; q.write_en = 1; g[done] = q.done; }
  }
  control { g; }
}
"""
        text = emit_verilog(lowered(src))
        assert "module sub (" in text
        assert "sub s (" in text

    def test_sqrt_module_and_clock(self, tmp_path, capsys):
        """A design with a ``std_sqrt`` gets its module and clocks it."""
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
        text = emit_verilog(lowered(src))
        ports = list(get_primitive("std_sqrt").signature((32,))) + ["clk"]
        assert verilog_module_ports(text, "std_sqrt") == sorted(ports)
        instance = text.split("std_sqrt #(.WIDTH(32)) s (", 1)[1].split(");", 1)[0]
        assert ".clk(clk)" in instance
        path = tmp_path / "sqrt.futil"
        path.write_text(src)
        assert cli_main(["compile", str(path), "--emit", "verilog"]) == 0
        assert "module std_sqrt" in capsys.readouterr().out


class TestResources:
    def test_totals_positive(self):
        res = estimate_resources(lowered())
        assert res.luts > 0
        assert res.registers > 0

    def test_sharing_reduces_register_count(self):
        base = lowered(SUM_LOOP, "lower-static")
        shared = lowered(SUM_LOOP, "register-share-only")
        assert (
            count_register_cells(shared) <= count_register_cells(base)
        )

    def test_mux_cost_charged_for_multiple_drivers(self):
        res = estimate_resources(lowered())
        assert res.detail.get("mux", 0) > 0

    def test_guard_cost_charged(self):
        res = estimate_resources(lowered())
        assert res.detail.get("guards", 0) > 0

    def test_register_cells_counts_hierarchy(self):
        src = """
component sub(go: 1) -> (done: 1) {
  cells { r = std_reg(8); }
  wires {
    group g { r.in = 8'd1; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
component main(go: 1) -> (done: 1) {
  cells { s1 = sub(); s2 = sub(); }
  wires {}
  control { seq { invoke s1()(); invoke s2()(); } }
}
"""
        prog = parse_program(src)
        # count before lowering: 2 instances x 1 register
        assert count_register_cells(prog) == 2

    def test_dsp_and_bram_counted(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells {
    m = std_mult_pipe(32);
    @external big = std_mem_d1(32, 256, 8);
    r = std_reg(32);
  }
  wires {
    group g {
      m.left = 32'd2; m.right = 32'd3;
      m.go = !m.done ? 1;
      g[done] = m.done;
    }
    group st {
      big.addr0 = 8'd0; big.write_data = m.out; big.write_en = 1;
      st[done] = big.done;
    }
  }
  control { seq { g; st; } }
}
"""
        res = estimate_resources(lowered(src))
        assert res.dsps > 0
        assert res.brams > 0


def _structural_guard_nodes(guard, keys):
    """Distinct operator nodes keyed by structure, walking the whole tree."""
    if isinstance(guard, (TrueGuard, PortGuard)):
        return
    keys.add((type(guard).__name__, guard.to_string()))
    if isinstance(guard, NotGuard):
        _structural_guard_nodes(guard.inner, keys)
    elif isinstance(guard, (AndGuard, OrGuard)):
        _structural_guard_nodes(guard.left, keys)
        _structural_guard_nodes(guard.right, keys)


GUARD_CORPUS = ["systolic-4x4", "gemm-unrolled"] + sorted(
    os.path.basename(path) for path in glob.glob(os.path.join(EXAMPLES, "*.futil"))
)


def _guard_design(name):
    if name == "systolic-4x4":
        return generate_systolic_array(SystolicConfig.square(4))
    if name == "gemm-unrolled":
        return compile_dahlia(get_kernel("gemm", 4).unrolled_source).program
    with open(os.path.join(EXAMPLES, name)) as handle:
        return parse_program(handle.read())


@pytest.mark.parametrize("name", GUARD_CORPUS)
def test_resource_guard_count_matches_structural_reference(name):
    # An identity set counts structure only if every construction path
    # interns; a path that bypassed interning would count extra nodes.
    program = compile_program(_guard_design(name), "all")
    for comp in program.components:
        operators, keys = {}, set()
        for _, assign in comp.all_assignments():
            fold(assign.guard, _is_operator, operators)
            _structural_guard_nodes(assign.guard, keys)
        assert keys and sum(operators.values()) == len(keys), (name, comp.name)


#: ``estimate_resources`` after ``all``: (LUTs, registers, DSPs, BRAMs,
#: LUTs by category). A change to how the estimate reads the netlists
#: must leave every figure unchanged.
RESOURCE_TOTALS = {
    "branch_max.futil": (
        102.0, 76, 0, 0, {"cmp": 17.0, "guards": 43.0, "lutram": 2.0, "mux": 40.0}
    ),
    "dot_product.futil": (
        181.0, 111, 4, 0,
        {"arith": 34.0, "cmp": 17.0, "dsp": 20.0, "guards": 42.0, "lutram": 5.0, "mux": 63.0},
    ),
    "par_reduce.futil": (
        175.0, 81, 0, 0, {"arith": 72.0, "guards": 24.0, "lutram": 3.0, "mux": 76.0}
    ),
    "sum_loop.futil": (
        157.0, 76, 0, 0, {"arith": 34.0, "cmp": 17.0, "guards": 40.0, "lutram": 2.0, "mux": 64.0}
    ),
    "systolic-2x2": (
        440.0, 715, 16, 0,
        {"arith": 159.0, "dsp": 80.0, "guards": 111.0, "lutram": 6.0, "mux": 84.0},
    ),
    "systolic-3x3": (
        995.0, 1596, 36, 0,
        {"arith": 355.0, "dsp": 180.0, "guards": 231.0, "lutram": 17.0, "mux": 212.0},
    ),
    "systolic-4x4": (
        1728.0, 2813, 64, 0,
        {"arith": 617.0, "dsp": 320.0, "guards": 385.0, "lutram": 24.0, "mux": 382.0},
    ),
}


@pytest.mark.parametrize("name", sorted(RESOURCE_TOTALS))
def test_resource_totals_are_pinned(name):
    if name.startswith("systolic-"):
        n = int(name.rsplit("x", 1)[1])
        program = generate_systolic_array(SystolicConfig.square(n))
    else:
        with open(os.path.join(EXAMPLES, name)) as handle:
            program = parse_program(handle.read())
    res = estimate_resources(compile_program(program, "all"))
    assert (res.luts, res.registers, res.dsps, res.brams, res.detail) == RESOURCE_TOTALS[name]
