"""Tests for the command-line driver and the runnable examples."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from tests.conftest import SUM_LOOP, TWO_WRITES

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


@pytest.fixture
def futil_file(tmp_path):
    path = tmp_path / "sum.futil"
    path.write_text(SUM_LOOP)
    return str(path)


@pytest.fixture
def dahlia_file(tmp_path):
    path = tmp_path / "k.dahlia"
    path.write_text(
        "decl a: ubit<32>[4];\nfor (let i = 0..4) { a[i] := a[i] + 1 }"
    )
    return str(path)


class TestCli:
    def test_compile_emits_calyx(self, futil_file, capsys):
        assert cli_main(["compile", futil_file, "-p", "lower"]) == 0
        out = capsys.readouterr().out
        assert "component main" in out
        assert "group" not in out  # lowered

    def test_compile_emits_verilog(self, futil_file, capsys):
        cli_main(["compile", futil_file, "--emit", "verilog"])
        out = capsys.readouterr().out
        assert "module main (" in out

    def test_run_reports_cycles_and_memories(self, futil_file, capsys):
        cli_main(["run", futil_file, "--mem", "mem=1,2,3,4"])
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "mem = [10, 2, 3, 4]" in out

    def test_run_interpret_mode(self, futil_file, capsys):
        cli_main(["run", futil_file, "--interpret", "--mem", "mem=1,2,3,4"])
        assert "mem = [10, 2, 3, 4]" in capsys.readouterr().out

    def test_resources(self, futil_file, capsys):
        cli_main(["resources", futil_file])
        assert "LUTs=" in capsys.readouterr().out

    def test_dahlia_subcommand(self, dahlia_file, capsys):
        cli_main(["dahlia", dahlia_file, "-p", "validate"])
        assert "component main" in capsys.readouterr().out

    def test_systolic_subcommand(self, capsys):
        cli_main(["systolic", "2", "-p", "validate"])
        out = capsys.readouterr().out
        assert "mac_pe" in out

    def test_bad_pipeline_rejected(self, futil_file):
        with pytest.raises(SystemExit):
            cli_main(["compile", futil_file, "-p", "bogus"])


class TestCliErrorHandling:
    def test_missing_file_is_one_line_error(self, capsys):
        assert cli_main(["compile", "/no/such/file.futil"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_malformed_mem_values(self, futil_file, capsys):
        assert cli_main(["run", futil_file, "--mem", "mem=1,oops,3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--mem" in err

    def test_malformed_mem_missing_equals(self, futil_file, capsys):
        assert cli_main(["run", futil_file, "--mem", "mem"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_calyx_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.futil"
        bad.write_text("component main( {")
        assert cli_main(["compile", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_debug_reraises(self):
        from repro.errors import CalyxError

        with pytest.raises(CalyxError):
            cli_main(["--debug", "compile", "/no/such/file.futil"])


class TestCliRobustnessFlags:
    def test_timings_flag(self, futil_file, capsys):
        assert cli_main(["compile", futil_file, "-p", "lower", "--timings"]) == 0
        err = capsys.readouterr().err
        assert "well-formed" in err
        assert "total" in err
        assert "ms" in err

    def test_timings_on_run(self, futil_file, capsys):
        assert (
            cli_main(
                ["run", futil_file, "--timings", "--mem", "mem=1,2,3,4"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "cycles:" in captured.out
        assert "compile-control" in captured.err

    def test_checked_flag(self, futil_file, capsys):
        assert cli_main(["compile", futil_file, "--checked"]) == 0
        assert "component main" in capsys.readouterr().out

    def test_difftest_subcommand_passes(self, futil_file, capsys):
        assert cli_main(["difftest", futil_file, "-p", "lower"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "interpreted" in out

    def test_difftest_bad_file(self, capsys):
        assert cli_main(["difftest", "/no/such/file.futil"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEvalCli:
    def test_fig9_simulates_on_the_chosen_engine(self, monkeypatch, capsys):
        from repro.eval import fig9_opts
        from repro.workloads.polybench import get_kernel

        simulated = []
        evaluate = fig9_opts.evaluate_dahlia_kernel

        def spy(kernel, **options):
            if options["simulate"]:
                simulated.append(options.get("engine"))
            return evaluate(kernel, **options)

        monkeypatch.setattr(fig9_opts, "evaluate_dahlia_kernel", spy)
        monkeypatch.setattr(fig9_opts, "polybench_kernels", lambda n: [get_kernel("trisolv", 2)])
        assert cli_main(["eval", "fig9", "--engine", "sweep"]) == 0
        assert simulated == ["sweep", "sweep"]
        assert "Figure 9c" in capsys.readouterr().out

    @pytest.mark.parametrize("figure", ["fig9", "stats"])
    def test_emit_json_is_a_usage_error_where_nothing_is_emitted(
        self, figure, tmp_path, capsys
    ):
        path = tmp_path / "sim.json"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["eval", figure, "--emit-json", str(path)])
        assert exit_info.value.code == 2
        assert "--emit-json applies to fig7 and fig8" in capsys.readouterr().err
        assert not path.exists()

    def test_engine_is_a_usage_error_for_stats(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["eval", "stats", "--engine", "sweep"])
        assert exit_info.value.code == 2
        assert "stats does not simulate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "example", sorted(p.name for p in EXAMPLES.glob("*.futil"))
)
def test_futil_example_difftest(example, capsys):
    """Every shipped .futil example survives the differential oracle."""
    assert cli_main(["difftest", str(EXAMPLES / example), "-p", "lower"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "systolic_matmul.py",
        "dahlia_kernel.py",
        "resource_sharing_demo.py",
    ],
)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]


BAD_DRIVERS = """
component main(go: 1) -> (done: 1) {
  cells { x = std_reg(32); }
  wires {
    group one {
      x.in = 32'd5; x.in = 32'd6; x.write_en = 1;
      one[done] = x.done;
    }
  }
  control { one; }
}
"""


DUPLICATE_PORT_WRITE = """
component sub(a: 8, a: 8) -> () {
  cells {}
  wires {}
  control {}
}
component main() -> () {
  cells { s = sub(); }
  wires {
    group g { s.a = LITERAL; g[done] = s.done; }
  }
  control { g; }
}
"""


class TestLintCli:
    """Exit codes: 0 clean (warnings allowed), 1 lint errors, 2 toolchain."""

    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.futil"
        path.write_text(BAD_DRIVERS)
        return str(path)

    def test_clean_file_exits_zero(self, futil_file, capsys):
        assert cli_main(["lint", futil_file]) == 0
        assert "clean" in capsys.readouterr().out

    def test_clean_across_stages(self, futil_file, capsys):
        assert cli_main(["lint", futil_file, "-p", "all", "--stages"]) == 0
        assert "clean across" in capsys.readouterr().out

    def test_lint_errors_exit_one(self, bad_file, capsys):
        assert cli_main(["lint", bad_file]) == 1
        assert "multiple-drivers" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, capsys):
        assert cli_main(["lint", "no/such/file.futil"]) == 2

    @pytest.mark.parametrize("literal", ["8'd1", "1"])
    def test_write_to_a_port_declared_twice_is_linted(self, tmp_path, capsys, literal):
        # Sizing the literal must not resolve the malformed callee's
        # signature: lint reports the defect instead of a toolchain failure.
        path = tmp_path / "dup.futil"
        path.write_text(DUPLICATE_PORT_WRITE.replace("LITERAL", literal))
        assert cli_main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error[duplicate-port]: component 'sub' declares port 'a' 2 times" in out
        assert "error[unknown-name]: cell 's' does not instantiate a known component" in out
        assert "toolchain failure" not in out

    @pytest.mark.parametrize("literal", ["1'd1", "1"])
    def test_write_to_a_malformed_primitive_is_linted(self, tmp_path, capsys, literal):
        # The unsized literal cannot take the malformed register's port
        # width; it must not turn the cell's own diagnostic into a
        # toolchain failure.
        src = TWO_WRITES.replace("x = std_reg(32)", "x = std_reg(32, 4)")
        path = tmp_path / "malformed.futil"
        path.write_text(src.replace("x.write_en = 1;", f"x.write_en = {literal};"))
        assert cli_main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert (
            "4:5: error[unknown-name]: cell 'x' does not instantiate a known component: "
            "primitive 'std_reg' takes 1 parameter(s) (WIDTH), got 2" in out
        )
        assert "1 error(s), 0 warning(s)" in out
        assert "toolchain failure" not in out

    def test_json_format(self, bad_file, capsys):
        import json

        assert cli_main(["lint", bad_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["files"]
        assert entry["errors"] >= 1
        rules = {
            d["rule"]
            for stage in entry["stages"]
            for d in stage["diagnostics"]
        }
        assert "multiple-drivers" in rules

    def test_rules_table(self, capsys):
        assert cli_main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "multiple-drivers" in out and "comb-cycle" in out

    def test_no_files_is_an_error(self, capsys):
        assert cli_main(["lint"]) == 1
        assert "no input files" in capsys.readouterr().err
