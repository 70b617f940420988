"""Smoke tests for the evaluation harness (small sizes for speed)."""

import json
from types import SimpleNamespace

import pytest

from benchmarks.conftest import emit_sim_json
from repro.cli import main as cli_main
from repro.eval import common, fig8_polybench
from repro.eval.common import (
    evaluate_dahlia_kernel,
    evaluate_systolic,
    geomean,
    throughput_json,
)
from repro.eval.fig7_systolic import run as fig7_run, report as fig7_report
from repro.eval.fig8_polybench import measure as fig8_measure, report as fig8_report
from repro.eval.fig9_opts import (
    report_sensitive,
    report_sharing,
    run_sensitive,
    run_sharing,
)
from repro.eval.report import render_table
from repro.eval.table_stats import gemver_stats, systolic_stats
from repro.workloads.polybench import get_kernel


class TestCommon:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_evaluate_systolic(self):
        metrics = evaluate_systolic(2, "lower-static")
        assert metrics.cycles and metrics.cycles > 0
        assert metrics.luts > 0
        assert metrics.compile_seconds > 0

    def test_evaluate_without_simulation(self):
        metrics = evaluate_systolic(2, "lower", simulate=False)
        assert metrics.cycles is None
        assert metrics.luts > 0

    def test_evaluate_dahlia_kernel(self):
        metrics = evaluate_dahlia_kernel(get_kernel("trisolv", 4), simulate=True)
        assert metrics.cycles and metrics.cycles > 0

    def test_render_table(self):
        text = render_table("T", ["a", "b"], [[1, 2.5], ["x", "y"]])
        assert "T" in text and "2.50" in text


class TestFig7:
    def test_small_run(self):
        rows = fig7_run(sizes=[2], simulate=True)
        assert len(rows) == 1
        row = rows[0]
        assert row.hls_cycles > row.systolic_cycles  # systolic wins
        assert row.sensitive_speedup > 1.5
        text = fig7_report(rows)
        assert "paper: 4.6x" in text

    def test_throughput_is_the_sensitive_design_timed_alone(self, monkeypatch):
        # Each simulation reads the clock three times, around its engine
        # build and its run: the sensitive array builds (1 s) and runs (2 s)
        # first, then the insensitive one (3 s and 5 s).
        clock = SimpleNamespace(perf_counter=iter([0.0, 1.0, 3.0, 10.0, 13.0, 18.0]).__next__)
        monkeypatch.setattr(common, "time", clock)
        (row,) = fig7_run(sizes=[2], simulate=True)
        entry = throughput_json({row.label: row.metrics})["systolic-2x2"]
        assert entry["build_seconds"] == 1.0
        assert entry["sim_seconds"] == 2.0
        assert entry["cycles"] == row.systolic_cycles
        # The engine build is not simulation: throughput is over the run alone.
        assert entry["cycles_per_second"] == round(row.systolic_cycles / 2.0, 1)


class TestFig8:
    def test_one_kernel(self):
        row = fig8_measure(get_kernel("trisolv", 4), unrolled=False)
        assert row.calyx_cycles > row.hls_cycles  # HLS wins (pipelining)
        assert row.slowdown > 1
        text = fig8_report([row])
        assert "trisolv" in text


def _one_kernel_fig8(monkeypatch):
    """Make ``fig8_polybench.run`` regenerate only trisolv (n=2)."""
    real_run = fig8_polybench.run
    monkeypatch.setattr(
        fig8_polybench,
        "run",
        lambda engine: real_run(n=2, kernels=["trisolv"], engine=engine),
    )


class TestEmitJson:
    def test_cli_merges_into_an_existing_file(self, tmp_path, monkeypatch):
        _one_kernel_fig8(monkeypatch)
        path = tmp_path / "BENCH_sim.json"
        sweep = {"trisolv": {"cycles": 1, "engine": "sweep"}}
        path.write_text(json.dumps({"fig8": {"sweep": sweep}}))
        args = ["eval", "fig8", "--engine", "levelized", "--emit-json", str(path)]
        assert cli_main(args) == 0
        data = json.loads(path.read_text())
        assert data["fig8"]["sweep"] == sweep
        entry = data["fig8"]["levelized"]["trisolv"]
        assert sorted(entry) == [
            "build_seconds",
            "cycles",
            "cycles_per_second",
            "engine",
            "sim_seconds",
        ]
        assert entry["engine"] == "levelized" and entry["cycles"] > 0

    def test_cli_and_benchmarks_write_the_same_json(self, tmp_path, monkeypatch):
        rows = fig8_polybench.run(n=2, kernels=["trisolv"], engine="levelized")
        monkeypatch.setattr(fig8_polybench, "run", lambda engine: rows)
        from_cli = tmp_path / "cli.json"
        cli_main(["eval", "fig8", "--emit-json", str(from_cli)])
        from_bench = tmp_path / "bench.json"
        options = {"--emit-json": str(from_bench), "--engine": "levelized"}
        request = SimpleNamespace(config=SimpleNamespace(getoption=options.get))
        emit_sim_json(request, "fig8", rows)
        assert from_cli.read_text() == from_bench.read_text()
        assert list(json.loads(from_cli.read_text())["fig8"]) == ["levelized"]


class TestFig9:
    def test_sharing_rows(self):
        rows = run_sharing(n=4, kernels=["mvt"])
        assert len(rows) == 1
        row = rows[0]
        assert row.baseline_luts > 0
        assert row.register_regs <= row.baseline_regs  # sharing never adds FFs
        assert "paper" in report_sharing(rows)

    def test_sensitive_rows(self):
        rows = run_sensitive(n=4, kernels=["trisolv"])
        row = rows[0]
        assert row.speedup > 1.0  # Sensitive always helps
        assert "1.43x" in report_sensitive(rows)


class TestStats:
    def test_systolic_stats_2x2(self):
        stats = systolic_stats(2)
        assert stats.cells > 10
        assert stats.groups > 10
        assert stats.control_statements > 20
        assert stats.verilog_loc > 100

    def test_gemver_stats(self):
        stats = gemver_stats(4)
        assert stats.cells > 10
        assert stats.compile_seconds > 0
