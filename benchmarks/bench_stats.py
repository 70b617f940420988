"""Benchmark: Section 7.4 — compilation statistics.

Reproduces the paper's compiler statistics: structural counts of the 8x8
systolic array (paper: 241 cells, 224 groups, 1744 control statements,
8906 LOC of generated SystemVerilog) and compile time for gemver.

Run: pytest benchmarks/bench_stats.py --benchmark-only -s
"""

import os

from repro.eval.table_stats import report, run


def test_compilation_statistics(benchmark):
    systolic_n = 4 if os.environ.get("REPRO_FAST") else 8
    rows = benchmark.pedantic(
        lambda: run(systolic_n=systolic_n), rounds=1, iterations=1
    )
    print()
    print(report(rows))

    gemver, systolic = rows
    # Paper: 0.06 s. A loose ceiling, not a reproduction of the figure.
    assert gemver.compile_seconds < 30
    if systolic_n == 8:
        # Same order of magnitude as the paper's structural counts.
        assert 150 <= systolic.cells <= 400
        assert 150 <= systolic.groups <= 400
        assert 1000 <= systolic.control_statements <= 3000
        assert systolic.verilog_loc > 3000
