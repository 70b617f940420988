"""Benchmark: Figure 9b — register reduction from register sharing.

Counts flip-flops with the live-range-based register sharing pass on and
off for every PolyBench kernel (paper: 12% average reduction).

Run: pytest benchmarks/bench_fig9b.py --benchmark-only -s
"""

from repro.eval.fig9_opts import report_sharing, run_sharing

from benchmarks.conftest import POLYBENCH_N, polybench_subset


def test_fig9b_register_reduction(benchmark):
    rows = benchmark.pedantic(
        lambda: run_sharing(n=POLYBENCH_N, kernels=polybench_subset()),
        rounds=1,
        iterations=1,
    )
    print()
    print(report_sharing(rows))

    reductions = [r.register_reduction for r in rows]
    # Direction: the pass never increases registers and finds sharing
    # opportunities in a substantial fraction of the suite.
    assert all(r >= 0 for r in reductions)
    assert sum(1 for r in reductions if r > 0) >= len(rows) // 3
    assert max(reductions) > 0.05
