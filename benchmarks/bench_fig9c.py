"""Benchmark: Figure 9c — effect of latency-sensitive compilation.

Simulates every PolyBench kernel with the Sensitive pass enabled and
disabled (paper: 1.43x average speedup with no area change).

Run: pytest benchmarks/bench_fig9c.py --benchmark-only -s
"""

from repro.eval.common import geomean
from repro.eval.fig9_opts import report_sensitive, run_sensitive

from benchmarks.conftest import POLYBENCH_N, polybench_subset, sim_engine


def test_fig9c_sensitive_speedup(benchmark, request):
    engine = sim_engine(request)
    rows = benchmark.pedantic(
        lambda: run_sensitive(n=POLYBENCH_N, kernels=polybench_subset(), engine=engine),
        rounds=1,
        iterations=1,
    )
    print()
    print(report_sensitive(rows))

    speedup = geomean([r.speedup for r in rows])
    assert speedup > 1.15, "Sensitive should speed designs up"
    assert all(r.speedup >= 1.0 for r in rows)
    # Area essentially unchanged.
    lut_ratio = geomean([r.lut_ratio for r in rows])
    assert 0.8 < lut_ratio < 1.2
