"""Benchmark: Figure 7 — systolic arrays vs Vivado HLS (cycles + LUTs).

Regenerates both panels of Figure 7 plus the latency-sensitive series.
The benchmark value is the wall time of the full experiment; the figure's
actual data (cycle counts, LUTs, ratios) is printed to stdout and checked
against the paper's qualitative claims.

Run: pytest benchmarks/bench_fig7.py --benchmark-only -s
"""

from repro.eval.common import geomean
from repro.eval.fig7_systolic import report, run

from benchmarks.conftest import emit_sim_json, fig7_sizes, sim_engine


def test_fig7_systolic_vs_hls(benchmark, request):
    engine = sim_engine(request)
    rows = benchmark.pedantic(
        lambda: run(sizes=fig7_sizes(), simulate=True, engine=engine),
        rounds=1,
        iterations=1,
    )
    print()
    print(report(rows))
    emit_sim_json(request, "fig7", rows)

    # Paper shape assertions: systolic wins, the gap grows with size,
    # LUT overhead is modest, Sensitive gives ~2x.
    speedups = [r.speedup for r in rows]
    assert speedups[-1] > speedups[0], "speedup should grow with size"
    assert speedups[-1] > 4, "largest size should be several times faster"
    assert geomean(speedups) > 2
    lut_ratios = [r.lut_ratio for r in rows]
    assert 1.0 < geomean(lut_ratios) < 1.5
    assert all(r.sensitive_speedup > 1.5 for r in rows)
