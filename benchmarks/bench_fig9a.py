"""Benchmark: Figure 9a — LUT effect of the sharing passes.

Compiles every PolyBench kernel in four configurations (no sharing,
resource sharing, register sharing, both) and reports LUT ratios against
the unshared baseline. The paper's counterintuitive headline — sharing can
*increase* LUTs because of the multiplexers it inserts (+3% resource
sharing, +11% register sharing) — is asserted as a direction: ratios stay
close to 1 and are sometimes above it.

Run: pytest benchmarks/bench_fig9a.py --benchmark-only -s
"""

from repro.eval.common import geomean
from repro.eval.fig9_opts import report_sharing, run_sharing

from benchmarks.conftest import POLYBENCH_N, polybench_subset


def test_fig9a_sharing_lut_effect(benchmark):
    rows = benchmark.pedantic(
        lambda: run_sharing(n=POLYBENCH_N, kernels=polybench_subset()),
        rounds=1,
        iterations=1,
    )
    print()
    print(report_sharing(rows))

    res_ratio = geomean([r.resource_ratio for r in rows])
    reg_ratio = geomean([r.register_ratio for r in rows])
    # Sharing's LUT effect is small — within ±15% — not a uniform drop.
    assert 0.85 < res_ratio < 1.15
    assert 0.85 < reg_ratio < 1.15
