"""Figure 7: systolic arrays vs. Vivado HLS on matrix multiply.

Regenerates, for sizes 2x2 .. 8x8:

* **Figure 7a** — cycle counts: the Calyx-generated systolic array
  (simulated, as with Verilator) against the HLS baseline kernel (the HLS
  report's latency),
* **Figure 7b** — LUT usage of both designs,
* the latency-sensitive vs latency-insensitive series (the ``Sensitive``
  pass, whose latencies are fully *inferred*, Section 5.3).

Paper reference points: systolic arrays are 4.6x faster (geomean) and
1.11x larger; 10.78x faster and 1.3x larger at 8x8; ``Sensitive`` makes
them 1.9x faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.eval.common import (
    DesignMetrics,
    evaluate_systolic,
    geomean,
)
from repro.eval.report import render_table
from repro.hls import HlsReport
from repro.sim import DEFAULT_ENGINE
from repro.workloads.matmul import hls_matmul_report


@dataclass
class Fig7Row:
    size: int
    systolic_cycles: int
    systolic_luts: float
    insensitive_cycles: int
    insensitive_luts: float
    hls_cycles: int
    hls_luts: float
    #: The latency-sensitive array, whose simulation throughput Fig. 7
    #: records (the insensitive array contributes only cycles and LUTs).
    metrics: DesignMetrics

    @property
    def label(self) -> str:
        """This row's key in the throughput JSON."""
        return f"systolic-{self.size}x{self.size}"

    @property
    def speedup(self) -> float:
        return self.hls_cycles / self.systolic_cycles

    @property
    def lut_ratio(self) -> float:
        return self.systolic_luts / self.hls_luts

    @property
    def sensitive_speedup(self) -> float:
        return self.insensitive_cycles / self.systolic_cycles


def run(
    sizes: List[int] = (2, 3, 4, 5, 6, 7, 8),
    simulate: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> List[Fig7Row]:
    rows: List[Fig7Row] = []
    for n in sizes:
        sensitive: DesignMetrics = evaluate_systolic(
            n, "lower-static", simulate, engine=engine
        )
        insensitive: DesignMetrics = evaluate_systolic(
            n, "lower", simulate, engine=engine
        )
        hls: HlsReport = hls_matmul_report(n)
        rows.append(
            Fig7Row(
                size=n,
                systolic_cycles=sensitive.cycles or 0,
                systolic_luts=sensitive.luts,
                insensitive_cycles=insensitive.cycles or 0,
                insensitive_luts=insensitive.luts,
                hls_cycles=hls.latency_cycles,
                hls_luts=hls.luts,
                metrics=sensitive,
            )
        )
    return rows


def report(rows: List[Fig7Row]) -> str:
    table = render_table(
        "Figure 7: systolic array vs Vivado HLS (matrix multiply)",
        [
            "size",
            "systolic cyc",
            "HLS cyc",
            "speedup",
            "systolic LUT",
            "HLS LUT",
            "LUT ratio",
            "sens. speedup",
        ],
        [
            [
                f"{r.size}x{r.size}",
                r.systolic_cycles,
                r.hls_cycles,
                r.speedup,
                round(r.systolic_luts),
                round(r.hls_luts),
                r.lut_ratio,
                r.sensitive_speedup,
            ]
            for r in rows
        ],
    )
    summary = (
        f"\ngeomean speedup over HLS: {geomean([r.speedup for r in rows]):.2f}x "
        f"(paper: 4.6x); at largest size: {rows[-1].speedup:.2f}x (paper: 10.78x)\n"
        f"geomean LUT ratio: {geomean([r.lut_ratio for r in rows]):.2f}x (paper: 1.11x)\n"
        f"geomean Sensitive speedup: "
        f"{geomean([r.sensitive_speedup for r in rows]):.2f}x (paper: 1.9x)"
    )
    return table + summary


def main() -> str:
    text = report(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
