"""Figure 8: Dahlia-generated Calyx vs. Vivado HLS on PolyBench.

For each of the 19 linear-algebra kernels (and the 11 unrolled variants):

* **Figure 8a** — cycle count of the Calyx design (all optimizations on)
  normalized to the HLS design (pipelined innermost loops — the pragmas
  the original Dahlia-to-HLS flow emits),
* **Figure 8b** — LUT usage normalized the same way.

Paper reference points: Calyx designs are 3.1x slower and use 1.2x more
LUTs on average; unrolled designs are 2.3x slower with 2.2x more LUTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.eval.common import DesignMetrics, evaluate_dahlia_kernel, geomean
from repro.eval.report import render_table
from repro.frontends.dahlia.parser import parse
from repro.frontends.dahlia.typecheck import typecheck
from repro.hls import HlsConfig, schedule_program
from repro.sim import DEFAULT_ENGINE
from repro.workloads.polybench import Kernel, polybench_kernels


@dataclass
class Fig8Row:
    name: str
    unrolled: bool
    calyx_cycles: int
    calyx_luts: float
    hls_cycles: int
    hls_luts: float
    metrics: DesignMetrics

    @property
    def label(self) -> str:
        """Kernel name as the table and the throughput JSON show it."""
        return self.name + ("-u" if self.unrolled else "")

    @property
    def slowdown(self) -> float:
        return self.calyx_cycles / self.hls_cycles

    @property
    def lut_ratio(self) -> float:
        return self.calyx_luts / self.hls_luts


def measure(
    kernel: Kernel,
    unrolled: bool,
    simulate: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> Fig8Row:
    metrics = evaluate_dahlia_kernel(
        kernel, unrolled=unrolled, pipeline="all", simulate=simulate, engine=engine
    )
    source = kernel.unrolled_source if unrolled else kernel.source
    assert source is not None
    hls = schedule_program(
        typecheck(parse(source)), HlsConfig(pipeline_innermost=True)
    )
    return Fig8Row(
        name=kernel.name,
        unrolled=unrolled,
        calyx_cycles=metrics.cycles or 0,
        calyx_luts=metrics.luts,
        hls_cycles=hls.latency_cycles,
        hls_luts=hls.luts,
        metrics=metrics,
    )


def run(
    n: int = 4,
    unroll: int = 2,
    kernels: Optional[List[str]] = None,
    simulate: bool = True,
    include_unrolled: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> List[Fig8Row]:
    rows: List[Fig8Row] = []
    for kernel in polybench_kernels(n, unroll):
        if kernels is not None and kernel.name not in kernels:
            continue
        rows.append(measure(kernel, unrolled=False, simulate=simulate, engine=engine))
        if include_unrolled and kernel.unrollable:
            rows.append(measure(kernel, unrolled=True, simulate=simulate, engine=engine))
    return rows


def report(rows: List[Fig8Row]) -> str:
    table = render_table(
        "Figure 8: Dahlia-to-Calyx vs Vivado HLS (PolyBench linear algebra)",
        ["kernel", "calyx cyc", "HLS cyc", "slowdown", "calyx LUT", "HLS LUT", "LUT ratio"],
        [
            [
                r.label,
                r.calyx_cycles,
                r.hls_cycles,
                r.slowdown,
                round(r.calyx_luts),
                round(r.hls_luts),
                r.lut_ratio,
            ]
            for r in rows
        ],
    )
    plain = [r for r in rows if not r.unrolled]
    unrolled = [r for r in rows if r.unrolled]
    lines = [table, ""]
    if plain:
        lines.append(
            f"geomean slowdown vs HLS: {geomean([r.slowdown for r in plain]):.2f}x "
            f"(paper: 3.1x); geomean LUT ratio: "
            f"{geomean([r.lut_ratio for r in plain]):.2f}x (paper: 1.2x)"
        )
    if unrolled:
        lines.append(
            f"unrolled geomean slowdown: {geomean([r.slowdown for r in unrolled]):.2f}x "
            f"(paper: 2.3x); LUT ratio: "
            f"{geomean([r.lut_ratio for r in unrolled]):.2f}x (paper: 2.2x)"
        )
    return "\n".join(lines)


def main() -> str:
    text = report(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
