"""Figure 9: effects of the optimization passes (ablation study).

Three sub-figures over the PolyBench kernels:

* **9a** — LUT change from resource sharing, register sharing, and both,
  relative to a baseline with neither (sharing adds multiplexers, so LUTs
  can go *up*: the paper reports +3% for resource sharing and +11% for
  register sharing on average),
* **9b** — register reduction from register sharing (paper: −12% on
  average, with savings in every benchmark),
* **9c** — cycle-time effect of the ``Sensitive`` (latency-sensitive
  compilation) pass (paper: 1.43x faster on average, area unchanged).

Resource numbers need no simulation, so 9a/9b run on every kernel
quickly; 9c simulates each kernel twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.eval.common import evaluate_dahlia_kernel, geomean
from repro.eval.report import render_table
from repro.sim import DEFAULT_ENGINE
from repro.workloads.polybench import polybench_kernels


@dataclass
class Fig9aRow:
    name: str
    baseline_luts: float
    resource_luts: float
    register_luts: float
    both_luts: float
    baseline_regs: int
    register_regs: int

    @property
    def resource_ratio(self) -> float:
        return self.resource_luts / self.baseline_luts

    @property
    def register_ratio(self) -> float:
        return self.register_luts / self.baseline_luts

    @property
    def both_ratio(self) -> float:
        return self.both_luts / self.baseline_luts

    @property
    def register_reduction(self) -> float:
        """Fraction of flip-flops removed by register sharing (Figure 9b)."""
        return 1.0 - self.register_regs / self.baseline_regs


@dataclass
class Fig9cRow:
    name: str
    insensitive_cycles: int
    sensitive_cycles: int
    insensitive_luts: float
    sensitive_luts: float

    @property
    def speedup(self) -> float:
        return self.insensitive_cycles / self.sensitive_cycles

    @property
    def lut_ratio(self) -> float:
        return self.sensitive_luts / self.insensitive_luts


def run_sharing(n: int = 4, kernels: Optional[List[str]] = None) -> List[Fig9aRow]:
    """Figures 9a and 9b: sharing ablations (no simulation needed)."""
    rows: List[Fig9aRow] = []
    for kernel in polybench_kernels(n):
        if kernels is not None and kernel.name not in kernels:
            continue
        base = evaluate_dahlia_kernel(kernel, pipeline="lower-static", simulate=False)
        res = evaluate_dahlia_kernel(kernel, pipeline="resource-share-only", simulate=False)
        reg = evaluate_dahlia_kernel(kernel, pipeline="register-share-only", simulate=False)
        both = evaluate_dahlia_kernel(kernel, pipeline="all", simulate=False)
        rows.append(
            Fig9aRow(
                name=kernel.name,
                baseline_luts=base.luts,
                resource_luts=res.luts,
                register_luts=reg.luts,
                both_luts=both.luts,
                baseline_regs=base.registers,
                register_regs=reg.registers,
            )
        )
    return rows


def run_sensitive(
    n: int = 4,
    kernels: Optional[List[str]] = None,
    simulate: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> List[Fig9cRow]:
    """Figure 9c: Sensitive pass on/off (both with sharing enabled)."""
    rows: List[Fig9cRow] = []
    for kernel in polybench_kernels(n):
        if kernels is not None and kernel.name not in kernels:
            continue
        insensitive = evaluate_dahlia_kernel(
            kernel, pipeline="no-static", simulate=simulate, engine=engine
        )
        sensitive = evaluate_dahlia_kernel(
            kernel, pipeline="all", simulate=simulate, engine=engine
        )
        rows.append(
            Fig9cRow(
                name=kernel.name,
                insensitive_cycles=insensitive.cycles or 0,
                sensitive_cycles=sensitive.cycles or 0,
                insensitive_luts=insensitive.luts,
                sensitive_luts=sensitive.luts,
            )
        )
    return rows


def report_sharing(rows: List[Fig9aRow]) -> str:
    table = render_table(
        "Figure 9a/9b: sharing ablations (LUT ratios vs no sharing)",
        ["kernel", "res-share", "reg-share", "both", "reg cells saved"],
        [
            [
                r.name,
                r.resource_ratio,
                r.register_ratio,
                r.both_ratio,
                f"{100 * r.register_reduction:.0f}%",
            ]
            for r in rows
        ],
    )
    summary = (
        f"\nmean LUT change: resource sharing "
        f"{100 * (geomean([r.resource_ratio for r in rows]) - 1):+.0f}% (paper: +3%), "
        f"register sharing {100 * (geomean([r.register_ratio for r in rows]) - 1):+.0f}% "
        f"(paper: +11%)\n"
        f"mean register reduction: "
        f"{100 * (1 - geomean([1 - r.register_reduction for r in rows])):.0f}% "
        f"(paper: 12%); kernels with savings: "
        f"{sum(1 for r in rows if r.register_reduction > 0)}/{len(rows)} "
        f"(paper: all)"
    )
    return table + summary


def report_sensitive(rows: List[Fig9cRow]) -> str:
    table = render_table(
        "Figure 9c: latency-sensitive compilation (Sensitive pass)",
        ["kernel", "insens. cyc", "sens. cyc", "speedup", "LUT ratio"],
        [
            [r.name, r.insensitive_cycles, r.sensitive_cycles, r.speedup, r.lut_ratio]
            for r in rows
        ],
    )
    summary = (
        f"\ngeomean speedup: {geomean([r.speedup for r in rows]):.2f}x "
        f"(paper: 1.43x); geomean LUT ratio: "
        f"{geomean([r.lut_ratio for r in rows]):.2f}x (paper: ~1.0x)"
    )
    return table + summary


def main(engine: str = DEFAULT_ENGINE) -> str:
    text = (
        report_sharing(run_sharing())
        + "\n\n"
        + report_sensitive(run_sensitive(engine=engine))
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
