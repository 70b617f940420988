"""Shared measurement plumbing for the evaluation harness.

``evaluate_*`` functions compile a design with a chosen pipeline, simulate
it for a cycle count (the Verilator substitute), and estimate resources
(the Vivado substitute), returning a :class:`DesignMetrics`. Every figure
measures its designs through :func:`_measure`, and simulation throughput
is recorded in one JSON shape by :func:`write_throughput_json`.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.backend.resources import estimate_resources
from repro.frontends.dahlia import compile_dahlia, CompiledDesign
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir.ast import Program
from repro.passes import make_pass_manager
from repro.sim import DEFAULT_ENGINE, Testbench
from repro.stdlib.costs import Resources
from repro.workloads.matmul import systolic_inputs
from repro.workloads.polybench import Kernel


@dataclass
class DesignMetrics:
    """What the paper measures for one design point."""

    name: str
    cycles: Optional[int]
    resources: Resources
    compile_seconds: float
    #: The engine that produced ``cycles`` (see ``repro.sim.ENGINES``).
    engine: str
    #: Wall-clock time of the run alone, engine build excluded (0.0 if not run).
    sim_seconds: float = 0.0
    #: Wall-clock time of the engine build and memory loading.
    build_seconds: float = 0.0

    @property
    def luts(self) -> float:
        return self.resources.luts

    @property
    def registers(self) -> int:
        return self.resources.registers

    @property
    def cycles_per_second(self) -> float:
        """Simulation throughput — the benchmark JSONs record this."""
        if not self.cycles or self.sim_seconds <= 0:
            return 0.0
        return self.cycles / self.sim_seconds


def geomean(values: List[float]) -> float:
    """Geometric mean (the paper's summary statistic)."""
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _measure(
    name: str,
    program: Program,
    pipeline: str,
    memories: Dict[str, List[int]],
    simulate: bool,
    engine: str,
) -> DesignMetrics:
    """Compile ``program`` in place, optionally simulate it, and measure it.

    The engine build is timed apart from the run, which alone is throughput's base.
    """
    manager = make_pass_manager(pipeline)
    manager.run(program)
    cycles = None
    sim_seconds = build_seconds = 0.0
    if simulate:
        start = time.perf_counter()
        bench = Testbench(program, engine=engine)
        for path, values in memories.items():
            bench.write_mem(path, values)
        built = time.perf_counter()
        cycles = bench.run().cycles
        sim_seconds = time.perf_counter() - built
        build_seconds = built - start
    return DesignMetrics(
        name=f"{name}[{pipeline}]",
        cycles=cycles,
        resources=estimate_resources(program),
        compile_seconds=manager.total_seconds(),
        sim_seconds=sim_seconds,
        build_seconds=build_seconds,
        engine=engine,
    )


def evaluate_systolic(
    n: int,
    pipeline: str = "all",
    simulate: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> DesignMetrics:
    """Generate, compile, and measure one n-by-n systolic array."""
    program = generate_systolic_array(SystolicConfig.square(n))
    return _measure(
        f"systolic-{n}x{n}", program, pipeline, systolic_inputs(n), simulate, engine
    )


def evaluate_dahlia_kernel(
    kernel: Kernel,
    unrolled: bool = False,
    pipeline: str = "all",
    simulate: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> DesignMetrics:
    """Compile a PolyBench kernel through Dahlia->Calyx and measure it."""
    source = kernel.unrolled_source if unrolled else kernel.source
    if source is None:
        raise ValueError(f"kernel {kernel.name!r} has no unrolled variant")
    design: CompiledDesign = compile_dahlia(source)
    mems = design.split_memories(kernel.memories_for(unrolled))
    suffix = "-unrolled" if unrolled else ""
    return _measure(
        f"{kernel.name}{suffix}", design.program, pipeline, mems, simulate, engine
    )


def throughput_json(designs: Dict[str, DesignMetrics]) -> dict:
    """Simulation throughput per design, keyed as the caller names them."""
    return {
        key: {
            "cycles": metrics.cycles,
            "build_seconds": round(metrics.build_seconds, 6),
            "sim_seconds": round(metrics.sim_seconds, 6),
            "cycles_per_second": round(metrics.cycles_per_second, 1),
            "engine": metrics.engine,
        }
        for key, metrics in designs.items()
    }


def write_throughput_json(
    path: str, figure: str, engine: str, designs: Dict[str, DesignMetrics]
) -> None:
    """Merge one figure's throughput into ``path``.

    The file maps figure -> engine -> design (the committed
    ``BENCH_sim.json`` shape), so fig7 and fig8 runs share one file and a
    sweep run next to a levelized run exposes the speedup directly.
    Sections for other figures and engines are kept.
    """
    merged = {}
    if os.path.exists(path):
        with open(path) as handle:
            merged = json.load(handle)
    merged.setdefault(figure, {})[engine] = throughput_json(designs)
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
