"""Shared measurement plumbing for the evaluation harness.

``evaluate_*`` functions compile a design with a chosen pipeline, simulate
it for a cycle count (the Verilator substitute), and estimate resources
(the Vivado substitute), returning a :class:`DesignMetrics`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.backend.resources import count_register_cells, estimate_resources
from repro.frontends.dahlia import compile_dahlia, CompiledDesign
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir.ast import Program
from repro.passes import compile_program
from repro.sim import DEFAULT_ENGINE, run_program
from repro.stdlib.costs import Resources
from repro.workloads.matmul import systolic_inputs
from repro.workloads.polybench import Kernel


@dataclass
class DesignMetrics:
    """What the paper measures for one design point."""

    name: str
    cycles: Optional[int]
    resources: Resources
    register_cells: int
    compile_seconds: float
    #: The engine that produced ``cycles`` (see ``repro.sim.ENGINES``).
    engine: str
    #: Wall-clock time of the simulation itself (0.0 when not simulated).
    sim_seconds: float = 0.0

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


def compile_with(program: Program, pipeline: str) -> tuple:
    """Compile in place, returning (program, seconds)."""
    start = time.perf_counter()
    compile_program(program, pipeline)
    return program, time.perf_counter() - start


def evaluate_systolic(
    n: int,
    pipeline: str = "all",
    simulate: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> DesignMetrics:
    """Generate, compile, and measure one n-by-n systolic array."""
    program = generate_systolic_array(SystolicConfig.square(n))
    program, seconds = compile_with(program, pipeline)
    cycles = None
    sim_seconds = 0.0
    if simulate:
        start = time.perf_counter()
        result = run_program(program, memories=systolic_inputs(n), engine=engine)
        sim_seconds = time.perf_counter() - start
        cycles = result.cycles
    return DesignMetrics(
        name=f"systolic-{n}x{n}[{pipeline}]",
        cycles=cycles,
        resources=estimate_resources(program),
        register_cells=count_register_cells(program),
        compile_seconds=seconds,
        sim_seconds=sim_seconds,
        engine=engine,
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
    program, seconds = compile_with(design.program, pipeline)
    cycles = None
    sim_seconds = 0.0
    if simulate:
        mems: Dict[str, List[int]] = {}
        for name, values in kernel.memories_for(unrolled).items():
            mems.update(design.split_memory(name, values))
        start = time.perf_counter()
        result = run_program(program, memories=mems, engine=engine)
        sim_seconds = time.perf_counter() - start
        cycles = result.cycles
    suffix = "-unrolled" if unrolled else ""
    return DesignMetrics(
        name=f"{kernel.name}{suffix}[{pipeline}]",
        cycles=cycles,
        resources=estimate_resources(program),
        register_cells=count_register_cells(program),
        compile_seconds=seconds,
        sim_seconds=sim_seconds,
        engine=engine,
    )
