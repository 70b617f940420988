"""The benchmark's workloads: fixed designs, seeded input data.

Each workload is a list of :class:`Job`s. A job takes one design from its
source to a checked result through every layer a user's run crosses:
frontend, the pass pipeline, lint, engine build, the simulation loop and
the backends (resource estimate and Verilog). The designs are fixed, so
every seed does the same work; the seed draws the input memories, and the
expected outputs are computed at set-up from a reference that does not
use the compiler under test.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.backend import emit_verilog, estimate_resources
from repro.frontends.dahlia import compile_dahlia, interpret, parse, typecheck
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.lint import lint_program
from repro.passes import compile_program
from repro.robustness.difftest import default_memories, difftest_program
from repro.sim import Testbench
from repro.workloads.common import Lcg
from repro.workloads.matmul import matmul_reference
from repro.workloads.polybench import get_kernel

#: The engine the evaluation harness simulates with; ``difftest`` keeps
#: the oracle's own default, the reference engine, as its CLI does.
EVAL_ENGINE = "levelized"

#: Systolic array size: the largest whose job still repeats often enough
#: in one run for a steady median (an 8x8 compile alone takes seconds).
SYSTOLIC_N = 4

#: The fig8 fast subset, plain and unrolled, at PolyBench size 4.
POLYBENCH_KERNELS = ["atax", "gemm", "gesummv", "mvt", "trisolv"]
POLYBENCH_UNROLLED = ["atax", "gemm", "gesummv", "mvt"]
POLYBENCH_N = 4


@dataclass
class Outcome:
    ok: bool
    cycles: int


@dataclass
class Job:
    """One design; ``run(span)`` compiles, simulates and checks it."""

    name: str
    run: Callable[[Callable], Outcome]


def _seeded(seed: int, stream: str, count: int) -> List[int]:
    """Input words for one memory: values 1..15, as the fixed corpus uses."""
    key = sum(ord(c) * 131**i for i, c in enumerate(stream)) & 0xFFFFFFF
    return Lcg(seed * 0x9E3779B1 + key).ints(count)


def _backends(program) -> int:
    """The two backends a finished design goes through."""
    estimate_resources(program)
    return len(emit_verilog(program))


def _compile_lint_simulate(span, program, memories: Dict[str, List[int]]):
    """Shared tail of the generated-design jobs: passes through backends."""
    compile_program(program, "all")
    lint_ok = span("lint", lint_program, program).ok
    bench = Testbench(program, engine=EVAL_ENGINE)
    for path, values in memories.items():
        bench.write_mem(path, values)
    result = bench.run()
    span("backend", _backends, program)
    return lint_ok, result


def systolic_jobs(seed: int) -> List[Job]:
    n = SYSTOLIC_N
    a = [_seeded(seed, f"A{r}", n) for r in range(n)]
    b = [_seeded(seed, f"B{r}", n) for r in range(n)]
    memories = {f"l{r}": a[r] for r in range(n)}
    memories.update({f"t{c}": [b[k][c] for k in range(n)] for c in range(n)})
    memories["out"] = [0] * (n * n)
    expected = [v for row in matmul_reference(a, b) for v in row]

    def run(span) -> Outcome:
        program = span(
            "frontend", generate_systolic_array, SystolicConfig.square(n)
        )
        lint_ok, result = _compile_lint_simulate(span, program, memories)
        return Outcome(lint_ok and result.mem("out") == expected, result.cycles)

    return [Job(f"systolic-{n}x{n}", run)]


def _polybench_job(seed: int, name: str, unrolled: bool) -> Job:
    kernel = get_kernel(name, POLYBENCH_N)
    source = kernel.unrolled_source if unrolled else kernel.source
    # Memories the kernel starts zeroed (its outputs and scratch) stay zero.
    logical = {
        mem: _seeded(seed, f"{name}.{mem}", len(values)) if any(values) else values
        for mem, values in kernel.memories.items()
    }
    if unrolled:
        for dup, src in kernel.duplicated.items():
            logical[dup] = list(logical[src])
        logical.update({m: list(v) for m, v in kernel.unrolled_extra.items()})
    reference = interpret(typecheck(parse(source)), logical)
    outputs = kernel.outputs_for(unrolled)
    expected = {out: reference[out] for out in outputs}

    def run(span) -> Outcome:
        design = span("frontend", compile_dahlia, source)
        memories: Dict[str, List[int]] = {}
        for mem, values in logical.items():
            memories.update(design.split_memory(mem, values))
        lint_ok, result = _compile_lint_simulate(span, design.program, memories)
        got = {
            out: design.merge_memory(
                out,
                {p: result.mem(p) for p in design.layouts[out].physical_names()},
            )
            for out in outputs
        }
        return Outcome(lint_ok and got == expected, result.cycles)

    return Job(name + ("-u" if unrolled else ""), run)


def polybench_jobs(seed: int) -> List[Job]:
    return [_polybench_job(seed, k, False) for k in POLYBENCH_KERNELS] + [
        _polybench_job(seed, k, True) for k in POLYBENCH_UNROLLED
    ]


def _difftest_job(seed: int, path: str) -> Job:
    with open(path) as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    memories = {
        mem: _seeded(seed, f"{name}.{mem}", len(values))
        for mem, values in default_memories(parse_program(text)).items()
    }

    def run(span) -> Outcome:
        program = span("frontend", parse_program, text)
        report = difftest_program(program, memories=memories, name=name)
        # The oracle checks the program; the user then ships the fully
        # optimized build, linted, as Verilog.
        lowered = compile_program(program.copy(), "all")
        lint_ok = span("lint", lint_program, lowered).ok
        span("backend", _backends, lowered)
        cycles = report.reference.cycles or 0
        cycles += sum(o.cycles or 0 for o in report.outcomes)
        return Outcome(report.ok and lint_ok, cycles)

    return Job(name, run)


def difftest_jobs(seed: int) -> List[Job]:
    paths = sorted(glob.glob(os.path.join("examples", "*.futil")))
    if not paths:
        raise FileNotFoundError("no examples/*.futil designs to difftest")
    return [_difftest_job(seed, path) for path in paths]


WORKLOADS: Dict[str, Callable[[int], List[Job]]] = {
    "systolic": systolic_jobs,
    "polybench": polybench_jobs,
    "difftest": difftest_jobs,
}
