"""Differential oracle: interpret vs. compile-and-simulate, memory-by-memory.

The paper's correctness claim (Sections 4-5) is that lowering control to
structure preserves program semantics. This module tests that claim on
every run: the same program with the same input memories is executed

* **interpreted** — unlowered, through the control executor (the
  reference semantics of Section 3.4), and
* **compiled** — through each requested pass pipeline, simulated as pure
  structure.

Final memory contents must agree bit-for-bit; a mismatch is reported as a
:class:`Divergence` naming the pipeline, the first diverging memory, and
the first diverging word. Declared static latency (the ``"static"``
attribute inferred by Section 5.3) is also checked against observed
cycles for fully-static designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import CalyxError, DifftestError
from repro.ir.ast import Program
from repro.ir.attributes import STATIC
from repro.ir.validate import validate_program
from repro.passes import PIPELINES, compile_program
from repro.sim import (
    DEFAULT_MAX_CYCLES,
    ORACLE_ENGINE,
    Testbench,
    Watchdog,
    run_program,
)
from repro.workloads.common import Lcg

#: Pipelines the oracle exercises by default: every registered pipeline
#: that actually lowers the program (``validate`` does not simulate).
def default_pipelines() -> List[str]:
    return [name for name in sorted(PIPELINES) if name != "validate"]


@dataclass
class PipelineOutcome:
    """Result of one backend (the interpreter or one pipeline)."""

    pipeline: str
    cycles: Optional[int] = None
    memories: Dict[str, List[int]] = field(default_factory=dict)
    declared_latency: Optional[int] = None
    error: Optional[str] = None


@dataclass
class Divergence:
    """One observed disagreement between the reference and a pipeline."""

    pipeline: str
    kind: str  # "memory" | "latency" | "error"
    detail: str
    memory: Optional[str] = None
    index: Optional[int] = None

    def describe(self) -> str:
        return f"[{self.pipeline}] {self.kind}: {self.detail}"


@dataclass
class DifftestReport:
    """Everything the oracle observed for one program."""

    name: str
    reference: PipelineOutcome
    outcomes: List[PipelineOutcome] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        lines = [f"difftest {self.name}: " + ("PASS" if self.ok else "FAIL")]
        lines.append(
            f"  interpreted: {self.reference.cycles} cycles, "
            f"{len(self.reference.memories)} memories"
        )
        for outcome in self.outcomes:
            if outcome.error is not None:
                lines.append(f"  {outcome.pipeline}: ERROR ({outcome.error})")
                continue
            note = ""
            if outcome.declared_latency is not None:
                note = f", declared latency {outcome.declared_latency}"
            lines.append(f"  {outcome.pipeline}: {outcome.cycles} cycles{note}")
        for div in self.divergences:
            lines.append("  divergence " + div.describe())
        return "\n".join(lines)

    def raise_on_divergence(self) -> None:
        if not self.ok:
            raise DifftestError(self.describe())


def default_memories(program: Program) -> Dict[str, List[int]]:
    """Deterministic input data for every memory of the entrypoint.

    Each memory gets LCG data seeded by its name, so runs are reproducible
    and independent of memory enumeration order. Both executions receive
    identical copies, so even memories the design treats as outputs are
    safely pre-filled.
    """
    bench = Testbench(program, engine=ORACLE_ENGINE)
    memories: Dict[str, List[int]] = {}
    for path in bench.memory_paths():
        model = bench._memory(path)
        seed = sum(ord(c) * 31**i for i, c in enumerate(path)) or 1
        memories[path] = Lcg(seed).ints(len(model.data))
    return memories


def _first_divergence(
    pipeline: str,
    reference: Dict[str, List[int]],
    observed: Dict[str, List[int]],
) -> Optional[Divergence]:
    """The first memory/word where two final states disagree, if any."""
    for name in sorted(set(reference) | set(observed)):
        if name not in observed:
            return Divergence(
                pipeline,
                "memory",
                f"memory {name!r} missing from compiled design",
                memory=name,
            )
        if name not in reference:
            return Divergence(
                pipeline,
                "memory",
                f"memory {name!r} only exists in compiled design",
                memory=name,
            )
        ref_vals, obs_vals = reference[name], observed[name]
        if ref_vals == obs_vals:
            continue
        for i, (r, o) in enumerate(zip(ref_vals, obs_vals)):
            if r != o:
                return Divergence(
                    pipeline,
                    "memory",
                    f"memory {name!r} diverges first at index {i}: "
                    f"interpreted={r}, compiled={o}",
                    memory=name,
                    index=i,
                )
        return Divergence(
            pipeline,
            "memory",
            f"memory {name!r} length mismatch: "
            f"{len(ref_vals)} vs {len(obs_vals)}",
            memory=name,
        )
    return None


def difftest_program(
    program: Program,
    memories: Optional[Dict[str, Sequence[int]]] = None,
    pipelines: Optional[List[str]] = None,
    name: str = "<program>",
    max_cycles: int = DEFAULT_MAX_CYCLES,
    check_latency: bool = True,
    checked_passes: bool = False,
    compiled_transform: Optional[Callable[[Program], None]] = None,
    engine: str = ORACLE_ENGINE,
) -> DifftestReport:
    """Run the differential oracle over ``program``.

    The input program is never mutated: every execution works on a deep
    copy. With ``checked_passes`` each pipeline runs under the
    :class:`~repro.robustness.checked.CheckedPassManager`, so a pass-level
    failure is localized to its pass instead of surfacing as a divergence.

    ``compiled_transform`` mutates the copy handed to each pipeline (the
    reference stays pristine) — this is how the fault-injection harness
    models a miscompile the oracle must catch.

    ``engine`` selects the settle strategy for *both* executions, so the
    oracle (and the fault-injection self-test built on it) exercises the
    levelized strategy's error detection exactly as it does the sweep's.
    """
    validate_program(program)
    if memories is None:
        memories = default_memories(program)
    mems = {k: list(v) for k, v in memories.items()}
    watchdog = Watchdog(max_cycles=max_cycles)

    ref_result = run_program(
        program.copy(), memories=mems, watchdog=watchdog, engine=engine
    )
    reference = PipelineOutcome(
        "interpret", cycles=ref_result.cycles, memories=dict(ref_result.memories)
    )
    report = DifftestReport(name=name, reference=reference)

    for pipeline in pipelines if pipelines is not None else default_pipelines():
        compiled = program.copy()
        try:
            if compiled_transform is not None:
                compiled_transform(compiled)
            compile_program(compiled, pipeline, checked=checked_passes)
            declared = compiled.main.attributes.get(STATIC)
            result = run_program(
                compiled, memories=mems, watchdog=watchdog, engine=engine
            )
        except CalyxError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            report.outcomes.append(PipelineOutcome(pipeline, error=detail))
            report.divergences.append(Divergence(pipeline, "error", detail))
            continue
        outcome = PipelineOutcome(
            pipeline,
            cycles=result.cycles,
            memories=dict(result.memories),
            declared_latency=declared,
        )
        report.outcomes.append(outcome)
        divergence = _first_divergence(
            pipeline, reference.memories, outcome.memories
        )
        if divergence is not None:
            report.divergences.append(divergence)
        if (
            check_latency
            and declared is not None
            and result.cycles != declared
        ):
            report.divergences.append(
                Divergence(
                    pipeline,
                    "latency",
                    f"declared static latency {declared} but observed "
                    f"{result.cycles} cycles",
                )
            )
    return report


def difftest_source(
    source: str,
    name: str = "<source>",
    **kwargs,
) -> DifftestReport:
    """Parse Calyx surface syntax and run the oracle on it."""
    from repro.ir import parse_program

    return difftest_program(parse_program(source), name=name, **kwargs)


def difftest_kernel(
    kernel,
    pipelines: Optional[List[str]] = None,
    **kwargs,
) -> DifftestReport:
    """Run the oracle on a PolyBench :class:`~repro.workloads.polybench.Kernel`.

    The kernel's mini-Dahlia source is lowered to Calyx once; the oracle
    then compares interpreted vs. compiled executions of that program with
    the kernel's own (banked) input data.
    """
    from repro.frontends.dahlia import compile_dahlia

    design = compile_dahlia(kernel.source)
    mems: Dict[str, List[int]] = {}
    for mem_name, values in kernel.memories_for(False).items():
        mems.update(design.split_memory(mem_name, values))
    return difftest_program(
        design.program,
        memories=mems,
        pipelines=pipelines,
        name=kernel.name,
        **kwargs,
    )
