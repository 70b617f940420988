"""The differential harness: one observation, one comparison.

The paper's correctness claim (Sections 3.4, 4-5) is that lowering
control to structure preserves program semantics. Every check of it
records each execution as one :class:`Observation` and compares two with
:func:`compare`; :data:`SEMANTICS` names the ways a design is executed.
:func:`difftest_program` is the oracle over one Calyx program: the
interpreted run against every pipeline's, memory by memory. Declared
static latency (the ``"static"`` attribute inferred by Section 5.3) is
also checked against observed cycles for fully-static designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import CalyxError
from repro.frontends.dahlia import (
    CompiledDesign, compile_dahlia, interpret, parse, typecheck
)
from repro.ir.ast import CellPort, HolePort, Program, ThisPort
from repro.ir.attributes import STATIC
from repro.ir.ports import DONE
from repro.ir.validate import validate_program
from repro.ir.printer import print_program
from repro.passes import PIPELINES, compile_pipelines, compile_program
from repro.sim import (
    DEFAULT_ENGINE, DEFAULT_MAX_CYCLES, ORACLE_ENGINE, Testbench, Watchdog
)
from repro.stdlib.behaviors import MemModel, RegModel
from repro.stdlib.primitives import make_model
from repro.workloads.common import Lcg


#: Pipelines the oracle exercises by default: every registered pipeline
#: that actually lowers the program (``validate`` does not simulate).
def default_pipelines() -> List[str]:
    return [name for name in sorted(PIPELINES) if name != "validate"]


@dataclass
class Observation:
    """What one execution showed; ``None`` where its semantics is blind."""

    cycles: Optional[int] = None
    #: final contents of every memory, in logical (un-banked) form
    memories: Optional[Dict[str, List[int]]] = None
    #: final value of every ``std_reg`` directly inside ``main``
    registers: Optional[Dict[str, int]] = None
    #: see :func:`canonical_done_nets`
    done_nets: Optional[Dict[str, int]] = None
    #: a failed execution observes only the error it raised
    error: Optional[CalyxError] = None


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
    kind: str  # "error", "cycles", "memory", "registers", "done_nets", "latency"
    detail: str
    memory: Optional[str] = None
    index: Optional[int] = None

    def describe(self) -> str:
        return f"[{self.pipeline}] {self.kind}: {self.detail}"


def _error_detail(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


def compare(
    reference: Observation,
    observed: Observation,
    pipeline: str = "observed",
    fields: Sequence[str] = ("cycles", "memories", "registers", "done_nets"),
) -> Optional[Divergence]:
    """The first way ``observed`` differs from ``reference``, if any.

    The error class is checked first: two executions that fail with the
    same class agree. Then each of ``fields`` in order, skipping a field
    either side could not see; memories name the first memory and index.
    """
    expected, got = reference.error, observed.error
    if type(expected) is not type(got):
        if expected is None:
            detail = _error_detail(got)
        elif got is None:
            detail = f"reference failed with {_error_detail(expected)}"
        else:
            names = f"{type(expected).__name__} vs {type(got).__name__}"
            detail = f"different errors: {names}"
        return Divergence(pipeline, "error", detail)
    if expected is not None:
        return None  # both failed, with the same class
    for kind in fields:
        ref, obs = getattr(reference, kind), getattr(observed, kind)
        if ref is None or obs is None or ref == obs:
            continue
        if kind == "cycles":
            return Divergence(pipeline, kind, f"{ref} vs {obs}")
        keys = sorted(ref.keys() | obs.keys())
        name = next(k for k in keys if ref.get(k) != obs.get(k))
        if kind != "memories":
            detail = f"{name}: {ref.get(name)} vs {obs.get(name)}"
            return Divergence(pipeline, kind, detail)
        ref, obs, index = ref.get(name), obs.get(name), None
        if ref is None or obs is None:
            side = "reference" if obs is None else "observed execution"
            detail = f"memory {name!r} only exists in the {side}"
        else:
            index = next((i for i, (r, o) in enumerate(zip(ref, obs)) if r != o), None)
            detail = (
                f"memory {name!r} length mismatch: {len(ref)} vs {len(obs)}"
                if index is None
                else f"memory {name!r} diverges first at index {index}: "
                f"{ref[index]} vs {obs[index]}"
            )
        return Divergence(pipeline, "memory", detail, memory=name, index=index)
    return None


def canonical_done_nets(inst) -> Dict[str, int]:
    """Done-net valuation derived from program structure, recursively.

    Reads the same structural set under either engine — every group's
    done hole, every cell's done port, and the component's own done — so
    the engines' differing internal net enumerations cannot leak into the
    comparison.
    """
    values: Dict[str, int] = {}
    for name in inst.comp.groups:
        values[f"{inst.path}::{name}[done]"] = inst.read(HolePort(name, DONE))
    for cell_name in inst.comp.cells:
        values[f"{inst.path}::{cell_name}.done"] = inst.read(
            CellPort(cell_name, DONE)
        )
    values[f"{inst.path}::done"] = inst.read(ThisPort(DONE))
    for child in inst.children.values():
        if hasattr(child, "comp"):
            values.update(canonical_done_nets(child))
    return values


def observe(
    program: Program,
    memories: Optional[Dict[str, Sequence[int]]] = None,
    engine: str = DEFAULT_ENGINE,
    watchdog: Optional[Watchdog] = None,
    design: Optional[CompiledDesign] = None,
) -> Observation:
    """Simulate ``program`` as it stands; a toolchain error is observed.

    ``memories`` are in logical form when ``design`` gives their banking,
    and physical otherwise. Registers and done nets are read once, after
    the run ends.
    """
    memories = memories or {}
    if design is not None:
        memories = design.split_memories(memories)
    try:
        bench = Testbench(program, engine=engine)
        for path, values in memories.items():
            bench.write_mem(path, values)
        result = bench.run(watchdog=watchdog)
    except CalyxError as exc:
        return Observation(error=exc)
    final = result.memories
    children = bench.instance.children.items()
    return Observation(
        cycles=result.cycles,
        memories=design.merge_memories(final) if design is not None else final,
        registers={n: c.value for n, c in children if isinstance(c, RegModel)},
        done_nets=canonical_done_nets(bench.instance),
    )


def _dahlia(design, memories, engine=DEFAULT_ENGINE, watchdog=None) -> Observation:
    """The Dahlia reference interpreter: it sees final memories only."""
    try:
        final = interpret(typecheck(parse(design.source)), memories)
    except CalyxError as exc:
        return Observation(error=exc)
    return Observation(memories=final)


def _calyx(pipeline: str) -> Callable[..., Observation]:
    """The design lowered by ``pipeline`` (``interpret``: not lowered)."""

    def run(design, memories, engine=DEFAULT_ENGINE, watchdog=None) -> Observation:
        program = design.program.copy()
        try:
            if pipeline != "interpret":
                compile_program(program, pipeline)
        except CalyxError as exc:
            return Observation(error=exc)
        return observe(program, memories, engine, watchdog, design)

    return run


#: Every semantics of a :class:`CompiledDesign`, by name:
#: ``semantics(design, logical_memories, engine, watchdog)``.
SEMANTICS: Dict[str, Callable[..., Observation]] = {
    "dahlia": _dahlia,
    **{name: _calyx(name) for name in ["interpret"] + default_pipelines()},
}


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


def default_memories(program: Program) -> Dict[str, List[int]]:
    """Deterministic input data for every memory of the entrypoint.

    Each memory gets LCG data seeded by its name, so runs are reproducible
    and independent of memory enumeration order. Both executions receive
    identical copies, so even memories the design treats as outputs are
    safely pre-filled. Sizes come from each cell's simulation model, in
    cell order, so no engine is built.
    """
    memories: Dict[str, List[int]] = {}
    for cell in program.main.cells.values():
        name = cell.comp_name
        if program.has_component(name) and not program.is_extern(name):
            continue  # an instance of a user component
        model = make_model(name, cell.args)
        if isinstance(model, MemModel):
            seed = sum(ord(c) * 31**i for i, c in enumerate(cell.name)) or 1
            memories[cell.name] = Lcg(seed).ints(len(model.data))
    return memories


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

    The input program is never mutated: the executions work on deep
    copies. With ``checked_passes`` each pipeline runs under the
    :class:`~repro.robustness.checked.CheckedPassManager`, so a pass-level
    failure is localized to its pass instead of surfacing as a divergence.

    Each distinct piece of work is done once. The pipelines compile as a
    trie over their pass lists (:func:`~repro.passes.compile_pipelines`),
    so a prefix they share runs once. Pipelines whose results print
    identically share one simulation: the oracle's watchdog has no fault
    hook and no wall-clock budget, so a run depends only on the design,
    the memories and the engine. Every pipeline still gets its own
    outcome, latency check and comparison.

    ``compiled_transform`` mutates the one copy every pipeline compiles
    from (the reference stays pristine) — this is how the fault-injection
    harness models a miscompile the oracle must catch. It runs once, so it
    must be a deterministic function of the program, as
    :func:`~repro.robustness.faultinject.inject_ir_fault` with a fixed seed
    is; a :class:`CalyxError` it raises is every pipeline's outcome.

    ``engine`` selects the simulation engine for *both* executions, so the
    oracle (and the fault-injection self-test built on it) exercises the
    levelized engine's error detection exactly as it does the sweep's.
    """
    validate_program(program)
    if memories is None:
        memories = default_memories(program)
    watchdog = Watchdog(max_cycles=max_cycles)
    reference = observe(program.copy(), memories, engine, watchdog)
    if reference.error is not None:
        raise reference.error
    report = DifftestReport(
        name, PipelineOutcome("interpret", reference.cycles, reference.memories)
    )
    names = pipelines if pipelines is not None else default_pipelines()
    root = program.copy()
    try:
        if compiled_transform is not None:
            compiled_transform(root)
        results = compile_pipelines(root, names, checked=checked_passes)
    except CalyxError as exc:  # raised by the transform
        results = dict.fromkeys(names, exc)
    observations: Dict[str, Observation] = {}  # by printed design
    for pipeline in names:
        compiled = results[pipeline]
        if isinstance(compiled, CalyxError):
            observed = Observation(error=compiled)
        else:
            design = print_program(compiled)
            observed = observations.get(design)
            if observed is None:
                observed = observe(compiled, memories, engine, watchdog)
                observations[design] = observed
        error = observed.error and _error_detail(observed.error)
        declared = None if error else compiled.main.attributes.get(STATIC)
        report.outcomes.append(
            PipelineOutcome(
                pipeline, observed.cycles, observed.memories or {}, declared, error
            )
        )
        divergence = compare(reference, observed, pipeline, fields=["memories"])
        if divergence is not None:
            report.divergences.append(divergence)
        if check_latency and declared is not None and observed.cycles != declared:
            detail = f"declared static latency {declared} but observed"
            detail += f" {observed.cycles} cycles"
            report.divergences.append(Divergence(pipeline, "latency", detail))
    return report


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
    design = compile_dahlia(kernel.source)
    return difftest_program(
        design.program,
        memories=design.split_memories(kernel.memories_for(False)),
        pipelines=pipelines,
        name=kernel.name,
        **kwargs,
    )
