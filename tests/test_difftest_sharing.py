"""The oracle's shared work: one compile per pass prefix, one run per design.

:func:`difftest_program` compiles its pipelines as a trie over their pass
lists and simulates each distinct lowered design once. These tests hold it
equal to the naive oracle: every pipeline compiled independently from its
own copy (:func:`compile_program`) and simulated on its own. They also pin
how much work one call does, so a return to per-pipeline work fails as a
count.

The corpus is every example, some PolyBench kernels at n=2 and a batch of
engine-fuzz programs. ``REPRO_DIFFTEST_KERNELS`` (comma-separated names, or
``all``) and ``REPRO_DIFFTEST_FUZZ_SEED``/``REPRO_DIFFTEST_FUZZ_COUNT``
widen it.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.errors import CalyxError, PassDiagnostic, PassError
from repro.frontends.dahlia import compile_dahlia
from repro.ir import parse_program
from repro.ir.attributes import STATIC
from repro.ir.printer import print_program
from repro.passes import PIPELINES, PassManager, compile_pipelines, compile_program
from repro.passes.base import Pass, _REGISTRY, register_pass
from repro.robustness import inject_ir_fault
from repro.robustness.difftest import (
    DifftestReport,
    Divergence,
    Observation,
    PipelineOutcome,
    _error_detail,
    compare,
    default_memories,
    default_pipelines,
    difftest_program,
    observe,
)
from repro.sim import ENGINES, Testbench, Watchdog
from repro.sim.fuzz import generate_spec
from repro.workloads.polybench import ALL_KERNELS, get_kernel
from tests.test_repeat import COUNTER

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

KERNELS = os.environ.get("REPRO_DIFFTEST_KERNELS", "gesummv,mvt,trisolv")
FUZZ_SEED = int(os.environ.get("REPRO_DIFFTEST_FUZZ_SEED", "0"))
FUZZ_COUNT = int(os.environ.get("REPRO_DIFFTEST_FUZZ_COUNT", "20"))


def _example(name):
    program = parse_program((EXAMPLES / name).read_text())
    return program, default_memories(program)


def _kernel(name):
    kernel = get_kernel(name, 2)
    design = compile_dahlia(kernel.source)
    return design.program, design.split_memories(kernel.memories_for(False))


def _fuzz(seed):
    return _source(generate_spec(seed).render())


def _source(text):
    program = parse_program(text)
    return program, default_memories(program)


CORPUS = (
    [(name, _example, name) for name in sorted(p.name for p in EXAMPLES.glob("*.futil"))]
    + [
        (f"polybench-{name}", _kernel, name)
        for name in (ALL_KERNELS if KERNELS == "all" else KERNELS.split(","))
    ]
    + [(f"fuzz-{s}", _fuzz, s) for s in range(FUZZ_SEED, FUZZ_SEED + FUZZ_COUNT)]
    # Too long to unroll: ``compile-repeat``, in the shared prefix, names
    # new cells, so the pipelines part with a used name counter.
    + [("repeat-20", _source, COUNTER.format(times=20))]
)
CORPUS_IDS = [case[0] for case in CORPUS]


def independent_report(
    program, memories, pipelines, engine="sweep", max_cycles=None,
    check_latency=True, checked=False, transform=None,
):
    """The oracle without sharing: each pipeline compiled and run alone."""
    watchdog = Watchdog() if max_cycles is None else Watchdog(max_cycles=max_cycles)
    reference = observe(program.copy(), memories, engine, watchdog)
    report = DifftestReport(
        "<program>", PipelineOutcome("interpret", reference.cycles, reference.memories)
    )
    for pipeline in pipelines:
        compiled = program.copy()
        try:
            if transform is not None:
                transform(compiled)
            compile_program(compiled, pipeline, checked=checked)
        except CalyxError as exc:
            observed = Observation(error=exc)
        else:
            observed = observe(compiled, memories, engine, watchdog)
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


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
def test_report_equals_independent_pipelines(case, engine):
    _, load, key = case
    program, memories = load(key)
    shared = difftest_program(program, memories=memories, engine=engine)
    naive = independent_report(program, memories, default_pipelines(), engine)
    # Dataclass equality: every outcome field and every divergence, in order.
    assert shared.reference == naive.reference
    assert shared.outcomes == naive.outcomes
    assert shared.divergences == naive.divergences


@pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
def test_compile_pipelines_prints_as_compile_program(case):
    _, load, key = case
    program, _ = load(key)
    names = sorted(PIPELINES)  # ``validate`` ends where the others go on
    results = compile_pipelines(program.copy(), names)
    assert list(results) == names
    assert len({id(result) for result in results.values()}) == len(names)
    for name in names:
        expected = print_program(compile_program(program.copy(), name))
        assert print_program(results[name]) == expected, name


def test_compile_pipelines_maps_an_unknown_name_to_its_error():
    program, _ = _example("sum_loop.futil")
    results = compile_pipelines(program, ["lower", "no-such-pipeline", "lower"])
    assert list(results) == ["lower", "no-such-pipeline"]
    assert isinstance(results["no-such-pipeline"], PassError)
    assert print_program(results["lower"]) == print_program(
        compile_program(_example("sum_loop.futil")[0], "lower")
    )


class _DropEnabledGroup(Pass):
    """A deliberately broken pass: drops a group the control enables."""

    name = "test-drop-enabled-group"
    description = "miscompile on purpose (test only)"

    def run_component(self, program, comp) -> None:
        for node in comp.control.walk():
            if getattr(node, "group", None) in comp.groups:
                comp.remove_group(node.group)
                return


if _DropEnabledGroup.name not in _REGISTRY:
    register_pass(_DropEnabledGroup)

_FRONT = PIPELINES["lower"][:3]
#: Pipelines that share a prefix and break at different depths past it.
BROKEN_PIPELINES = {
    "test-break-early": _FRONT + [_DropEnabledGroup.name],
    "test-break-late": _FRONT
    + ["resource-sharing", "register-sharing", _DropEnabledGroup.name],
    "test-unbroken": _FRONT + ["resource-sharing", "infer-latency"],
}


#: Seeded IR faults that break a pass (``well-formed``) on an example.
BREAKING_FAULTS = [
    ("branch_max.futil", 3),
    ("dot_product.futil", 10),
    ("par_reduce.futil", 0),
    ("sum_loop.futil", 6),
]


def _diagnostic_fields(error):
    return (type(error), str(error), error.pass_name, error.index,
            error.before_ir, error.after_ir)


class TestCheckedFailures:
    def test_late_failure_keeps_its_index(self, monkeypatch):
        """A pass past a shared prefix fails at its index in its own pipeline."""
        for name, passes in BROKEN_PIPELINES.items():
            monkeypatch.setitem(PIPELINES, name, passes)
        program, _ = _example("sum_loop.futil")
        results = compile_pipelines(program.copy(), list(BROKEN_PIPELINES), checked=True)
        for name, passes in BROKEN_PIPELINES.items():
            try:
                expected = compile_program(program.copy(), name, checked=True)
            except PassDiagnostic as exc:
                assert isinstance(results[name], PassDiagnostic), name
                assert _diagnostic_fields(results[name]) == _diagnostic_fields(exc)
                assert results[name].index == len(passes) - 1
            else:
                assert print_program(results[name]) == print_program(expected)
        assert results["test-break-late"].index == 5

    def test_broken_pipelines_report_as_independent(self, monkeypatch):
        for name, passes in BROKEN_PIPELINES.items():
            monkeypatch.setitem(PIPELINES, name, passes)
        program, memories = _example("sum_loop.futil")
        names = list(BROKEN_PIPELINES)
        shared = difftest_program(program, memories, names, checked_passes=True)
        naive = independent_report(program, memories, names, checked=True)
        assert shared.outcomes == naive.outcomes
        assert shared.divergences == naive.divergences
        assert not shared.ok

    @pytest.mark.parametrize("example, seed", BREAKING_FAULTS)
    def test_injected_fault_raises_as_independent(self, example, seed):
        """A seeded IR fault that breaks a pass: the same diagnostic."""
        program, _ = _example(example)
        root = program.copy()
        inject_ir_fault(root, seed)
        results = compile_pipelines(root, default_pipelines(), checked=True)
        for name in default_pipelines():
            alone = program.copy()
            inject_ir_fault(alone, seed)
            with pytest.raises(PassDiagnostic) as raised:
                compile_program(alone, name, checked=True)
            expected = _diagnostic_fields(raised.value)
            assert _diagnostic_fields(results[name]) == expected, name

    @pytest.mark.parametrize("seed", [0, 1, 2, 6])
    def test_injected_faults_report_as_independent(self, seed):
        program, memories = _example("sum_loop.futil")

        def transform(target):
            inject_ir_fault(target, seed)

        shared = difftest_program(
            program, memories, max_cycles=2_000, check_latency=False,
            checked_passes=True, compiled_transform=transform, engine="levelized",
        )
        naive = independent_report(
            program, memories, default_pipelines(), "levelized", 2_000,
            check_latency=False, checked=True, transform=transform,
        )
        assert shared.outcomes == naive.outcomes
        assert shared.divergences == naive.divergences


#: Engine builds and pass runs of one ``difftest_program`` call with
#: default memories: the reference plus one build per distinct lowered
#: design, and one run per node of the pipelines' pass trie (67 of the 88
#: passes the seven pipelines list).
WORK = {
    "branch_max.futil": (2, 67),
    "dot_product.futil": (5, 67),
    "par_reduce.futil": (5, 67),
    "sum_loop.futil": (5, 67),
}


@pytest.mark.parametrize("example", sorted(WORK))
def test_work_counters(example, monkeypatch):
    counts = {"builds": 0, "passes": 0}

    def counted(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(Testbench, "__init__", "builds")
    counted(PassManager, "_run_one", "passes")
    program = parse_program((EXAMPLES / example).read_text())
    assert difftest_program(program).ok
    assert (counts["builds"], counts["passes"]) == WORK[example]


def _cyclic_garbage(run):
    """The kinds of object ``run()`` leaves for the cyclic collector."""
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage[kept:]})
    finally:
        del gc.garbage[kept:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def test_an_oracle_run_is_freed_by_refcount():
    """No program of the pass trie, nor anything else of one oracle call,
    waits for the cyclic collector."""
    program, memories = _example("dot_product.futil")
    assert _cyclic_garbage(lambda: difftest_program(program, memories)) == []


def test_a_failing_pipeline_is_freed_by_refcount(monkeypatch):
    """A failing pass's error is kept without the frames that raised it."""
    for name, passes in BROKEN_PIPELINES.items():
        monkeypatch.setitem(PIPELINES, name, passes)
    program, _ = _example("sum_loop.futil")
    names = list(BROKEN_PIPELINES)
    results = {}
    run = lambda: results.update(compile_pipelines(program, names, checked=True))  # noqa: E731
    assert _cyclic_garbage(run) == []
    assert isinstance(results["test-break-late"], PassDiagnostic)
