"""The contract between the two settle strategies of the simulator.

Every design the repo can produce — each ``examples/*.futil`` program and
each PolyBench kernel, compiled through every registered pipeline plus the
unlowered interpreter — must behave *bit-identically* under the reference
``sweep`` strategy and the ``levelized`` strategy: same final memories,
same cycle count, same done-net valuation. Any divergence here means the
levelized strategy's scheduling (levelization, dirty-set propagation, cycle
fallback) or guard compilation changed observable semantics, and it is the
levelized strategy that is wrong.

Problem sizes are kept small (``REPRO_EQUIV_N``, default 2) so the full
kernel-by-pipeline matrix stays affordable; the cross-check is about
engine agreement, not performance.
"""

import glob
import os

import pytest

from repro.frontends.dahlia import compile_dahlia
from repro.ir import parse_program
from repro.passes import PIPELINES, compile_program
from repro.errors import CalyxError
from repro.sim import Testbench, Watchdog, run_program
from repro.sim.model import _GuardCompiler
from repro.sim.fuzz import canonical_done_nets
from repro.workloads.polybench import ALL_KERNELS, get_kernel
from tests.conftest import SUM_LOOP

#: Every way this repo can lower a program before simulating it.
#: ``interpret`` is the unlowered control-executor path; ``validate``
#: does not produce a simulatable design.
SIM_PIPELINES = ["interpret"] + [p for p in sorted(PIPELINES) if p != "validate"]

EXAMPLES = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "..", "examples", "*.futil")
    )
)

EQUIV_N = int(os.environ.get("REPRO_EQUIV_N", "2"))


def run_both_engines(program, memories=None, max_cycles=500_000):
    """Run one program under both engines, asserting identical behavior."""
    observed = {}
    for engine in ("sweep", "levelized"):
        bench = Testbench(program, engine=engine)
        for path, vals in (memories or {}).items():
            bench.write_mem(path, vals)
        result = bench.run(max_cycles=max_cycles)
        observed[engine] = {
            "cycles": result.cycles,
            "memories": result.memories,
            "done_nets": canonical_done_nets(bench.instance),
        }
    sweep, levelized = observed["sweep"], observed["levelized"]
    assert levelized["cycles"] == sweep["cycles"], (
        f"cycle count diverged: sweep={sweep['cycles']} "
        f"levelized={levelized['cycles']}"
    )
    assert levelized["memories"] == sweep["memories"], (
        "final memories diverged between engines"
    )
    assert levelized["done_nets"] == sweep["done_nets"], (
        "final done-net valuation diverged between engines"
    )
    return sweep


def build_example(path, pipeline):
    with open(path) as handle:
        program = parse_program(handle.read())
    if pipeline != "interpret":
        compile_program(program, pipeline)
    return program


def build_kernel(kernel, pipeline):
    design = compile_dahlia(kernel.source)
    if pipeline != "interpret":
        compile_program(design.program, pipeline)
    memories = {}
    for name, values in kernel.memories_for(False).items():
        memories.update(design.split_memory(name, values))
    return design.program, memories


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES]
)
@pytest.mark.parametrize("pipeline", SIM_PIPELINES)
def test_examples_engine_equivalence(path, pipeline):
    program = build_example(path, pipeline)
    run_both_engines(program)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_polybench_engine_equivalence(name):
    kernel = get_kernel(name, n=EQUIV_N, unroll=2)
    for pipeline in SIM_PIPELINES:
        program, memories = build_kernel(kernel, pipeline)
        run_both_engines(program, memories)


def test_example_cycle_counts_are_nontrivial():
    """Guard against the vacuous pass: designs actually run for cycles."""
    program = build_example(EXAMPLES[0], "interpret")
    outcome = run_both_engines(program)
    assert outcome["cycles"] > 0


def test_reference_strategy_does_not_use_compiled_guards(monkeypatch):
    """The oracle must stay independent of guard compilation.

    With every compiled guard forced to "always true", the reference
    strategy — which interprets guards with ``eval_guard`` — still computes
    lowered SUM_LOOP exactly, while the levelized strategy, which runs the
    compiled closures, does not.
    """
    program = parse_program(SUM_LOOP)
    compile_program(program, "lower")
    memories = {"mem": [1, 2, 3, 4]}
    clean = run_program(program.copy(), memories=memories)
    assert clean.mem("mem")[0] == 10
    expected = (clean.cycles, clean.memories)
    monkeypatch.setattr(_GuardCompiler, "compile", lambda self, guard: None)

    def observe(engine):
        try:
            result = run_program(
                program.copy(),
                memories=memories,
                watchdog=Watchdog(max_cycles=2_000),
                engine=engine,
            )
        except CalyxError as err:  # e.g. two drivers now both active
            return type(err)
        return (result.cycles, result.memories)

    assert observe("sweep") == expected
    assert observe("levelized") != expected
