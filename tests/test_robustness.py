"""Tests for the robustness layer: checked passes, watchdog, oracle, faults.

The watchdog, error-detector, net-fault and selftest tests run under every
engine in ``ENGINES``: the levelized engine's scheduling and
dirty set are exactly the kind of change that could silently weaken a
detector — an oscillation that never re-enters the worklist is never
reported, and a net fault written to a slot nobody re-reads escapes.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import (
    CombinationalLoopError,
    CycleLimitError,
    DeadlockError,
    InvariantViolation,
    OscillationError,
    PassDiagnostic,
    WallClockTimeoutError,
)
from repro.ir import parse_program
from repro.passes import compile_program
from repro.passes.base import Pass, _REGISTRY, register_pass
from repro.robustness import (
    CheckedPassManager,
    NetFault,
    check_post_conditions,
    difftest_program,
    enumerate_ir_mutations,
    inject_ir_fault,
    run_selftest,
)
from repro.robustness.difftest import Observation, compare, difftest_kernel, observe
from repro.sim import ENGINES, Watchdog, run_program
from repro.workloads.polybench import get_kernel
from tests.conftest import SUM_LOOP

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
#: ``calyx-py difftest``'s printed report for each example.
DIFFTEST_GOLDENS = Path(__file__).resolve().parent / "goldens" / "difftest"

STRATEGIES = sorted(ENGINES)


class _DropReferencedGroup(Pass):
    """A deliberately broken pass: drops a group control still enables."""

    name = "test-drop-referenced-group"
    description = "miscompile on purpose (test only)"

    def run_component(self, program, comp) -> None:
        if "accum" in comp.groups:
            comp.remove_group("accum")


if _DropReferencedGroup.name not in _REGISTRY:
    register_pass(_DropReferencedGroup)


DEADLOCK = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(1); }
  wires {
    group stuck {
      r.in = 1'd1;
      stuck[done] = r.out ? 1'd1;
    }
  }
  control { stuck; }
}
"""

OSCILLATOR = """
component main(go: 1) -> (done: 1) {
  cells { n = std_not(1); r = std_reg(1); }
  wires {
    n.in = n.out;
    group g { r.in = n.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""

ADDER_FEEDBACK = """
component main(go: 1) -> (done: 1) {
  cells { a = std_add(8); b = std_add(8); r = std_reg(8); }
  wires {
    a.left = b.out;
    b.left = a.out;
    a.right = 8'd1;
    b.right = 8'd1;
    group g { r.in = a.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""

#: A wire that feeds back through two complementary guards: exactly one
#: driver is live in every state, so the loop is a limit cycle, never a
#: driver conflict.
GUARDED_WIRE_LOOP = """
component main(go: 1) -> (done: 1) {
  cells { w = std_wire(1); r = std_reg(1); }
  wires {
    w.in = !w.out ? 1'd1;
    w.in = w.out ? 1'd0;
    group g { r.in = w.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""

#: GUARDED_WIRE_LOOP read, outside the loop, by a second pair of
#: complementary drivers: the diagnosis probe sweeps their resolver too.
GUARDED_WIRE_LOOP_READER = GUARDED_WIRE_LOOP.replace(
    "r = std_reg(1); }", "r = std_reg(1); x = std_wire(1); }"
).replace(
    "    w.in = w.out ? 1'd0;\n",
    "    w.in = w.out ? 1'd0;\n    x.in = w.out ? 1'd0;\n    x.in = !w.out ? 1'd1;\n",
)

#: ADDER_FEEDBACK with ``b.left`` split over two complementary comparisons:
#: the counter wraps at 4, so the loop becomes a limit cycle.
GUARDED_ADDER_FEEDBACK = ADDER_FEEDBACK.replace(
    "b.left = a.out;",
    "b.left = a.out > 8'd3 ? 8'd0;\n    b.left = a.out <= 8'd3 ? a.out;",
)

INFINITE_LOOP = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(1); lt = std_lt(1); }
  wires {
    group cond { lt.left = 1'd0; lt.right = 1'd1; cond[done] = 1'd1; }
    group body { r.in = 1'd1; r.write_en = 1; body[done] = r.done; }
  }
  control { while lt.out with cond { body; } }
}
"""


class TestCheckedPassManager:
    def test_broken_pass_caught_immediately(self):
        """The diagnostic names the broken pass, not some later victim."""
        program = parse_program(SUM_LOOP)
        manager = CheckedPassManager(
            ["well-formed", "test-drop-referenced-group", "compile-repeat"]
        )
        with pytest.raises(PassDiagnostic) as exc_info:
            manager.run(program)
        diag = exc_info.value
        assert diag.pass_name == "test-drop-referenced-group"
        assert diag.index == 1
        # Snapshots: the dropped group is present before, absent after.
        assert "group accum" in diag.before_ir
        assert "group accum" not in diag.after_ir
        assert diag.cause is not None
        assert "accum" in diag.report()

    def test_unchecked_manager_misses_it_until_later(self):
        """Without checking, the same bug surfaces far from the culprit."""
        from repro.errors import CalyxError
        from repro.passes.base import PassManager

        program = parse_program(SUM_LOOP)
        manager = PassManager(
            ["well-formed", "test-drop-referenced-group", "compile-repeat"]
        )
        # The plain manager runs all three passes without complaint...
        manager.run(program)
        # ...and the wreckage only explodes downstream.
        with pytest.raises(CalyxError):
            compile_program(program, passes=["compile-control", "remove-groups"])
            run_program(program, memories={"mem": [1, 2, 3, 4]})

    def test_keep_going_rolls_back_and_records(self):
        program = parse_program(SUM_LOOP)
        manager = CheckedPassManager(
            ["well-formed", "test-drop-referenced-group", "compile-repeat"],
            keep_going=True,
        )
        manager.run(program)
        assert len(manager.degradations) == 1
        assert manager.degradations[0].pass_name == "test-drop-referenced-group"
        assert "accum" in program.main.groups  # rolled back
        assert "skipped" in manager.degradation_report()

    def test_keep_going_output_still_correct(self):
        """Skipping the broken pass yields a working compilation."""
        program = parse_program(SUM_LOOP)
        manager = CheckedPassManager(
            ["well-formed", "test-drop-referenced-group"]
            + ["compile-repeat", "collapse-control", "compile-invoke",
               "go-insertion", "compile-control", "remove-groups"],
            keep_going=True,
        )
        manager.run(program)
        result = run_program(program, memories={"mem": [1, 2, 3, 4]})
        assert result.mem("mem")[0] == 10

    def test_clean_pipeline_unchanged(self):
        """A checked run of a good pipeline matches the plain run."""
        checked = parse_program(SUM_LOOP)
        CheckedPassManager(list(compile_programs_for("lower"))).run(checked)
        plain = parse_program(SUM_LOOP)
        compile_program(plain, "lower")
        r1, r2 = (observe(p, {"mem": [1, 2, 3, 4]}) for p in (checked, plain))
        assert r1.error is None and compare(r1, r2) is None

    def test_post_condition_checker_direct(self):
        program = parse_program(SUM_LOOP)
        # Groups clearly remain: the remove-groups post-condition must fire.
        with pytest.raises(InvariantViolation):
            check_post_conditions("remove-groups", program)
        # And compile-control's: control is still a while/seq tree.
        with pytest.raises(InvariantViolation):
            check_post_conditions("compile-control", program)

    def test_compile_program_checked_flag(self):
        program = parse_program(SUM_LOOP)
        compile_program(program, "all", checked=True)
        result = run_program(program, memories={"mem": [1, 2, 3, 4]})
        assert result.mem("mem")[0] == 10


def compile_programs_for(pipeline: str):
    from repro.passes import resolve_pipeline

    return resolve_pipeline(pipeline)


@pytest.mark.parametrize("engine", STRATEGIES)
class TestWatchdog:
    def test_deadlock_detected_and_reported(self, engine):
        program = parse_program(DEADLOCK)
        with pytest.raises(DeadlockError) as exc_info:
            run_program(
                program,
                watchdog=Watchdog(max_cycles=1_000_000, deadlock_window=64),
                engine=engine,
            )
        err = exc_info.value
        assert err.stuck_groups == ["main.stuck"]
        # The report explains what the done condition is waiting on.
        assert "stuck" in str(err)
        assert "waiting on" in str(err)
        assert err.state_dump  # snapshot attached
        # Terminated within the window, nowhere near the cycle budget.
        assert err.cycles < 200

    def test_deadlock_detected_after_lowering(self, engine):
        program = parse_program(DEADLOCK)
        compile_program(program, "lower")
        with pytest.raises(DeadlockError):
            run_program(
                program,
                watchdog=Watchdog(max_cycles=1_000_000, deadlock_window=64),
                engine=engine,
            )

    def test_cycle_budget(self, engine):
        program = parse_program(INFINITE_LOOP)
        with pytest.raises(CycleLimitError) as exc_info:
            run_program(
                program,
                watchdog=Watchdog(max_cycles=500, deadlock_window=0),
                engine=engine,
            )
        assert exc_info.value.cycles == 500
        assert exc_info.value.state_dump

    def test_wall_clock_budget(self, engine):
        program = parse_program(INFINITE_LOOP)
        with pytest.raises(WallClockTimeoutError):
            run_program(
                program,
                watchdog=Watchdog(wall_clock_seconds=0.0, deadlock_window=0),
                engine=engine,
            )

    def test_healthy_long_loop_not_flagged(self, engine):
        """A slow-but-progressing design must not trip the deadlock check."""
        program = parse_program(SUM_LOOP)
        result = run_program(
            program,
            memories={"mem": [1, 2, 3, 4]},
            watchdog=Watchdog(deadlock_window=8),
            engine=engine,
        )
        assert result.mem("mem")[0] == 10

    def test_oscillation_distinguished(self, engine):
        """A not-gate loop is a provable limit cycle, not mere divergence.

        Under the levelized strategy the cyclic-SCC fixpoint must still run
        the fingerprint probe and report the same limit cycle.
        """
        with pytest.raises(OscillationError) as exc_info:
            run_program(parse_program(OSCILLATOR), engine=engine)
        err = exc_info.value
        assert err.period == 2
        assert any("n." in net for net in err.nets)
        assert err.state_dump

    def test_nonconvergence_still_reported(self, engine):
        """An adder feedback loop diverges (period >> probe): generic error."""
        with pytest.raises(CombinationalLoopError):
            run_program(parse_program(ADDER_FEEDBACK), engine=engine)

    @pytest.mark.parametrize(
        "source, period, nets",
        [
            (GUARDED_WIRE_LOOP, 2, ["r.in", "w.in", "w.out"]),
            (GUARDED_WIRE_LOOP_READER, 2, ["r.in", "w.in", "w.out", "x.in", "x.out"]),
            (
                GUARDED_ADDER_FEEDBACK,
                4,
                ["a.left", "a.out", "b.left", "b.out", "r.in"],
            ),
        ],
        ids=["wire", "wire-read-outside", "adder"],
    )
    def test_guarded_loop_keeps_its_diagnosis(self, engine, source, period, nets):
        """Guards inside a combinational cycle read its current values.

        Complementary guards never both hold, so no driver conflict is
        reported, and the period and toggling nets are those of the
        design's own nets: guard evaluation adds no delay to the loop.
        """
        with pytest.raises(OscillationError) as exc_info:
            run_program(parse_program(source), engine=engine)
        err = exc_info.value
        assert err.period == period
        assert err.nets == nets


class TestDifftest:
    def test_sum_loop_passes(self):
        report = difftest_program(
            parse_program(SUM_LOOP),
            pipelines=["lower", "lower-static", "all"],
            name="sum_loop",
        )
        assert report.ok, report.describe()
        assert report.reference.cycles is not None
        assert {o.pipeline for o in report.outcomes} == {
            "lower",
            "lower-static",
            "all",
        }

    @pytest.mark.parametrize(
        "example",
        sorted(p.name for p in EXAMPLES.glob("*.futil")),
    )
    def test_examples_pass_all_pipelines(self, example, capsys, monkeypatch):
        """``calyx-py difftest`` passes and prints its golden report."""
        monkeypatch.chdir(EXAMPLES.parent)
        assert cli_main(["difftest", f"examples/{example}"]) == 0
        expected = (DIFFTEST_GOLDENS / example).with_suffix(".txt").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("kernel_name", ["mvt", "trisolv", "atax"])
    def test_polybench_kernels(self, kernel_name):
        report = difftest_kernel(
            get_kernel(kernel_name), pipelines=["lower", "all"]
        )
        assert report.ok, report.describe()

    def test_seeded_mutation_fails_with_memory_report(self):
        """An injected miscompile produces a divergence naming the memory."""
        program = parse_program(SUM_LOOP)
        found = None
        for seed in range(30):
            report = difftest_program(
                program,
                pipelines=["lower"],
                check_latency=False,
                max_cycles=20_000,
                compiled_transform=lambda p, s=seed: inject_ir_fault(p, s),
            )
            if not report.ok and report.divergences[0].kind == "memory":
                found = report
                break
        assert found is not None, "no seed produced a memory divergence"
        div = found.divergences[0]
        assert div.memory == "mem"
        assert div.index is not None
        assert "diverges first at index" in div.detail

    def test_report_describe_mentions_outcomes(self):
        report = difftest_program(
            parse_program(SUM_LOOP), pipelines=["lower"], name="x"
        )
        text = report.describe()
        assert "PASS" in text and "interpreted" in text and "lower" in text


#: A full observation (cycles, memories, registers, done nets).
FULL = Observation(5, {"a": [1, 2, 3], "b": [4]}, {"r": 1}, {"main::done": 1})


class TestCompare:
    @pytest.mark.parametrize(
        "field, changed, kind",
        [
            ("cycles", 6, "cycles"),
            ("memories", {"a": [1, 2, 3], "b": [5]}, "memory"),
            ("registers", {"r": 2}, "registers"),
            ("done_nets", {"main::done": 0}, "done_nets"),
        ],
        ids=["cycles", "memories", "registers", "done_nets"],
    )
    def test_one_divergence_per_field(self, field, changed, kind):
        div = compare(FULL, replace(FULL, **{field: changed}), "lower")
        assert (div.pipeline, div.kind) == ("lower", kind)
        assert compare(FULL, replace(FULL), "lower") is None

    def test_memory_divergence_names_first_memory_and_index(self):
        div = compare(FULL, replace(FULL, memories={"a": [1, 7, 8], "b": [9]}))
        assert (div.memory, div.index) == ("a", 1)
        assert div.detail == "memory 'a' diverges first at index 1: 2 vs 7"

    def test_fields_are_checked_in_order(self):
        both = replace(FULL, cycles=9, memories={"a": [0, 0, 0], "b": [4]})
        assert compare(FULL, both).kind == "cycles"
        assert compare(FULL, both, fields=["memories"]).kind == "memory"

    def test_unseen_fields_are_skipped(self):
        """A Dahlia observation has memories only: it compares cleanly."""
        dahlia = Observation(memories=FULL.memories)
        assert compare(dahlia, FULL) is None
        assert compare(FULL, dahlia) is None
        changed = replace(FULL, memories={"a": [1, 2, 3], "b": [0]})
        assert compare(dahlia, changed).memory == "b"

    def test_error_against_ok(self):
        failed = Observation(error=DeadlockError("stuck"))
        div = compare(FULL, failed)
        assert (div.kind, div.detail) == ("error", "DeadlockError: stuck")
        assert compare(failed, FULL).kind == "error"

    def test_two_error_classes(self):
        deadlock = Observation(error=DeadlockError("one message"))
        assert compare(deadlock, Observation(error=DeadlockError("another"))) is None
        div = compare(deadlock, Observation(error=CycleLimitError("limit")))
        assert div.kind == "error"
        assert "DeadlockError vs CycleLimitError" in div.detail


class TestFaultInjection:
    def test_mutation_enumeration_deterministic(self):
        program = parse_program(SUM_LOOP)
        first = [m.description for m in enumerate_ir_mutations(program)]
        second = [m.description for m in enumerate_ir_mutations(program)]
        assert first == second
        assert len(first) > 20  # drop + flip per assignment, plus swaps

    def test_inject_is_seeded_and_in_place(self):
        base = parse_program(SUM_LOOP)
        m1 = inject_ir_fault(parse_program(SUM_LOOP), seed=3)
        m2 = inject_ir_fault(parse_program(SUM_LOOP), seed=3)
        assert m1.description == m2.description
        from repro.ir import print_program

        mutated = parse_program(SUM_LOOP)
        inject_ir_fault(mutated, seed=3)
        assert print_program(mutated) != print_program(base)

    @pytest.mark.parametrize("engine", STRATEGIES)
    def test_selftest_every_fault_caught(self, engine):
        """The point of the harness: no injected fault goes unnoticed, with
        the engine under test simulating both sides of the oracle."""
        program = parse_program(SUM_LOOP)
        records = run_selftest(
            program, seeds=range(10), max_cycles=20_000, engine=engine
        )
        assert len(records) == 10
        layers = {r.caught_by for r in records}
        assert "escaped" not in layers, [
            r.mutation for r in records if r.caught_by == "escaped"
        ]
        # Multiple independent layers contribute, proving each one works.
        assert len(layers) >= 2, layers

    @pytest.mark.parametrize("engine", STRATEGIES)
    def test_net_fault_corrupts_result(self, engine):
        """A stuck-at-1 on the accumulator input changes the sum: fault
        hooks write nets directly and the dirty set must notice."""
        clean = run_program(
            parse_program(SUM_LOOP), memories={"mem": [1, 2, 3, 4]}, engine=engine
        )
        fault = NetFault("acc.in", "stuck1", start=0, end=200, bit=5)
        from repro.errors import SimulationError

        try:
            faulty = run_program(
                parse_program(SUM_LOOP),
                memories={"mem": [1, 2, 3, 4]},
                watchdog=Watchdog(
                    max_cycles=20_000, fault_hook=fault.hook()
                ),
                engine=engine,
            )
            assert faulty.mem("mem") != clean.mem("mem")
        except SimulationError:
            pass  # the corruption may also hang the control loop: caught too

    @pytest.mark.parametrize("engine", STRATEGIES)
    def test_net_fault_window_respected(self, engine):
        """A fault entirely after completion changes nothing."""
        clean = run_program(
            parse_program(SUM_LOOP), memories={"mem": [1, 2, 3, 4]}, engine=engine
        )
        fault = NetFault("acc.in", "stuck1", start=10_000, end=10_001)
        faulty = run_program(
            parse_program(SUM_LOOP),
            memories={"mem": [1, 2, 3, 4]},
            watchdog=Watchdog(fault_hook=fault.hook()),
            engine=engine,
        )
        assert faulty.mem("mem") == clean.mem("mem")
