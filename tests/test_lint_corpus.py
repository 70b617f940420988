"""Corpus-wide lint gates.

Two acceptance criteria from the linter's introduction:

* every example and every PolyBench kernel lints with **zero errors** at
  the source level and after *each* pass of the ``all`` pipeline — the
  compiler must never manufacture ill-formed IL;
* the static combinational-cycle rule flags exactly the programs the
  simulation engines reject with ``CombinationalLoopError``, without
  running a simulator.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import CombinationalLoopError
from repro.frontends.dahlia import compile_dahlia
from repro.ir import parse_program
from repro.lint import lint_program
from repro.passes import make_pass_manager
from repro.passes.pipeline import resolve_pipeline
from repro.sim import run_program
from repro.workloads.polybench import ALL_KERNELS, get_kernel
from tests.test_robustness import ADDER_FEEDBACK, OSCILLATOR

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.futil"))


def assert_clean_at_every_stage(program, label):
    """Zero lint errors at the source and after each ``all`` pass."""
    failures = []
    report = lint_program(program)
    if report.errors:
        failures.append(f"source: {report.summary()}")
    for pass_name in resolve_pipeline("all"):
        make_pass_manager(passes=[pass_name]).run(program)
        report = lint_program(program)
        if report.errors:
            failures.append(f"after {pass_name}: {report.summary()}")
    assert not failures, f"{label} lints dirty:\n" + "\n".join(
        f"  {f}" for f in failures
    )


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_examples_lint_clean_at_every_stage(path):
    assert_clean_at_every_stage(parse_program(path.read_text()), path.name)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_polybench_lints_clean_at_every_stage(name):
    design = compile_dahlia(get_kernel(name, 4).source)
    assert_clean_at_every_stage(design.program, f"polybench {name}")


class TestCycleAgreementWithSimulators:
    """The static rule and the engines agree on combinational loops."""

    @pytest.mark.parametrize(
        "source", [OSCILLATOR, ADDER_FEEDBACK], ids=["oscillator", "adder"]
    )
    def test_rejected_programs_are_flagged(self, source):
        program = parse_program(source)
        report = lint_program(program)
        assert "comb-cycle" in {d.rule for d in report.errors}
        for engine in ("sweep", "levelized"):
            with pytest.raises(CombinationalLoopError):
                run_program(parse_program(source), engine=engine)

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_accepted_programs_are_not_flagged(self, path):
        report = lint_program(parse_program(path.read_text()))
        assert not {"comb-cycle"} & {d.rule for d in report.errors}
