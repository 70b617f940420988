"""Pinned lint and validation output over a fixed corpus.

``tests/goldens/lint_diagnostics.json`` holds, per program, the full lint
report in report order (each diagnostic's ``format()`` text and span) and
what :func:`validate_program` raises (exception class and message, or
``null``). The corpus:

* every :data:`~repro.sim.fuzz.LINT_MUTATIONS` mutant of fuzz seeds 0–11
  that has a mutation site;
* the two combinational-loop programs the engines reject;
* each ``examples/*.futil`` at the source and after every ``all`` stage;
* the systolic arrays of sizes 2–4 after ``all``.

A refactor of the rules, their shared analyses or the validator must leave
every entry unchanged, in text, span and order; a differing key names the
program and the stage.

Run ``pytest tests/test_lint_golden.py --update-goldens`` after an
*intentional* change to rewrite the file, then review its diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.ir.ast import Program
from repro.ir.validate import validate_program
from repro.lint import lint_program
from repro.passes import compile_program, make_pass_manager
from repro.passes.pipeline import resolve_pipeline
from repro.sim.fuzz import LINT_MUTATIONS, generate_spec, mutate_spec
from tests.test_robustness import ADDER_FEEDBACK, OSCILLATOR

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "goldens" / "lint_diagnostics.json"
EXAMPLES = sorted((REPO / "examples").glob("*.futil"))
SEEDS = range(12)
SYSTOLIC_SIZES = (2, 3, 4)


def _programs() -> Iterator[Tuple[str, Program]]:
    """``(key, program)`` for every corpus entry, stages in pipeline order."""
    for mutation in sorted(LINT_MUTATIONS):
        for seed in SEEDS:
            mutated = mutate_spec(generate_spec(seed), mutation)
            if mutated is not None:
                yield f"mutant/{mutation}/seed={seed}", parse_program(mutated.render())
    yield "loop/oscillator", parse_program(OSCILLATOR)
    yield "loop/adder-feedback", parse_program(ADDER_FEEDBACK)
    for path in EXAMPLES:
        program = parse_program(path.read_text())
        yield f"example/{path.stem}/00-source", program
        for index, pass_name in enumerate(resolve_pipeline("all"), start=1):
            make_pass_manager(passes=[pass_name]).run(program)
            yield f"example/{path.stem}/{index:02d}-{pass_name}", program
    for n in SYSTOLIC_SIZES:
        program = generate_systolic_array(SystolicConfig.square(n))
        compile_program(program, "all")
        yield f"systolic/{n}x{n}/all", program


def _entry(program: Program) -> Dict[str, object]:
    diagnostics = [
        [d.format(), d.span.to_string() if d.span else None]
        for d in lint_program(program)
    ]
    try:
        validate_program(program)
        raised = None
    except Exception as exc:  # the class and text are what is pinned
        raised = [type(exc).__name__, str(exc)]
    return {"diagnostics": diagnostics, "validate": raised}


def lint_entries() -> Dict[str, Dict[str, object]]:
    return {key: _entry(program) for key, program in _programs()}


def test_lint_and_validation_match_golden(request):
    entries = lint_entries()
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    pinned = json.loads(GOLDEN.read_text())
    assert list(pinned) == list(entries), "the corpus differs from the golden's"
    differing = [key for key in entries if pinned[key] != entries[key]]
    assert not differing, (
        f"lint or validation output differs from {GOLDEN.name} at: "
        f"{', '.join(differing)}; if the change is intentional, run "
        "`pytest tests/test_lint_golden.py --update-goldens` and review the diff"
    )
