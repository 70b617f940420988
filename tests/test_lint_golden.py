"""Pinned lint and validation output over a fixed corpus.

``tests/goldens/lint_diagnostics.json`` holds, per program, the full lint
report in report order (each diagnostic's ``format()`` text and span) and
what :func:`validate_program` raises (exception class and message, or
``null``). The corpus:

* every :data:`~repro.sim.fuzz.LINT_MUTATIONS` mutant of fuzz seeds 0–11
  that has a mutation site;
* the two combinational-loop programs the engines reject;
* the hand-written programs in ``tests/lint_programs/``: guards that are
  tautologies, contradictions (conjunctions among them, some wider than
  ``MAX_GUARD_ATOMS`` atoms, some spelling one comparison two ways) or
  neither, and references that the core rules reject inside guards;
* each ``examples/*.futil`` at the source and after every ``all`` stage;
* the systolic arrays of sizes 2–4 after ``all``.

A refactor of the rules, their shared analyses or the validator must leave
every entry unchanged, in text, span and order; a differing key names the
program and the stage. Over the same corpus, each rule run alone reports
exactly what it contributes to the full report, in the same order, so no
rule's output depends on which rules ran before it.

Run ``pytest tests/test_lint_golden.py --update-goldens`` after an
*intentional* change to rewrite the file, then review its diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.ir.ast import Program
from repro.ir.validate import validate_program
from repro.lint import all_rules, lint_program
from repro.lint.registry import LintRule
from repro.passes import compile_program, make_pass_manager
from repro.passes.pipeline import resolve_pipeline
from repro.sim.fuzz import LINT_MUTATIONS, generate_spec, mutate_spec
from tests.test_robustness import ADDER_FEEDBACK, OSCILLATOR

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "goldens" / "lint_diagnostics.json"
EXAMPLES = sorted((REPO / "examples").glob("*.futil"))
HAND_WRITTEN = sorted((Path(__file__).resolve().parent / "lint_programs").glob("*.futil"))
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
    for path in HAND_WRITTEN:
        yield f"program/{path.stem}", parse_program(path.read_text())
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


def _pinned(diagnostics) -> List[List[object]]:
    return [[d.format(), d.span.to_string() if d.span else None] for d in diagnostics]


def _entry(program: Program) -> Dict[str, object]:
    diagnostics = _pinned(lint_program(program))
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


def _rule_by_rule(program: Program) -> Tuple[List[List[object]], List[List[object]]]:
    """The full report rebuilt twice: from one ``lint_program`` call per
    rule, and from one call running the rules in reverse order, cut into
    each rule's part by the sizes the lone calls give. A report lists, per
    component, each rule's findings there in rule order, then each
    program-level rule's findings."""
    rules = all_rules()
    alone = {id(rule): list(lint_program(program, rules=[rule])) for rule in rules}
    by_component = [rule for rule in rules if type(rule).check_program is LintRule.check_program]
    blocks = [
        [[d for d in alone[id(rule)] if d.component == comp.name] for rule in by_component]
        for comp in program.components
    ]
    blocks.append([alone[id(rule)] for rule in rules if rule not in by_component])
    # The reversed call reports each block's parts in reverse order.
    backward = iter(lint_program(program, rules=rules[::-1]))
    undone = []
    for block in blocks:
        undone += reversed([[next(backward) for _ in part] for part in reversed(block)])
    undone.append(list(backward))
    return (
        _pinned(d for block in blocks for part in block for d in part),
        _pinned(d for part in undone for d in part),
    )


def test_each_rule_reports_its_part_whatever_ran_before_it():
    """Each rule run alone, and all of them in reverse order, report what
    each contributes to the full report, in the same order."""
    differing = []
    for key, program in _programs():
        full = _pinned(lint_program(program))
        alone, backward = _rule_by_rule(program)
        if alone != full or backward != full:
            differing.append(key)
    assert not differing, f"a rule's report depends on the rules before it at: {differing}"
