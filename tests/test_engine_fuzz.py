"""Property-based cross-check of the sweep and levelized engines.

Runs a batch of seeded random programs (registers, adders, comparators,
``seq``/``par``/``if``/``while``) through both engines and requires
identical observable behavior; a divergence is shrunk to a minimal repro
before failing, so the assertion message is actionable. The batch size is
``REPRO_FUZZ_COUNT`` (default 200, the CI contract) starting at
``REPRO_FUZZ_SEED``.
"""

import os

import pytest

from repro.ir import parse_program
from repro.ir.validate import validate_program
from repro.sim.fuzz import (
    ProgramSpec,
    cross_check,
    generate_spec,
    shrink_spec,
)

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "200"))


def test_generator_is_deterministic():
    assert generate_spec(42).render() == generate_spec(42).render()
    assert generate_spec(42).render() != generate_spec(43).render()


def test_generated_programs_are_well_formed():
    """Every generated program parses and validates: fuzz failures can only
    ever mean engine divergence, never generator bugs."""
    for seed in range(25):
        source = generate_spec(seed).render()
        validate_program(parse_program(source))


def test_fuzz_cross_check_batch():
    """The CI contract: ~200 seeded programs, both engines, bit-identical."""
    reports = []
    for seed in range(FUZZ_SEED, FUZZ_SEED + FUZZ_COUNT):
        report = cross_check(seed)
        if report is not None:
            reports.append(report)
            break  # one shrunk repro is enough to act on
    assert not reports, "\n\n".join(reports)


def test_shrinker_minimizes_to_culprit_subtree():
    """With an injected failure predicate ("contains a while"), shrinking
    must strip everything except a minimal tree still containing one."""
    spec = None
    for seed in range(200):
        candidate = generate_spec(seed)
        kinds = [n.kind for n in candidate.root.walk()]
        if "while" in kinds and len(kinds) > 4:
            spec = candidate
            break
    assert spec is not None, "no seed produced a while in 200 tries"

    def fails(candidate: ProgramSpec) -> bool:
        return any(n.kind == "while" for n in candidate.root.walk())

    minimal = shrink_spec(spec, fails=fails)
    assert fails(minimal), "shrinking lost the failure"
    before = sum(1 for _ in spec.root.walk())
    after = sum(1 for _ in minimal.root.walk())
    assert after <= before
    # Nothing removable remains: every leaf subtree is load-bearing.
    from repro.sim.fuzz import _subtree_removals

    for variant in _subtree_removals(minimal.root):
        assert not fails(
            ProgramSpec(seed=minimal.seed, cells=minimal.cells, root=variant)
        ) or sum(1 for _ in variant.walk()) >= after
