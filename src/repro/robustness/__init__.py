"""The robustness layer: self-checking around compilation and simulation.

Closes the loop the paper leaves open — passes are *claimed* to preserve
semantics (Sections 4-5); this package makes the toolchain detect, localize,
and report its own failures instead of silently propagating them:

* :mod:`repro.robustness.checked` — a pass manager that snapshots the IR
  around every pass and re-validates well-formedness plus pass-specific
  invariants, raising a structured :class:`~repro.errors.PassDiagnostic`
  naming the offending pass,
* :mod:`repro.robustness.difftest` — the differential harness (one
  observation, one comparison) and the oracle built on it, running the
  same program interpreted (unlowered) and compiled through every
  registered pipeline, comparing final memories and latencies,
* :mod:`repro.robustness.faultinject` — deterministic seeded fault
  injection at the IR and simulation levels, used to prove the validator,
  watchdog, and oracle catch what they claim to catch.
"""

from repro.robustness.checked import (
    CheckedPassManager,
    POST_CONDITIONS,
    check_post_conditions,
)
from repro.robustness.difftest import (
    DifftestReport,
    Divergence,
    PipelineOutcome,
    default_memories,
    default_pipelines,
    difftest_kernel,
    difftest_program,
)
from repro.robustness.faultinject import (
    IRMutation,
    NetFault,
    SelfTestRecord,
    enumerate_ir_mutations,
    inject_ir_fault,
    run_selftest,
)

__all__ = [
    "CheckedPassManager",
    "POST_CONDITIONS",
    "check_post_conditions",
    "DifftestReport",
    "Divergence",
    "PipelineOutcome",
    "default_memories",
    "default_pipelines",
    "difftest_kernel",
    "difftest_program",
    "IRMutation",
    "NetFault",
    "SelfTestRecord",
    "enumerate_ir_mutations",
    "inject_ir_fault",
    "run_selftest",
]
