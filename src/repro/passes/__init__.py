"""The pass-based Calyx compiler (paper Sections 4-5).

Passes transform a :class:`~repro.ir.ast.Program` in place. The
:class:`~repro.passes.base.PassManager` runs named pipelines; see
:mod:`repro.passes.pipeline` for the standard ones (``lower``, ``all``,
and ablation variants used by the evaluation).
"""

from repro.passes.base import Pass, PassManager, get_pass, register_pass, all_pass_names
from repro.passes.pipeline import (
    PIPELINES,
    compile_pipelines,
    compile_program,
    make_pass_manager,
    resolve_pipeline,
)

__all__ = [
    "Pass",
    "PassManager",
    "get_pass",
    "register_pass",
    "all_pass_names",
    "PIPELINES",
    "compile_pipelines",
    "compile_program",
    "make_pass_manager",
    "resolve_pipeline",
]

# Importing the modules registers every pass with the registry.
from repro.passes import (  # noqa: E402,F401
    collapse_control,
    compile_control,
    compile_invoke,
    compile_repeat,
    dead_cell,
    dead_group,
    go_insertion,
    guard_simplify,
    heuristic_sharing,
    infer_latency,
    register_sharing,
    remove_groups,
    resource_sharing,
    static_compile,
    well_formed,
)
