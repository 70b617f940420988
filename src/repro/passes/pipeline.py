"""Standard pass pipelines, including the ablation variants of Section 7.

``lower`` is the minimal correct path to a structural program. ``all``
adds every optimization (the evaluation's default configuration). The
ablations toggle individual optimizations for Figures 7 and 9.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CalyxError, PassError
from repro.ir.ast import Program
from repro.passes.base import PassManager

_FRONT = ["well-formed", "compile-repeat", "collapse-control"]
_BACK = [
    "compile-invoke",
    "go-insertion",
    "compile-control",
    "dead-group-removal",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
]
_BACK_STATIC = [
    "compile-invoke",
    "go-insertion",
    "static-compile",
    "compile-control",
    "dead-group-removal",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
]

PIPELINES: Dict[str, List[str]] = {
    # Minimal lowering: no optimizations, latency-insensitive FSMs only.
    "lower": _FRONT + _BACK,
    # Lowering with the Sensitive pass (latency-sensitive where possible);
    # latency inference supplies the static attributes (Section 5.3).
    "lower-static": _FRONT + ["infer-latency"] + _BACK_STATIC,
    # Everything on: both sharing passes + inference + Sensitive.
    "all": _FRONT
    + ["resource-sharing", "register-sharing", "infer-latency"]
    + _BACK_STATIC,
    # Ablations for Figure 9a/9b: exactly one sharing pass enabled (the
    # "both" column is ``all``).
    "resource-share-only": _FRONT + ["resource-sharing", "infer-latency"] + _BACK_STATIC,
    "register-share-only": _FRONT + ["register-sharing", "infer-latency"] + _BACK_STATIC,
    # Figure 9c: sharing on, Sensitive off/on.
    "no-static": _FRONT + ["resource-sharing", "register-sharing"] + _BACK,
    # Section 9 extension: cost-model-guided sharing instead of greedy.
    "heuristic-share": _FRONT
    + ["resource-sharing-heuristic", "register-sharing", "infer-latency"]
    + _BACK_STATIC,
    # Pure structural check without lowering control.
    "validate": ["well-formed"],
}


def resolve_pipeline(
    pipeline: str = "all", passes: Optional[List[str]] = None
) -> List[str]:
    """The pass list for a named pipeline (or an explicit pass list)."""
    if passes is not None:
        return list(passes)
    if pipeline not in PIPELINES:
        raise PassError(
            f"unknown pipeline {pipeline!r}; available: "
            f"{', '.join(sorted(PIPELINES))}"
        )
    return list(PIPELINES[pipeline])


def make_pass_manager(
    pipeline: str = "all",
    passes: Optional[List[str]] = None,
    checked: bool = False,
    keep_going: bool = False,
    lint: bool = False,
) -> PassManager:
    """Build a (possibly checked) pass manager for a pipeline."""
    names = resolve_pipeline(pipeline, passes)
    if checked or keep_going or lint:
        from repro.robustness.checked import CheckedPassManager

        return CheckedPassManager(names, keep_going=keep_going, lint=lint)
    return PassManager(names)


def compile_program(
    program: Program,
    pipeline: str = "all",
    passes: Optional[List[str]] = None,
    checked: bool = False,
    keep_going: bool = False,
    lint: bool = False,
) -> Program:
    """Run a named pipeline (or explicit pass list) on ``program`` in place.

    With ``checked`` the IR is re-validated after every pass and failures
    surface as :class:`~repro.errors.PassDiagnostic`; ``keep_going``
    additionally rolls back and skips a failing pass instead of aborting.
    ``lint`` opts into running the full lint rule set between passes, so
    a pass that introduces (say) a combinational cycle or a wrong
    ``"static"`` claim is named immediately.
    """
    make_pass_manager(pipeline, passes, checked, keep_going, lint).run(program)
    return program


def compile_pipelines(
    program: Program, names: Sequence[str], checked: bool = False
) -> Dict[str, Union[Program, CalyxError]]:
    """Each named pipeline's result on ``program``, in ``names`` order.

    The pipelines form a trie over their pass lists: each distinct prefix
    runs once, and the program is copied only where pipelines part, so
    there are no more copies than pipelines. Like :func:`compile_program`
    this works in place: ``program`` itself becomes one pipeline's result.
    Every pass runs through :meth:`PassManager.run` at its index in its
    own pipeline, so a result prints as :func:`compile_program` would
    print it, and a checked failure's
    :class:`~repro.errors.PassDiagnostic` is the one it would raise. A
    pipeline that fails maps to its error: an unknown name's, or the
    failing pass's, which every pipeline through that prefix shares.
    """
    passes: Dict[str, List[str]] = {}
    results: Dict[str, Union[Program, CalyxError]] = {}
    for name in names:
        try:
            passes[name] = resolve_pipeline(name)
        except PassError as exc:
            results[name] = exc

    # Each entry: the program a part of the trie starts from, whether it runs
    # on a copy, the pipelines it holds and how many passes they share. A
    # stack, not recursion, whose nested function would refer to itself and
    # leave every program of the trie to the cyclic collector.
    work: List[Tuple[Program, bool, List[str], int]] = []
    if passes:
        work.append((program, False, list(passes), 0))
    while work:
        source, copy, members, depth = work.pop()
        program = source.copy() if copy else source
        if len(members) == 1 and len(passes[members[0]]) == depth:
            results[members[0]] = program
            continue
        first = passes[members[0]]
        stop = depth
        while stop < len(first) and all(
            passes[name][stop : stop + 1] == [first[stop]] for name in members
        ):
            stop += 1
        if stop > depth:
            try:
                make_pass_manager(passes=first[:stop], checked=checked).run(
                    program, start=depth
                )
            except CalyxError as exc:
                # Without its traceback, whose frames hold the program.
                results.update(dict.fromkeys(members, exc.with_traceback(None)))
                continue
        # Where the pipelines part: each one that ends here, then each branch.
        parts = [[name] for name in members if len(passes[name]) == stop]
        branches: Dict[str, List[str]] = {}
        for name in members:
            if len(passes[name]) > stop:
                branches.setdefault(passes[name][stop], []).append(name)
        parts += branches.values()
        # Popped in order, so each copy is taken before the last part, which
        # runs on the program itself, changes it.
        for i in reversed(range(len(parts))):
            work.append((program, i < len(parts) - 1, parts[i], stop))
    return {name: results[name] for name in names}
