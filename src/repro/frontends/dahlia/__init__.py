"""Mini-Dahlia: an imperative accelerator language (paper Section 6.2).

A self-contained re-implementation of the Dahlia subset the paper
compiles: typed variables and memories (with banking), ``if``/``while``/
``for`` (with ``unroll``), and Dahlia's two composition operators —
unordered (``;``) and ordered (``---``).

Pipeline: :func:`parse` → :func:`typecheck` → :func:`lower` (loop
unrolling, memory banking, for→while) → :func:`compile_to_calyx`. The
:mod:`~repro.frontends.dahlia.interp` module provides an independent
reference interpreter used for differential testing, and the same AST
feeds the HLS baseline model (:mod:`repro.hls`).
"""

from repro.frontends.dahlia.parser import parse
from repro.frontends.dahlia.typecheck import typecheck
from repro.frontends.dahlia.lowering import lower
from repro.frontends.dahlia.to_calyx import CompiledDesign, compile_to_calyx
from repro.frontends.dahlia.interp import interpret


def compile_dahlia(source: str) -> CompiledDesign:
    """Full pipeline: Dahlia source text to a Calyx program."""
    prog = parse(source)
    typecheck(prog)
    design = compile_to_calyx(lower(prog))
    design.source = source
    return design


__all__ = [
    "parse",
    "typecheck",
    "lower",
    "compile_to_calyx",
    "compile_dahlia",
    "CompiledDesign",
    "interpret",
]
