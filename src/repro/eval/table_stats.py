"""Section 7.4: compilation statistics.

The paper reports: the largest PolyBench design (gemver) compiles in 0.06
seconds; the largest systolic design (8x8) contains 241 cells, 224 groups,
and 1,744 control statements, and the compiler generates 8,906 lines of
SystemVerilog for it in 0.7 seconds. This runner reproduces each statistic
with our implementation (the structural counts are directly comparable;
absolute times are this implementation's, measured on the host).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.backend.verilog import verilog_loc
from repro.frontends.dahlia import compile_dahlia
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir.ast import Program
from repro.ir.control import count_control_statements
from repro.eval.report import render_table
from repro.passes import compile_program
from repro.workloads.polybench import get_kernel


@dataclass
class CompilationStats:
    design: str
    cells: int
    groups: int
    control_statements: int
    compile_seconds: float
    verilog_loc: int


def _stats(design: str, program: Program) -> CompilationStats:
    """Count the source design, then time its ``all`` compile plus Verilog."""
    main = program.main
    cells = len(main.cells)
    groups = len(main.groups)
    control = count_control_statements(main.control)
    start = time.perf_counter()
    compile_program(program, "all")
    loc = verilog_loc(program)
    elapsed = time.perf_counter() - start
    return CompilationStats(design, cells, groups, control, elapsed, loc)


def systolic_stats(n: int = 8) -> CompilationStats:
    program = generate_systolic_array(SystolicConfig.square(n))
    return _stats(f"systolic-{n}x{n}", program)


def gemver_stats(n: int = 4) -> CompilationStats:
    design = compile_dahlia(get_kernel("gemver", n).source)
    return _stats(f"gemver-{n}", design.program)


def run(systolic_n: int = 8, gemver_n: int = 4):
    return [gemver_stats(gemver_n), systolic_stats(systolic_n)]


def report(rows) -> str:
    table = render_table(
        "Section 7.4: compilation statistics",
        ["design", "cells", "groups", "control stmts", "compile (s)", "Verilog LOC"],
        [
            [r.design, r.cells, r.groups, r.control_statements, r.compile_seconds, r.verilog_loc]
            for r in rows
        ],
    )
    return (
        table
        + "\npaper reference (8x8 systolic): 241 cells, 224 groups, 1744 "
        "control statements, 8906 LOC of SystemVerilog"
    )


def main() -> str:
    text = report(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
