"""repro: a Python reproduction of the Calyx compiler infrastructure.

Reproduces "A Compiler Infrastructure for Accelerator Generators"
(ASPLOS 2021): the Calyx intermediate language, its pass-based optimizing
compiler, a cycle-accurate simulator, a Verilog backend and resource
estimator, two DSL frontends (a systolic array generator and a
mini-Dahlia compiler), an HLS baseline model, and a benchmark harness for
every figure in the paper's evaluation.

Quickstart::

    from repro import parse_program, compile_program, run_program

    program = parse_program(source_text)
    compile_program(program, "all")      # optimize + lower to structure
    result = run_program(program, memories={"mem": [1, 2, 3, 4]})
    print(result.cycles, result.memories)

See ``examples/`` for frontend usage and ``DESIGN.md`` for the system map.
"""

from repro.ir import parse_program, print_program, Builder
from repro.ir.validate import validate_program
from repro.passes import PIPELINES, compile_program
from repro.sim import Testbench, Watchdog, run_program
from repro.backend import emit_verilog, estimate_resources
from repro.robustness import (
    CheckedPassManager,
    difftest_program,
)

__version__ = "1.0.0"

__all__ = [
    "parse_program",
    "print_program",
    "validate_program",
    "Builder",
    "PIPELINES",
    "compile_program",
    "Testbench",
    "Watchdog",
    "run_program",
    "emit_verilog",
    "estimate_resources",
    "CheckedPassManager",
    "difftest_program",
    "__version__",
]
