"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import re

import pytest

from repro.ir import parse_program
from repro.passes import compile_program
from repro.sim import run_program


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/ snapshots instead of comparing",
    )

# A small but complete program: initialize an index, loop over a memory
# accumulating into a register, store the result. Exercises seq, while,
# conditions, memories, and registers.
SUM_LOOP = """
component main(go: 1) -> (done: 1) {
  cells {
    a0 = std_add(32);
    lt = std_lt(32);
    @external mem = std_mem_d1(32, 4, 2);
    idx = std_reg(32);
    sl = std_slice(32, 2);
    acc = std_reg(32);
    a1 = std_add(32);
  }
  wires {
    sl.in = idx.out;
    group init {
      idx.in = 32'd0; idx.write_en = 1;
      init[done] = idx.done;
    }
    group cond {
      lt.left = idx.out; lt.right = 32'd4;
      cond[done] = 1'd1;
    }
    group accum {
      a1.left = acc.out;
      mem.addr0 = sl.out;
      a1.right = mem.read_data;
      acc.in = a1.out; acc.write_en = 1;
      accum[done] = acc.done;
    }
    group incr {
      a0.left = idx.out; a0.right = 32'd1;
      idx.in = a0.out; idx.write_en = 1;
      incr[done] = idx.done;
    }
    group store {
      mem.addr0 = 2'd0;
      mem.write_data = acc.out;
      mem.write_en = 1;
      store[done] = mem.done;
    }
  }
  control {
    seq {
      init;
      while lt.out with cond {
        seq { accum; incr; }
      }
      store;
    }
  }
}
"""

# Two register writes in sequence: the minimal control program.
TWO_WRITES = """
component main(go: 1) -> (done: 1) {
  cells {
    x = std_reg(32);
    y = std_reg(32);
  }
  wires {
    group one {
      x.in = 32'd5; x.write_en = 1;
      one[done] = x.done;
    }
    group two {
      y.in = x.out; y.write_en = 1;
      two[done] = y.done;
    }
  }
  control {
    seq { one; two; }
  }
}
"""


@pytest.fixture
def sum_loop_source() -> str:
    return SUM_LOOP


@pytest.fixture
def two_writes_source() -> str:
    return TWO_WRITES


def compile_source(source: str, pipeline=None):
    """Parse and optionally compile a program."""
    program = parse_program(source)
    if pipeline is not None:
        compile_program(program, pipeline)
    return program


def run_source(source: str, pipeline=None, memories=None, max_cycles=200_000):
    """Parse, optionally compile, and simulate a program."""
    return run_program(
        compile_source(source, pipeline), memories=memories or {}, max_cycles=max_cycles
    )


def verilog_module_ports(text: str, module: str):
    """Sorted port names in the header of ``module`` within ``text``."""
    match = re.search(rf"^module {module}\b.*?\) \(\n(.*?)\n\);", text, re.S | re.M)
    assert match, f"no module {module} in the Verilog text"
    return sorted(line.rstrip(",").split()[-1] for line in match.group(1).splitlines())


def sum_loop_result(pipeline=None):
    return run_source(SUM_LOOP, pipeline, memories={"mem": [10, 20, 30, 40]})
