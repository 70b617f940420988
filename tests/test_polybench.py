"""Tests over the PolyBench kernel suite: construction, typechecking,
compilation, and differential correctness for a representative subset."""

import pytest

from repro.frontends.dahlia import compile_dahlia, parse, typecheck
from repro.ir.validate import validate_program
from repro.robustness.difftest import SEMANTICS, compare
from repro.workloads.polybench import (
    ALL_KERNELS,
    UNROLLABLE,
    get_kernel,
    polybench_kernels,
)

N = 4


class TestSuiteStructure:
    def test_nineteen_kernels(self):
        assert len(ALL_KERNELS) == 19

    def test_eleven_unrollable(self):
        assert len(UNROLLABLE) == 11
        kernels = {k.name: k for k in polybench_kernels(N)}
        for name in UNROLLABLE:
            assert kernels[name].unrollable, name

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            get_kernel("fft")

    def test_memories_match_decls(self):
        for kernel in polybench_kernels(N):
            prog = typecheck(parse(kernel.source))
            decl_names = {d.name for d in prog.decls}
            assert decl_names == set(kernel.memories), kernel.name


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_compiles_and_validates(name):
    kernel = get_kernel(name, N)
    design = compile_dahlia(kernel.source)
    validate_program(design.program)


@pytest.mark.parametrize("name", UNROLLABLE)
def test_unrolled_variant_compiles_and_validates(name):
    kernel = get_kernel(name, N)
    design = compile_dahlia(kernel.unrolled_source)
    validate_program(design.program)


def check_kernel(name, unrolled=False, pipeline="all"):
    kernel = get_kernel(name, N)
    design = compile_dahlia(kernel.unrolled_source if unrolled else kernel.source)
    mems = kernel.memories_for(unrolled)
    reference = SEMANTICS["dahlia"](design, mems)
    assert reference.error is None, reference.error
    divergence = compare(reference, SEMANTICS[pipeline](design, mems), pipeline)
    assert divergence is None, f"{name}: {divergence.describe()}"


# Full differential checks on a structurally diverse subset (covering
# reductions, triangular guards, division, in-place updates, banking).
@pytest.mark.parametrize(
    "name", ["gemm", "atax", "trisolv", "lu", "symm", "durbin", "mvt"]
)
def test_kernel_differential(name):
    check_kernel(name)


@pytest.mark.parametrize("name", ["gemm", "mvt", "gesummv", "trmm"])
def test_unrolled_kernel_differential(name):
    check_kernel(name, unrolled=True)


def test_unrolled_is_faster():
    kernel = get_kernel("gemm", N)
    plain = SEMANTICS["all"](compile_dahlia(kernel.source), kernel.memories_for(False))
    unrolled = SEMANTICS["all"](
        compile_dahlia(kernel.unrolled_source), kernel.memories_for(True)
    )
    assert unrolled.cycles < plain.cycles
