"""Dahlia reference interpreter tests plus end-to-end differential tests:
Dahlia interp == Calyx control interpreter == lowered FSM simulation."""

from hypothesis import given, settings, strategies as st

from repro.frontends.dahlia import compile_dahlia, interpret, parse, typecheck
from repro.robustness.difftest import SEMANTICS, compare


def interp(src, mems=None):
    return interpret(typecheck(parse(src)), mems or {})


class TestInterp:
    def test_arithmetic(self):
        out = interp(
            "decl r: ubit<32>[1];\nr[0] := 2 + 3 * 4"
        )
        assert out["r"] == [14]

    def test_wraparound(self):
        out = interp("decl r: ubit<8>[1];\nr[0] := 0 - 1")
        assert out["r"] == [255]

    def test_division_and_modulo(self):
        out = interp("decl r: ubit<8>[2];\nr[0] := 17 / 5\n---\nr[1] := 17 % 5")
        assert out["r"] == [3, 2]

    def test_division_by_zero_all_ones(self):
        out = interp(
            "decl r: ubit<8>[1];\ndecl z: ubit<8>[1];\nr[0] := 9 / z[0]"
        )
        assert out["r"] == [255]

    def test_shifts(self):
        out = interp("decl r: ubit<8>[2];\nr[0] := 3 << 2\n---\nr[1] := 12 >> 1")
        assert out["r"] == [12, 6]

    def test_if_else(self):
        out = interp(
            "decl r: ubit<8>[1];\nlet x: ubit<8> = 3\n---\n"
            "if (x > 2) { r[0] := 1 } else { r[0] := 2 }"
        )
        assert out["r"] == [1]

    def test_while(self):
        out = interp(
            "decl r: ubit<8>[1];\nlet x: ubit<8> = 0\n---\n"
            "while (x < 5) { x := x + 1 }\n---\nr[0] := x"
        )
        assert out["r"] == [5]

    def test_for_range(self):
        out = interp(
            "decl r: ubit<8>[4];\nfor (let i = 0..4) { r[i] := i + 10 }"
        )
        assert out["r"] == [10, 11, 12, 13]

    def test_memory_init(self):
        out = interp(
            "decl a: ubit<8>[2];\ndecl r: ubit<8>[1];\nr[0] := a[0] + a[1]",
            {"a": [3, 4]},
        )
        assert out["r"] == [7]

    def test_out_of_range_index_wraps_like_hardware(self):
        # Indices are masked to the address width before use — exactly
        # what the std_slice adapter in generated hardware does — so an
        # out-of-range index wraps instead of trapping (5 & 1 == 1).
        out = interp("decl a: ubit<8>[2];\nlet i: ubit<8> = 5 --- a[i] := 9")
        assert out["a"] == [0, 9]

    def test_mem_width_masks(self):
        out = interp("decl r: ubit<4>[1];\nr[0] := 20")
        assert out["r"] == [4]


def differential(src, mems):
    """Run all three semantics; assert each sees its fields and all agree."""
    design = compile_dahlia(src)
    reference = SEMANTICS["dahlia"](design, mems)
    assert reference.error is None and reference.memories, reference.error
    for name in ("interpret", "all"):
        observed = SEMANTICS[name](design, mems)
        divergence = compare(reference, observed, name)
        assert divergence is None, divergence.describe()
        assert None not in (observed.cycles, observed.registers, observed.done_nets)


class TestDifferential:
    def test_dot_product(self):
        differential(
            """
decl a: ubit<32>[4];
decl b: ubit<32>[4];
decl r: ubit<32>[1];
let acc: ubit<32> = 0
---
for (let i = 0..4) {
  acc := acc + a[i] * b[i]
}
---
r[0] := acc
""",
            {"a": [1, 2, 3, 4], "b": [5, 6, 7, 8], "r": [0]},
        )

    def test_conditional_accumulate(self):
        differential(
            """
decl a: ubit<32>[4];
decl r: ubit<32>[1];
let acc: ubit<32> = 0
---
for (let i = 0..4) {
  if (a[i] > 10) {
    acc := acc + a[i]
  } else {
    acc := acc + 1
  }
}
---
r[0] := acc
""",
            {"a": [5, 15, 25, 3], "r": [0]},
        )

    def test_division_kernel(self):
        differential(
            """
decl a: ubit<32>[4];
decl r: ubit<32>[4];
for (let i = 0..4) {
  r[i] := a[i] / 3
}
""",
            {"a": [9, 10, 11, 12], "r": [0] * 4},
        )

    def test_unrolled_banked(self):
        differential(
            """
decl a: ubit<32>[4 bank 2];
decl r: ubit<32>[4 bank 2];
for (let i = 0..4) unroll 2 {
  r[i] := a[i] * 3 + i + 1
}
""",
            {"a": [1, 2, 3, 4], "r": [0] * 4},
        )

    def test_nested_loops_2d(self):
        differential(
            """
decl m: ubit<32>[2][3];
decl r: ubit<32>[2];
for (let i = 0..2) {
  let acc: ubit<32> = 0;
  ---
  for (let j = 0..3) {
    acc := acc + m[i][j]
  }
  ---
  r[i] := acc
}
""",
            {"m": [1, 2, 3, 4, 5, 6], "r": [0, 0]},
        )

    def test_same_memory_read_twice_in_statement(self):
        differential(
            """
decl a: ubit<32>[4];
decl r: ubit<32>[1];
r[0] := a[0] + a[3]
""",
            {"a": [7, 0, 0, 9], "r": [0]},
        )

    def test_read_modify_write_same_cell(self):
        differential(
            """
decl a: ubit<32>[2];
for (let i = 0..2) {
  a[i] := a[i] + 100
}
""",
            {"a": [1, 2]},
        )

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_differential_property_random_inputs(self, data):
        differential(
            """
decl a: ubit<32>[4];
decl r: ubit<32>[1];
let best: ubit<32> = 0
---
for (let i = 0..4) {
  if (a[i] > best) {
    best := a[i]
  }
}
---
r[0] := best
""",
            {"a": data, "r": [0]},
        )
