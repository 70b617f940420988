"""Tests for Dahlia lowering: unrolling, banking, for->while, plus
hypothesis properties on the bank split/merge layout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TypeError_
from repro.frontends.dahlia import lower, parse, typecheck
from repro.frontends.dahlia.ast import (
    AssignMem,
    BinOp,
    For,
    Let,
    OrderedSeq,
    ParBlock,
    While,
    walk,
)
from repro.frontends.dahlia.lowering import MemoryLayout, bank_name


def lowered(src):
    return lower(typecheck(parse(src)))


class TestForLowering:
    def test_plain_for_becomes_while(self):
        out = lowered("decl A: ubit<8>[4];\nfor (let i = 0..4) { A[i] := 1 }")
        seq = out.body
        assert isinstance(seq, OrderedSeq)
        assert isinstance(seq.stmts[0], Let)  # counter init
        assert isinstance(seq.stmts[1], While)

    def test_no_for_left_after_lowering(self):
        out = lowered(
            "decl A: ubit<8>[4];\n"
            "for (let i = 0..4) { for (let j = 0..4) { A[j] := 1 } }"
        )
        assert not any(isinstance(s, For) for s in walk(out.body))

    def test_nonzero_start_offsets_indices(self):
        out = lowered("decl A: ubit<8>[4];\nfor (let i = 1..4) { A[i] := 1 }")
        # loop runs 3 trips; memory index is i+1
        assert "While" in str(type(out.body.stmts[1]))
        (write,) = [s for s in walk(out.body) if isinstance(s, AssignMem)]
        index = write.indices[0]
        assert isinstance(index, BinOp) and index.op == "+"
        assert (index.left.name, index.right.value) == ("i", 1)


class TestUnrolling:
    def test_full_unroll_makes_parblock(self):
        out = lowered(
            "decl A: ubit<8>[2 bank 2];\n"
            "for (let i = 0..2) unroll 2 { A[i] := 1 }"
        )
        assert isinstance(out.body, ParBlock)
        assert len(out.body.stmts) == 2

    def test_partial_unroll_keeps_outer_loop(self):
        out = lowered(
            "decl A: ubit<8>[8 bank 2];\n"
            "for (let i = 0..8) unroll 2 { A[i] := 1 }"
        )
        seq = out.body
        assert isinstance(seq, OrderedSeq)
        loop = seq.stmts[1]
        assert isinstance(loop, While)
        assert isinstance(loop.body.stmts[0], ParBlock)

    def test_banked_memory_split_into_decls(self):
        out = lowered(
            "decl A: ubit<8>[4 bank 2];\n"
            "for (let i = 0..4) unroll 2 { A[i] := 1 }"
        )
        names = [d.name for d in out.decls]
        assert bank_name("A", 0) in names
        assert bank_name("A", 1) in names
        assert "A" not in names

    def test_copies_access_distinct_banks(self):
        out = lowered(
            "decl A: ubit<8>[4 bank 2];\n"
            "for (let i = 0..4) unroll 2 { A[i] := 1 }"
        )
        par = out.body.stmts[1].body.stmts[0]
        mems = {s.mem for s in walk(par) if isinstance(s, AssignMem)}
        assert mems == {bank_name("A", 0), bank_name("A", 1)}

    def test_constant_banked_access_outside_loop(self):
        out = lowered(
            "decl A: ubit<8>[4 bank 2];\n"
            "A[3] := 7\n"
            "---\n"
            "for (let i = 0..4) unroll 2 { A[i] := 1 }"
        )
        first = out.body.stmts[0]
        assert first.mem == bank_name("A", 1)  # 3 % 2 == 1

    def test_variable_banked_access_outside_unroll_rejected(self):
        with pytest.raises(TypeError_):
            lowered(
                "decl A: ubit<8>[4 bank 2];\n"
                "for (let i = 0..2) { A[i] := 1 }"
            )

    def test_two_banked_dims_rejected(self):
        with pytest.raises(TypeError_):
            lowered(
                "decl A: ubit<8>[4 bank 2][4 bank 2];\nA[0][0] := 1"
            )


class TestMemoryLayout:
    def test_split_1d_cyclic(self):
        layout = MemoryLayout("A", 8, [4], banks=2, banked_dim=0)
        banks = layout.split([10, 11, 12, 13])
        assert banks[bank_name("A", 0)] == [10, 12]
        assert banks[bank_name("A", 1)] == [11, 13]

    def test_merge_inverts_split(self):
        layout = MemoryLayout("A", 8, [4], banks=2, banked_dim=0)
        values = [5, 6, 7, 8]
        assert layout.merge(layout.split(values)) == values

    def test_split_2d_banked_inner(self):
        layout = MemoryLayout("A", 8, [2, 4], banks=2, banked_dim=1)
        values = list(range(8))
        banks = layout.split(values)
        assert banks[bank_name("A", 0)] == [0, 2, 4, 6]
        assert banks[bank_name("A", 1)] == [1, 3, 5, 7]

    def test_unbanked_identity(self):
        layout = MemoryLayout("A", 8, [4])
        assert layout.split([1, 2, 3, 4]) == {"A": [1, 2, 3, 4]}

    def test_wrong_size_rejected(self):
        layout = MemoryLayout("A", 8, [4])
        with pytest.raises(TypeError_):
            layout.split([1, 2])

    @given(
        st.integers(min_value=1, max_value=4),  # log2-ish sizes
        st.sampled_from([1, 2, 4]),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_merge_roundtrip_property(self, scale, banks, dim_idx):
        dims = [2 * scale, 4 * banks]
        banked_dim = 1 if banks > 1 else None
        layout = MemoryLayout(
            "M", 16, dims, banks=banks, banked_dim=banked_dim
        )
        values = list(range(layout.size))
        assert layout.merge(layout.split(values)) == values

    def test_physical_names(self):
        layout = MemoryLayout("A", 8, [4], banks=2, banked_dim=0)
        assert layout.physical_names() == ["A__bk0", "A__bk1"]
        assert MemoryLayout("B", 8, [4]).physical_names() == ["B"]
