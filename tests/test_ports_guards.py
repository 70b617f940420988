"""Unit tests for port references and the guard language."""

import copy
import gc
import random
import weakref

import pytest

from repro.errors import ValidationError
from repro.ir import parse_program
from repro.ir.guards import (
    G_TRUE,
    AndGuard,
    CmpGuard,
    NotGuard,
    OrGuard,
    PortGuard,
    TrueGuard,
    and_all,
    fold,
    or_all,
)
from repro.ir.ports import CellPort, ConstPort, HolePort, ThisPort


class TestPorts:
    def test_cell_port_string(self):
        assert CellPort("add", "left").to_string() == "add.left"

    def test_hole_port_string(self):
        assert HolePort("grp", "go").to_string() == "grp[go]"

    def test_hole_port_rejects_bad_name(self):
        with pytest.raises(ValidationError):
            HolePort("grp", "ready")

    def test_this_port_string(self):
        assert ThisPort("out").to_string() == "out"

    def test_const_port_string(self):
        assert ConstPort(32, 10).to_string() == "32'd10"

    def test_const_normalizes_modulo_width(self):
        assert ConstPort(4, 16).value == 0
        assert ConstPort(4, 17).value == 1
        assert ConstPort(4, -1).value == 15

    def test_const_rejects_zero_width(self):
        with pytest.raises(ValidationError):
            ConstPort(0, 1)

    def test_equality_and_hash(self):
        assert CellPort("a", "b") == CellPort("a", "b")
        assert hash(CellPort("a", "b")) == hash(CellPort("a", "b"))
        assert CellPort("a", "b") != HolePort("a", "go")
        assert len({CellPort("a", "b"), CellPort("a", "b")}) == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CellPort("add", "left"),
            lambda: HolePort("grp", "done"),
            lambda: ThisPort("out"),
            lambda: ConstPort(4, 3),
        ],
        ids=["cell", "hole", "this", "const"],
    )
    def test_equal_references_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert copy.deepcopy(a) == a and hash(copy.deepcopy(a)) == hash(a)

    def test_normalized_constants_hash_equal(self):
        # 19 and 3 are the same 4-bit literal once normalized modulo 2**4.
        assert ConstPort(4, 19) == ConstPort(4, 3)
        assert hash(ConstPort(4, 19)) == hash(ConstPort(4, 3)) == hash(ConstPort(4, -13))
        assert len({ConstPort(4, 19), ConstPort(4, 3), ConstPort(8, 3)}) == 2

    def test_is_hole(self):
        assert HolePort("g", "done").is_hole()
        assert not CellPort("a", "out").is_hole()


class TestGuards:
    def port(self, name="x"):
        return CellPort(name, "out")

    def test_true_guard(self):
        assert G_TRUE.to_string() == "1"
        assert list(G_TRUE.ports()) == []
        assert G_TRUE.size() == 0

    def test_port_guard(self):
        g = PortGuard(self.port())
        assert g.to_string() == "x.out"
        assert list(g.ports()) == [self.port()]

    def test_and_folds_true(self):
        g = PortGuard(self.port())
        assert G_TRUE.and_(g) is g
        assert g.and_(G_TRUE) is g

    def test_or_folds_true(self):
        g = PortGuard(self.port())
        assert isinstance(G_TRUE.or_(g), TrueGuard)

    def test_not_not_folds(self):
        g = PortGuard(self.port())
        assert g.not_().not_() is g

    def test_operator_sugar(self):
        a = PortGuard(self.port("a"))
        b = PortGuard(self.port("b"))
        assert isinstance(a & b, AndGuard)
        assert isinstance(a | b, OrGuard)
        assert isinstance(~a, NotGuard)

    def test_cmp_guard(self):
        g = CmpGuard("==", self.port(), ConstPort(2, 1))
        assert g.to_string() == "x.out == 2'd1"
        assert g.size() == 1

    def test_cmp_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            CmpGuard("===", self.port(), self.port())

    def test_to_string_parenthesizes(self):
        a = PortGuard(self.port("a"))
        b = PortGuard(self.port("b"))
        c = PortGuard(self.port("c"))
        g = OrGuard(AndGuard(a, b), c)
        assert g.to_string() == "(a.out & b.out) | c.out"

    def test_map_ports(self):
        g = AndGuard(PortGuard(self.port("a")), NotGuard(PortGuard(self.port("b"))))
        renamed = g.map_ports(
            lambda p: CellPort("z", p.port) if isinstance(p, CellPort) else p
        )
        assert renamed.to_string() == "z.out & !z.out"

    def test_size_counts_operators(self):
        a = PortGuard(self.port("a"))
        g = AndGuard(NotGuard(a), OrGuard(a, a))
        assert g.size() == 3

    def test_and_all_empty_is_true(self):
        assert isinstance(and_all([]), TrueGuard)

    def test_or_all_empty_is_never(self):
        g = or_all([])
        assert isinstance(g, NotGuard)
        assert isinstance(g.inner, TrueGuard)

    def test_equality_structural(self):
        a1 = AndGuard(PortGuard(self.port()), G_TRUE)
        a2 = AndGuard(PortGuard(self.port()), G_TRUE)
        assert a1 == a2
        assert hash(a1) == hash(a2)


def _reference_ports(guard):
    """The recursive generator ``ports()`` replaced: tree order, repeats."""
    if isinstance(guard, PortGuard):
        yield guard.port
    elif isinstance(guard, CmpGuard):
        yield guard.left
        yield guard.right
    elif isinstance(guard, NotGuard):
        yield from _reference_ports(guard.inner)
    elif isinstance(guard, (AndGuard, OrGuard)):
        yield from _reference_ports(guard.left)
        yield from _reference_ports(guard.right)


def _random_guard(rng, depth):
    """A random guard over a small port pool, so subtrees repeat."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            op = rng.choice(["==", "!=", "<", ">", "<=", ">="])
            left = CellPort(rng.choice("ab"), "out")
            return CmpGuard(op, left, ConstPort(2, rng.randrange(4)))
        leaves = [CellPort("x", "out"), HolePort("g", "done"), ThisPort("go")]
        return PortGuard(rng.choice(leaves))
    kind = rng.randrange(3)
    if kind == 0:
        return NotGuard(_random_guard(rng, depth - 1))
    cls = AndGuard if kind == 1 else OrGuard
    return cls(_random_guard(rng, depth - 1), _random_guard(rng, depth - 1))


INTERN_SRC = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(1); f = std_reg(2); }
  wires {
    group g {
      r.in = (f.out == 2'd1) & !r.done | go ? 1'd1;
      r.write_en = !(f.out == 2'd1 & !r.done) ? 1'd1;
      g[done] = r.done;
    }
  }
  control { g; }
}
"""


class TestInterning:
    def a(self):
        return PortGuard(CellPort("a", "out"))

    def b(self):
        return PortGuard(CellPort("b", "out"))

    def cmp(self, op="=="):
        return CmpGuard(op, CellPort("fsm", "out"), ConstPort(2, 1))

    def test_every_constructor_interns(self):
        assert TrueGuard() is G_TRUE
        assert self.a() is self.a()
        assert PortGuard(ConstPort(1, 1)) is PortGuard(ConstPort(1, 1))
        assert self.cmp() is self.cmp()
        assert NotGuard(self.a()) is NotGuard(self.a())
        assert AndGuard(self.a(), self.b()) is AndGuard(self.a(), self.b())
        assert OrGuard(self.a(), self.cmp()) is OrGuard(self.a(), self.cmp())

    def test_distinct_structures_stay_distinct(self):
        a, b = self.a(), self.b()
        assert AndGuard(a, b) is not OrGuard(a, b)
        assert AndGuard(a, b) is not AndGuard(b, a)
        assert self.cmp("<") is not self.cmp("<=")
        assert PortGuard(ThisPort("go")) is not PortGuard(CellPort("go", "out"))

    def test_combinators_return_interned_nodes(self):
        a, b = self.a(), self.b()
        assert a.and_(b) is AndGuard(a, b)
        assert a.or_(b) is OrGuard(a, b)
        assert a.not_() is NotGuard(a)
        assert and_all([a, b, self.cmp()]) is AndGuard(AndGuard(a, b), self.cmp())
        assert or_all([]) is NotGuard(G_TRUE)
        assert (a & ~b) is AndGuard(a, NotGuard(b))
        g = AndGuard(a, NotGuard(self.cmp()))
        assert g.map_ports(lambda p: p) is g
        renamed = g.map_ports(
            lambda p: CellPort("z", p.port) if isinstance(p, CellPort) else p
        )
        expected = AndGuard(
            PortGuard(CellPort("z", "out")),
            NotGuard(CmpGuard("==", CellPort("z", "out"), ConstPort(2, 1))),
        )
        assert renamed is expected

    def test_copies_are_the_node(self):
        g = OrGuard(self.a(), NotGuard(self.cmp()))
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g

    def test_equality_is_identity(self):
        a = self.a()
        assert a == PortGuard(CellPort("a", "out"))
        assert hash(a) == object.__hash__(a)
        assert AndGuard(a, a) != AndGuard(a, self.b())

    def test_parsing_twice_shares_every_guard(self):
        first = parse_program(INTERN_SRC).main
        second = parse_program(INTERN_SRC).main
        pairs = list(zip(first.all_assignments(), second.all_assignments()))
        assert len(pairs) == 3
        for (_, x), (_, y) in pairs:
            assert x.guard is y.guard
        # The two spellings of `f.out == 2'd1 & !r.done` share one node.
        r_in, r_we = (assign.guard for _, assign in list(first.all_assignments())[:2])
        assert r_in.left is r_we.inner

    def test_ports_match_the_recursive_reference(self):
        rng = random.Random(7)
        for _ in range(300):
            guard = _random_guard(rng, 5)
            assert guard.ports() == tuple(_reference_ports(guard))
        a = self.a()
        shared = AndGuard(OrGuard(a, self.cmp()), OrGuard(a, self.cmp()))
        once = (a.port,) + self.cmp().ports()
        assert shared.ports() == once + once

    def test_size_counts_tree_nodes(self):
        a = self.a()
        s = OrGuard(a, NotGuard(a))
        assert AndGuard(s, s).size() == 5
        assert AndGuard(self.cmp(), NotGuard(self.cmp())).size() == 4

    def test_dropped_program_guards_are_collected(self):
        def unique_guard_ref():
            source = INTERN_SRC.replace("r.done | go", "r.done | zz_only.out")
            source = source.replace("f = std_reg(2);", "f = std_reg(2); zz_only = std_reg(1);")
            program = parse_program(source)
            guard = next(iter(program.main.all_assignments()))[1].guard
            assert "zz_only" in guard.to_string()
            return weakref.ref(guard)

        ref = unique_guard_ref()
        gc.collect()
        assert ref() is None


class TestFold:
    def port(self, name):
        return PortGuard(CellPort(name, "out"))

    def test_children(self):
        a, b = self.port("a"), self.port("b")
        cmp = CmpGuard("<", CellPort("a", "out"), ConstPort(2, 1))
        assert G_TRUE.children == a.children == cmp.children == ()
        assert NotGuard(a).children == (a,)
        assert AndGuard(a, b).children == (a, b)
        assert OrGuard(b, a).children == (b, a)

    def test_rebuild_keeps_unchanged_nodes(self):
        a, b = self.port("a"), self.port("b")
        g = AndGuard(a, NotGuard(b))
        assert g.rebuild(g.children) is g
        assert g.rebuild((b, a)) is AndGuard(b, a)
        assert NotGuard(a).rebuild((b,)) is NotGuard(b)
        assert a.rebuild(()) is a

    def test_shared_subguard_is_visited_once(self):
        shared = AndGuard(self.port("a"), NotGuard(self.port("b")))
        guard = shared
        for i in range(50):
            guard = OrGuard(guard, AndGuard(shared, self.port(f"p{i}")))
        visits = []

        def visit(node, children):
            visits.append(node)
            return len(visits)

        fold(guard, visit, {})
        assert visits.count(shared) == 1
        assert len(visits) == len(set(visits))

    def test_children_are_visited_before_parents(self):
        a, b, c = self.port("a"), self.port("b"), self.port("c")
        left = AndGuard(a, NotGuard(b))
        guard = OrGuard(left, AndGuard(c, left))
        order = []

        def visit(node, children):
            assert all(child in order for child in node.children)
            order.append(node)
            return node.to_string()

        assert fold(guard, visit, {}) == guard.to_string()
        assert order == [a, b, NotGuard(b), left, c, AndGuard(c, left), guard]

    def test_folded_children_follow_children_order(self):
        a, b = self.port("a"), self.port("b")
        seen = {}

        def visit(node, children):
            seen[node] = children
            return node

        fold(OrGuard(a, NotGuard(b)), visit, {})
        assert seen[OrGuard(a, NotGuard(b))] == (a, NotGuard(b))
        assert seen[NotGuard(b)] == (b,)
        assert seen[a] == ()

    def test_shared_memo_is_reused(self):
        a, b = self.port("a"), self.port("b")
        first = AndGuard(a, b)
        calls = []

        def visit(node, children):
            calls.append(node)
            return 1 + sum(children)

        memo = {}
        assert fold(first, visit, memo) == 3
        assert set(memo) == {a, b, first}
        calls.clear()
        assert fold(OrGuard(first, NotGuard(a)), visit, memo) == 6
        assert calls == [NotGuard(a), OrGuard(first, NotGuard(a))]

    @pytest.mark.parametrize("falsy", [False, 0, ()])
    def test_falsy_results_are_memoized(self, falsy):
        shared = NotGuard(self.port("a"))
        guard = AndGuard(shared, OrGuard(shared, shared))
        visits = []

        def visit(node, children):
            visits.append(node)
            return falsy

        memo = {}
        assert fold(guard, visit, memo) is falsy
        assert fold(guard, visit, memo) is falsy
        assert len(visits) == 4  # a, !a, !a | !a, the conjunction
        assert all(value is falsy for value in memo.values())

    def test_to_string_memo_renders_shared_nodes_once(self):
        shared = AndGuard(self.port("a"), self.port("b"))
        memo = {}
        assert OrGuard(shared, self.port("c")).to_string(memo) == "(a.out & b.out) | c.out"
        assert memo[shared] == "a.out & b.out"
        memo[shared] = "cached"
        assert NotGuard(shared).to_string(memo) == "!(cached)"
