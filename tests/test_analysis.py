"""Tests for the analysis package: the conflict graph, schedule conflicts,
coloring, pCFGs, read/write sets, and liveness."""

import gc
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.coloring import ConflictGraph, greedy_coloring
from repro.analysis.graph import cyclic_sccs, levelize, tarjan_scc
from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.pcfg import Pcfg, PcfgNode, build_pcfg
from repro.analysis.read_write import group_accesses, registers_of
from repro.analysis.schedule import parallel_conflicts
from repro.frontends.dahlia import compile_dahlia
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.ir.control import Enable, If, Invoke, Par, While
from repro.passes import PIPELINES, compile_program
from repro.workloads.polybench import ALL_KERNELS, get_kernel


def comp_of(control, groups_extra=""):
    src = f"""
component main(go: 1) -> (done: 1) {{
  cells {{
    r0 = std_reg(8); r1 = std_reg(8); r2 = std_reg(8);
    lt = std_lt(8);
  }}
  wires {{
    group a {{ r0.in = 8'd1; r0.write_en = 1; a[done] = r0.done; }}
    group b {{ r1.in = r0.out; r1.write_en = 1; b[done] = r1.done; }}
    group c {{ r2.in = r1.out; r2.write_en = 1; c[done] = r2.done; }}
    group cond {{ lt.left = r0.out; lt.right = 8'd5; cond[done] = 1'd1; }}
    {groups_extra}
  }}
  control {{ {control} }}
}}
"""
    return parse_program(src).main


def names_of(graph, mask):
    """Decode a mask into the graph's names, in graph order."""
    return [name for i, name in enumerate(graph.names) if mask >> i & 1]


def adjacency(graph):
    """The graph as ``{name: neighbour names}``, keyed by names with one."""
    adj = {}
    for name in graph.names:
        neighbours = graph.neighbours(name)
        if neighbours:
            adj[name] = set(names_of(graph, neighbours))
    return adj


def pairs_of(graph):
    """The graph's edges as unordered pairs."""
    return {
        frozenset((name, other))
        for name, others in adjacency(graph).items()
        for other in others
    }


class TestConflictGraph:
    def test_names_keep_their_order_and_bits(self):
        graph = ConflictGraph(["b", "a", "c"])
        assert graph.names == ["b", "a", "c"]
        assert [graph.bit[n] for n in graph.names] == [1, 2, 4]
        assert graph.mask(["c", "b"]) == 5

    def test_clique_excludes_own_bit(self):
        graph = ConflictGraph(["a", "b", "c"])
        graph.add_clique(graph.mask(["a", "b"]))
        assert graph.neighbours("a") == graph.bit["b"]
        assert graph.neighbours("b") == graph.bit["a"]
        assert graph.neighbours("c") == 0

    def test_repeated_clique_is_skipped(self):
        graph = ConflictGraph(["a", "b", "c"])
        clique = graph.mask(["a", "b", "c"])
        graph.add_clique(clique)
        graph._adj = [0, 0, 0]  # only a fresh clique may touch it now
        graph.add_clique(clique)
        assert pairs_of(graph) == set()
        graph.add_clique(graph.mask(["a", "b"]))
        assert pairs_of(graph) == {frozenset("ab")}

    def test_conflicts_need_both_sides(self):
        graph = ConflictGraph(["a", "b"])
        graph.add_conflicts(graph.mask(["a", "b"]), 0)
        graph.add_conflicts(0, graph.mask(["a"]))
        assert pairs_of(graph) == set()
        graph.add_conflicts(graph.bit["a"], graph.mask(["a", "b"]))
        assert pairs_of(graph) == {frozenset("ab")}


class TestScheduleConflicts:
    def test_seq_has_no_conflicts(self):
        assert pairs_of(parallel_conflicts(comp_of("seq { a; b; c; }"))) == set()

    def test_par_children_conflict(self):
        conflicts = pairs_of(parallel_conflicts(comp_of("par { a; b; }")))
        assert frozenset(("a", "b")) in conflicts

    def test_nested_groups_conflict_across_arms(self):
        conflicts = pairs_of(parallel_conflicts(comp_of("par { seq { a; b; } c; }")))
        assert frozenset(("a", "c")) in conflicts
        assert frozenset(("b", "c")) in conflicts
        assert frozenset(("a", "b")) not in conflicts

    def test_cond_groups_conflict_when_parallel(self):
        conflicts = pairs_of(
            parallel_conflicts(comp_of("par { while lt.out with cond { a; } b; }"))
        )
        assert frozenset(("cond", "b")) in conflicts

    def test_conflict_map_is_symmetric(self):
        adj = adjacency(parallel_conflicts(comp_of("par { a; b; c; }")))
        assert adj
        for node, neighbors in adj.items():
            assert node not in neighbors
            for other in neighbors:
                assert node in adj[other]

    def test_invokes_are_vertices(self):
        comp = comp_of("seq { par { invoke r0(in=8'd1)(); a; } invoke r0(in=8'd2)(); }")
        graph = parallel_conflicts(comp)
        first, second = [n for n in comp.control.walk() if isinstance(n, Invoke)]
        assert pairs_of(graph) == {frozenset((first, "a"))}
        assert second in graph.bit

    def test_undefined_group_does_not_raise(self):
        graph = parallel_conflicts(comp_of("par { a; ghost; }"))
        assert graph.names[-1] == "ghost"
        assert pairs_of(graph) == {frozenset(("a", "ghost"))}


def reference_greedy_coloring(nodes, conflicts):
    """Greedy coloring over adjacency sets, one forbidden set per node."""
    color_of = {}
    representatives = []
    for node in nodes:
        forbidden = {
            color_of[neighbor]
            for neighbor in conflicts.get(node, ())
            if neighbor in color_of
        }
        chosen = None
        for candidate in representatives:
            if candidate not in forbidden:
                chosen = candidate
                break
        if chosen is None:
            chosen = node
            representatives.append(node)
        color_of[node] = chosen
    return color_of


def graph_of(nodes, edges):
    graph = ConflictGraph(nodes)
    for u, v in edges:
        graph.add_conflicts(graph.bit[u], graph.bit[v])
    return graph


class TestGreedyColoring:
    def test_no_conflicts_one_color(self):
        colors = greedy_coloring(graph_of("abc", []), "abc")
        assert set(colors.values()) == {"a"}

    def test_clique_gets_distinct_colors(self):
        graph = ConflictGraph("abc")
        graph.add_clique(graph.mask("abc"))
        colors = greedy_coloring(graph, "abc")
        assert len(set(colors.values())) == 3

    def test_representatives_map_to_themselves(self):
        colors = greedy_coloring(graph_of("abc", ["ab"]), "abc")
        for rep in set(colors.values()):
            assert colors[rep] == rep

    def test_only_ordered_names_are_colored(self):
        # b conflicts with a and c, but is not in the order: a and c share.
        colors = greedy_coloring(graph_of("abc", ["ab", "bc"]), "ca")
        assert colors == {"c": "c", "a": "c"}

    @given(
        st.integers(min_value=1, max_value=8),
        st.sets(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=16,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_coloring_property(self, n, edge_set):
        nodes = list(range(n))
        edges = [(u, v) for u, v in edge_set if u < n and v < n]
        graph = graph_of(nodes, edges)
        colors = greedy_coloring(graph, nodes)
        # Property 1: adjacent nodes get different representatives.
        for u, v in edges:
            assert colors[u] != colors[v]
        # Property 2: representative map is idempotent.
        for node, rep in colors.items():
            assert colors[rep] == rep

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_reference(self, data):
        # The goldens depend on the exact coloring: same map as the
        # adjacency-set greedy, on any graph and any order of any subset.
        n = data.draw(st.integers(min_value=1, max_value=12))
        names = [f"n{i}" for i in range(n)]
        edges = data.draw(
            st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)))
        )
        order = data.draw(st.permutations(names))
        order = order[: data.draw(st.integers(min_value=0, max_value=n))]
        graph = graph_of(names, edges)
        conflicts = {}
        for u, v in edges:
            if u != v:
                conflicts.setdefault(u, set()).add(v)
                conflicts.setdefault(v, set()).add(u)
        assert greedy_coloring(graph, order) == reference_greedy_coloring(
            order, conflicts
        )


class TestPcfg:
    def test_seq_is_a_chain(self):
        graph = build_pcfg(comp_of("seq { a; b; c; }"))
        names = [n.group for n in graph.nodes if n.kind == "group"]
        assert names == ["a", "b", "c"]

    def test_par_makes_pnode(self):
        graph = build_pcfg(comp_of("par { a; b; }"))
        pnodes = [n for n in graph.nodes if n.kind == "par"]
        assert len(pnodes) == 1
        assert len(pnodes[0].children) == 2

    def test_while_has_back_edge(self):
        graph = build_pcfg(comp_of("while lt.out with cond { a; }"))
        cond = next(n for n in graph.nodes if n.group == "cond")
        body = next(n for n in graph.nodes if n.group == "a")
        assert cond in graph.succs[body.id]  # back edge
        assert body in graph.succs[cond.id]
        assert graph.preds[cond.id].count(body) == 1

    def test_if_diamond(self):
        graph = build_pcfg(comp_of("if lt.out with cond { a; } else { b; }"))
        cond = next(n for n in graph.nodes if n.group == "cond")
        assert len(graph.succs[cond.id]) == 2

    def test_walk_recurses_into_pnodes(self):
        graph = build_pcfg(comp_of("par { seq { a; b; } c; }"))
        names = {n.group for n in graph.walk() if n.kind == "group"}
        assert names == {"a", "b", "c"}

    def test_a_compile_is_freed_by_refcount(self):
        """No pCFG, nor anything else of a compile, waits for the cyclic
        collector: register sharing's graphs hold their edges by id."""
        program = generate_systolic_array(SystolicConfig.square(4))
        enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            compile_program(program, "all")
            gc.collect()
            leaked = gc.garbage[kept:]
            graphs = [obj for obj in leaked if isinstance(obj, (Pcfg, PcfgNode))]
            kinds = sorted({type(obj).__name__ for obj in leaked})
        finally:
            del gc.garbage[kept:]
            gc.set_debug(flags)
            if enabled:
                gc.enable()
        assert graphs == []
        assert kinds == []


@st.composite
def digraphs(draw):
    """Adjacency lists of up to 60 vertices: forward edges, so a DAG, plus
    sometimes back edges and self-loops, which close SCCs. Duplicates
    are kept."""
    n = draw(st.integers(0, 60))
    adj = [[] for _ in range(n)]
    if n:
        vertex = st.integers(0, n - 1)
        forward = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]).map(sorted)
        for u, v in draw(st.lists(forward, max_size=3 * n)):
            adj[u].append(v)
        back = draw(st.sampled_from([0, 0, 1, 3, 10]))
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=back)):
            adj[max(u, v)].append(min(u, v))
    return adj


def _tarjan_levels(adj):
    """The reference: Tarjan's SCCs, then each one's longest-path level."""
    scc_of, sccs = tarjan_scc(adj)
    levels = [0] * len(sccs)
    for scc in range(len(sccs) - 1, -1, -1):
        for member in sccs[scc]:
            for succ in adj[member]:
                if scc_of[succ] != scc:
                    levels[scc_of[succ]] = max(levels[scc_of[succ]], levels[scc] + 1)
    return scc_of, sccs, cyclic_sccs(adj, scc_of, sccs), levels


class TestLevelize:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_matches_tarjan_and_the_level_walk(self, adj):
        rank_of, heads, cycles, levels = levelize(adj)
        ref_of, ref_sccs, ref_cyclic, ref_levels = _tarjan_levels(adj)
        members = [[] for _ in heads]
        for v, rank in enumerate(rank_of):
            members[rank].append(v)
        assert sorted(members) == sorted(ref_sccs)
        assert heads == [m[0] for m in members]
        # The cyclic components, in Tarjan's emission order.
        assert list(cycles.values()) == [m for m, c in zip(ref_sccs, ref_cyclic) if c]
        for v in range(len(adj)):
            assert members[rank_of[v]] == ref_sccs[ref_of[v]]
            assert (rank_of[v] in cycles) == ref_cyclic[ref_of[v]]
            assert levels[rank_of[v]] == ref_levels[ref_of[v]]
        assert levels == sorted(levels)
        for u, successors in enumerate(adj):
            for v in successors:
                if rank_of[u] != rank_of[v]:
                    assert levels[rank_of[u]] < levels[rank_of[v]]
        if not cycles:
            # Proven acyclic by the peel: each level in vertex order.
            assert heads == sorted(heads, key=lambda v: (levels[rank_of[v]], v))

    def test_a_cycle_falls_back_to_the_condensation(self):
        adj = [[1], [2], [1, 3], [3]]
        assert levelize(adj) == ([0, 1, 1, 2], [0, 1, 3], {1: [1, 2], 2: [3]}, [0, 1, 2])


class TestReadWriteSets:
    def test_reads_and_writes(self):
        comp = comp_of("seq { a; b; }")
        regs = registers_of(comp)
        sets = group_accesses(comp, comp.get_group("b"), regs)
        assert sets.reads == {"r0"}
        assert sets.must_writes == {"r1"}

    def test_guarded_write_is_not_must(self):
        comp = comp_of(
            "seq { a; g; }",
            groups_extra="""
    group g {
      r2.in = lt.out ? 8'd1;
      r2.write_en = lt.out ? 1;
      g[done] = r2.done;
    }
""",
        )
        regs = registers_of(comp)
        sets = group_accesses(comp, comp.get_group("g"), regs)
        assert "r2" in sets.may_writes
        assert "r2" not in sets.must_writes

    def test_guard_reads_counted(self):
        comp = comp_of(
            "seq { a; g; }",
            groups_extra="""
    group g {
      r2.in = 8'd1;
      r2.write_en = 1;
      g[done] = r2.done;
      r2.in = r0.out == 8'd1 ? 8'd2;
    }
""",
        )
        regs = registers_of(comp)
        sets = group_accesses(comp, comp.get_group("g"), regs)
        assert "r0" in sets.reads


class TestLiveness:
    def test_chain_liveness(self):
        comp = comp_of("seq { a; b; c; }")
        analysis = LivenessAnalysis(comp)
        graph = analysis.graph
        node_b = next(n for n in graph.nodes if n.group == "b")
        r0 = analysis.conflicts.bit["r0"]
        # r0 is live into b (read there), dead after.
        assert analysis.live_in[node_b.id] & r0
        assert not analysis.live_out.get(node_b.id, 0) & r0

    def test_loop_keeps_register_alive(self):
        comp = comp_of("while lt.out with cond { seq { a; b; } }")
        analysis = LivenessAnalysis(comp)
        # r0 is read by cond every iteration: live around the loop.
        node_b = next(n for n in analysis.graph.nodes if n.group == "b")
        assert analysis.live_out[node_b.id] & analysis.conflicts.bit["r0"]

    def test_parallel_arms_conflict(self):
        comp = comp_of("seq { par { a; b; } c; }")
        analysis = LivenessAnalysis(comp)
        graph = analysis.conflicts
        # a writes r0, b reads r0 in a sibling arm: cross-arm conflict.
        assert graph.neighbours("r0") & graph.bit["r1"]

    def test_pinned_registers_excluded(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r0 = std_reg(1); r1 = std_reg(1); }
  wires {
    done = r0.out;
    group g { r1.in = 1'd1; r1.write_en = 1; g[done] = r1.done; }
  }
  control { g; }
}
"""
        comp = parse_program(src).main
        analysis = LivenessAnalysis(comp)
        assert "r0" in analysis.pinned
        assert "r1" not in analysis.pinned

    def test_loop_in_par_arm_converges(self):
        # r0 is written by w0 and read only by the outer loop's condition
        # c0, so it is live throughout that loop, including across b's
        # write of r3 two levels down. The inner loop only settles after
        # several sweeps of the par arm; stopping early loses r0-r3.
        src = """
component main(go: 1) -> (done: 1) {
  cells {
    r0 = std_reg(8); r1 = std_reg(8); r2 = std_reg(8); r3 = std_reg(8);
    lt0 = std_lt(8); lt1 = std_lt(8);
  }
  wires {
    group w0 { r0.in = 8'd1; r0.write_en = 1; w0[done] = r0.done; }
    group c0 { lt0.left = r0.out; lt0.right = 8'd5; c0[done] = 1'd1; }
    group a { r1.in = 8'd1; r1.write_en = 1; a[done] = r1.done; }
    group c1 { lt1.left = r1.out; lt1.right = 8'd5; c1[done] = 1'd1; }
    group b { r3.in = 8'd1; r3.write_en = 1; b[done] = r3.done; }
    group d { r1.in = r3.out; r1.write_en = 1; d[done] = r1.done; }
    group e { r2.in = 8'd1; r2.write_en = 1; e[done] = r2.done; }
  }
  control {
    seq {
      w0;
      par {
        while lt0.out with c0 { seq { a; while lt1.out with c1 { seq { b; d; } } } }
        e;
      }
    }
  }
}
"""
        program = parse_program(src)
        graph = LivenessAnalysis(program.main).conflicts
        assert graph.neighbours("r0") & graph.bit["r3"]
        compile_program(program, passes=["well-formed", "register-sharing"])
        # Merging r3 into r0 would make b clobber the outer loop's bound.
        b = program.main.get_group("b")
        assert "r0.in" not in {assign.dst.to_string() for assign in b.assignments}


def reference_conflicts(analysis):
    """Pairwise interference over the analysis's live sets, one pair at a time."""
    pairs = set()

    def add(a, b):
        if a != b:
            pairs.add(frozenset((a, b)))

    graph = analysis.conflicts
    for node in analysis.graph.walk():
        sets = analysis.accesses(node)
        for written in sets.may_writes:
            for other in names_of(graph, analysis.live_out.get(node.id, 0)):
                add(written, other)
        live = names_of(graph, analysis.live_in.get(node.id, 0))
        for i, a in enumerate(live):
            for b in live[i + 1 :]:
                add(a, b)
        if node.kind == "par":
            arms = []
            for child in node.children:
                accessed, written = set(), set()
                for inner in child.walk():
                    accessed |= analysis.accesses(inner).accessed()
                    written |= analysis.accesses(inner).may_writes
                arms.append((accessed, written))
            for i, (_, written) in enumerate(arms):
                for j, (accessed, _) in enumerate(arms):
                    if i != j:
                        for w in written:
                            for a in accessed:
                                add(w, a)
    adj = {}
    for pair in pairs:
        a, b = tuple(pair)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.futil"))
)


def _interference_corpus():
    for n in (2, 3, 4):
        yield f"systolic-{n}", lambda n=n: generate_systolic_array(
            SystolicConfig.square(n)
        )
    for name in ALL_KERNELS:
        kernel = get_kernel(name, 2)
        yield name, lambda s=kernel.source: compile_dahlia(s).program
        if kernel.unrollable:
            yield name + "-u", lambda s=kernel.unrolled_source: compile_dahlia(
                s
            ).program
    for path in EXAMPLES:
        yield os.path.basename(path), lambda p=path: parse_program(open(p).read())


_CORPUS = dict(_interference_corpus())
#: The ``all`` passes that run before register-sharing analyses the program.
_BEFORE_REGISTER_SHARING = PIPELINES["all"][: PIPELINES["all"].index("register-sharing")]


@pytest.mark.parametrize("design", sorted(_CORPUS))
def test_conflict_map_matches_pairwise_reference(design):
    program = _CORPUS[design]()
    compile_program(program, passes=_BEFORE_REGISTER_SHARING)
    for comp in program.components:
        analysis = LivenessAnalysis(comp)
        adj = adjacency(analysis.conflicts)
        assert adj == reference_conflicts(analysis)
        for reg, neighbors in adj.items():
            assert neighbors, reg
            assert reg not in neighbors
            for other in neighbors:
                assert reg in adj[other]


def reference_parallel_conflicts(comp):
    """Pairwise may-run-in-parallel relation, one vertex pair at a time."""

    def vertices_under(node):
        out = set()
        for sub in node.walk():
            if isinstance(sub, Enable):
                out.add(sub.group)
            elif isinstance(sub, (If, While)) and sub.cond_group is not None:
                out.add(sub.cond_group)
            elif isinstance(sub, Invoke):
                out.add(sub)
        return out

    pairs = set()
    for node in comp.control.walk():
        if isinstance(node, Par):
            arms = [vertices_under(child) for child in node.children()]
            for i, left in enumerate(arms):
                for right in arms[i + 1 :]:
                    pairs |= {frozenset((a, b)) for a in left for b in right if a != b}
    return pairs


#: The ``all`` passes that run before resource-sharing analyses the program.
_BEFORE_RESOURCE_SHARING = PIPELINES["all"][: PIPELINES["all"].index("resource-sharing")]


@pytest.mark.parametrize("design", sorted(_CORPUS))
def test_parallel_conflicts_match_pairwise_reference(design):
    program = _CORPUS[design]()
    compile_program(program, passes=_BEFORE_RESOURCE_SHARING)
    for comp in program.components:
        graph = parallel_conflicts(comp)
        assert pairs_of(graph) == reference_parallel_conflicts(comp)
        assert list(graph.names[: len(comp.groups)]) == list(comp.groups)
