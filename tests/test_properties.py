"""Cross-cutting property-based tests (hypothesis) on compiler invariants.

* guard simplification preserves semantics under random valuations,
* hole inlining (RemoveGroups) preserves program behavior — checked by
  comparing interpreted and fully lowered executions of randomly shaped
  control programs over randomly initialized memories,
* the sharing passes preserve behavior under random schedules.
"""

from hypothesis import given, settings, strategies as st

from repro.ir import parse_program
from repro.ir.guards import (
    AndGuard,
    CmpGuard,
    G_TRUE,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
)
from repro.ir.ports import CellPort, ConstPort
from repro.passes.guard_simplify import simplify_guard
from repro.robustness import difftest_program
from repro.sim.model import eval_guard

# ---------------------------------------------------------------------------
# Guard simplification preserves meaning.
# ---------------------------------------------------------------------------

_PORTS = [CellPort(name, "out") for name in ("a", "b", "c")]


@st.composite
def guards(draw, depth=0) -> Guard:
    if depth >= 3:
        return PortGuard(draw(st.sampled_from(_PORTS)))
    kind = draw(st.sampled_from(["port", "true", "not", "and", "or", "cmp"]))
    if kind == "port":
        return PortGuard(draw(st.sampled_from(_PORTS)))
    if kind == "true":
        return G_TRUE
    if kind == "not":
        return NotGuard(draw(guards(depth + 1)))
    if kind == "cmp":
        op = draw(st.sampled_from(["==", "!=", "<", ">", "<=", ">="]))
        left = draw(st.sampled_from(_PORTS))
        right = ConstPort(1, draw(st.integers(0, 1)))
        return CmpGuard(op, left, right)
    left = draw(guards(depth + 1))
    right = draw(guards(depth + 1))
    return AndGuard(left, right) if kind == "and" else OrGuard(left, right)


@given(
    guards(),
    st.dictionaries(st.sampled_from(_PORTS), st.integers(0, 1), min_size=3),
)
@settings(max_examples=150, deadline=None)
def test_simplify_guard_preserves_semantics(guard, valuation):
    for port in _PORTS:
        valuation.setdefault(port, 0)
    read = lambda ref: valuation.get(ref, ref.value if isinstance(ref, ConstPort) else 0)
    assert eval_guard(simplify_guard(guard), read) == eval_guard(guard, read)


@given(guards())
@settings(max_examples=100, deadline=None)
def test_simplify_never_grows(guard):
    assert simplify_guard(guard).size() <= guard.size()


# ---------------------------------------------------------------------------
# Compilation preserves behavior for randomly shaped schedules.
# ---------------------------------------------------------------------------


@st.composite
def random_schedule_program(draw):
    """A program moving values between four registers and a memory under a
    randomly shaped (but well-formed) schedule."""
    n_groups = 4
    groups = []
    for i in range(n_groups):
        target = i % 2
        if i < 2:
            # Memory-reading groups (never placed in parallel arms: they
            # would contend for the single address port).
            body = f"""
      mem.addr0 = 2'd{i};
      r{target}.in = mem.read_data;"""
        else:
            body = f"""
      r{target}.in = r{(i + 1) % 2}.out;"""
        groups.append(
            f"""
    group g{i} {{{body}
      r{target}.write_en = 1;
      g{i}[done] = r{target}.done;
    }}"""
        )
    store = """
    group st {
      mem.addr0 = 2'd3;
      mem.write_data = r0.out;
      mem.write_en = 1;
      st[done] = mem.done;
    }"""

    def control(depth: int, usable) -> str:
        kind = draw(
            st.sampled_from(
                ["enable", "enable", "seq", "seq"] + (["par"] if depth < 2 else [])
            )
        )
        if kind == "enable" or depth >= 3:
            return draw(st.sampled_from(usable)) + ";"
        if kind == "seq":
            k = draw(st.integers(1, 3))
            return "seq { " + " ".join(control(depth + 1, usable) for _ in range(k)) + " }"
        # par arms must not race: disjoint target registers, no shared
        # memory port (g2 writes r0 from r1; g3 writes r1 from r0 — a
        # read-read overlap on register outputs is safe).
        return (
            "par { "
            + control(depth + 1, ["g2"])
            + " "
            + control(depth + 1, ["g3"])
            + " }"
        )

    body = control(0, ["g0", "g1", "g2", "g3"])
    source = f"""
component main(go: 1) -> (done: 1) {{
  cells {{
    @external mem = std_mem_d1(8, 4, 2);
    r0 = std_reg(8);
    r1 = std_reg(8);
  }}
  wires {{
{"".join(groups)}
{store}
  }}
  control {{ seq {{ {body} st; }} }}
}}
"""
    return source


@given(
    random_schedule_program(),
    st.lists(st.integers(0, 255), min_size=4, max_size=4),
)
@settings(max_examples=15, deadline=None)
def test_lowering_preserves_behavior(source, data):
    report = difftest_program(
        parse_program(source), {"mem": list(data)}, ["lower"], engine="levelized"
    )
    assert report.ok, report.describe()


@given(
    random_schedule_program(),
    st.lists(st.integers(0, 255), min_size=4, max_size=4),
)
@settings(max_examples=10, deadline=None)
def test_optimizations_preserve_behavior(source, data):
    program = parse_program(source)
    report = difftest_program(
        program, {"mem": list(data)}, ["lower", "all"], engine="levelized"
    )
    assert report.ok, report.describe()
