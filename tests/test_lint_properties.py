"""Property-based tests tying guard simplification to the linter.

Two contracts, both checked by *exhaustive* truth tables over a small
port set (not sampled valuations):

* ``simplify_guard`` is truth-table-equivalent to its input;
* ``classify_guard`` verdicts are sound — a "tautology" evaluates true
  and a "contradiction" false under **every** concrete valuation — and
  stable under simplification.

``classify_guard`` evaluates all atom valuations at once as bitmasks;
``reference_classify`` is the one-valuation-at-a-time enumeration it
must agree with exactly, row by row, on guards wide enough to pass the
atom cap.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.ir.guards import (
    AndGuard,
    CmpGuard,
    G_TRUE,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
    TrueGuard,
)
from repro.ir.ports import CellPort, ConstPort
from repro.lint.rules_semantic import (
    MAX_GUARD_ATOMS,
    GuardLogic,
    _cmp_atom,
    _column,
    _truth_table,
    classify_guard,
)
from repro.passes.guard_simplify import simplify_guard
from repro.sim.model import eval_guard

_PORTS = [CellPort(name, "out") for name in ("a", "b", "c")]
_VALUES = (0, 1, 2)


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
        if draw(st.booleans()):
            right = draw(st.sampled_from([p for p in _PORTS if p != left]))
        else:
            right = ConstPort(8, draw(st.sampled_from(_VALUES)))
        return CmpGuard(op, left, right)
    left = draw(guards(depth + 1))
    right = draw(guards(depth + 1))
    return AndGuard(left, right) if kind == "and" else OrGuard(left, right)


_WIDE_PORTS = [CellPort(f"p{i}", "out") for i in range(12)]


@st.composite
def wide_guards(draw, depth=0) -> Guard:
    """Guards over 12 ports with n-ary and/or, so atom counts pass the cap."""
    kind = draw(
        st.sampled_from(["port", "cmp", "not", "and", "or"] if depth < 3 else ["port"])
    )
    if kind == "port":
        return PortGuard(draw(st.sampled_from(_WIDE_PORTS)))
    if kind == "cmp":
        op = draw(st.sampled_from(["==", "!=", "<", ">", "<=", ">="]))
        left = draw(st.sampled_from(_WIDE_PORTS))
        right = draw(st.sampled_from(_WIDE_PORTS + [ConstPort(8, 1), ConstPort(8, 2)]))
        return CmpGuard(op, left, right)
    if kind == "not":
        return NotGuard(draw(wide_guards(depth + 1)))
    parts = draw(st.lists(wide_guards(depth + 1), min_size=2, max_size=6))
    combine = AndGuard if kind == "and" else OrGuard
    guard = parts[0]
    for part in parts[1:]:
        guard = combine(guard, part)
    return guard


def _eval_guard(guard: Guard, env) -> bool:
    """The guard's value under one valuation of its canonical atoms."""
    if isinstance(guard, TrueGuard):
        return True
    if isinstance(guard, PortGuard):
        if isinstance(guard.port, ConstPort):
            return guard.port.value != 0
        return env[("port", guard.port.to_string())]
    if isinstance(guard, CmpGuard):
        atom, polarity, constant = _cmp_atom(guard)
        if atom is None:
            return bool(constant)
        return env[atom] if polarity else not env[atom]
    if isinstance(guard, NotGuard):
        return not _eval_guard(guard.inner, env)
    if isinstance(guard, AndGuard):
        return _eval_guard(guard.left, env) and _eval_guard(guard.right, env)
    return _eval_guard(guard.left, env) or _eval_guard(guard.right, env)


def reference_rows(guard: Guard, ordered):
    """The guard's value per valuation; atom ``k`` is bit ``k`` of the row."""
    return [
        _eval_guard(guard, {atom: bool(row >> k & 1) for k, atom in enumerate(ordered)})
        for row in range(1 << len(ordered))
    ]


def reference_classify(guard: Guard):
    """``classify_guard`` by evaluating the guard once per valuation."""
    if isinstance(guard, TrueGuard):
        return None
    atoms = GuardLogic().atoms(guard)
    if not atoms or len(atoms) > MAX_GUARD_ATOMS:
        return None
    rows = set(reference_rows(guard, sorted(atoms)))
    if rows == {True}:
        return "tautology"
    return "contradiction" if rows == {False} else None


def truth_table(guard: Guard):
    """Guard outcomes under every valuation of the three ports."""
    rows = []
    for values in itertools.product(_VALUES, repeat=len(_PORTS)):
        env = dict(zip(_PORTS, values))
        read = lambda ref: (
            ref.value if isinstance(ref, ConstPort) else env[ref]
        )
        rows.append(eval_guard(guard, read))
    return rows


@given(guards())
@settings(max_examples=300, deadline=None)
def test_simplify_guard_is_truth_table_equivalent(guard):
    assert truth_table(simplify_guard(guard)) == truth_table(guard)


@given(guards())
@settings(max_examples=300, deadline=None)
def test_classify_guard_verdicts_are_sound(guard):
    verdict = classify_guard(guard)
    if verdict is None:
        return
    rows = truth_table(guard)
    if verdict == "tautology":
        assert all(rows)
    else:
        assert verdict == "contradiction" and not any(rows)


@given(guards())
@settings(max_examples=300, deadline=None)
def test_classify_guard_is_stable_under_simplification(guard):
    before = classify_guard(guard)
    after = classify_guard(simplify_guard(guard))
    # Simplification may collapse a tautology to the (skipped) TrueGuard
    # or strip the atoms a verdict needs, but two definite verdicts must
    # never disagree: that would make the linter contradict the compiler.
    if before is not None and after is not None:
        assert before == after


@given(st.one_of(guards(), wide_guards()))
@settings(max_examples=300, deadline=None)
def test_classify_guard_matches_per_valuation_reference(guard):
    assert classify_guard(guard) == reference_classify(guard)
    atoms = GuardLogic().atoms(guard)
    if len(atoms) <= MAX_GUARD_ATOMS:
        # Every row of the bit-parallel table, not only the verdict.
        ordered = sorted(atoms)
        full = (1 << (1 << len(ordered))) - 1
        columns = {atom: _column(k, full) for k, atom in enumerate(ordered)}
        table = _truth_table(guard, columns, full)
        rows = [bool(table >> row & 1) for row in range(1 << len(ordered))]
        assert rows == reference_rows(guard, ordered)


def _conjunction(parts):
    guard = parts[0]
    for part in parts[1:]:
        guard = AndGuard(guard, part)
    return guard


def _disjunction(parts):
    guard = parts[0]
    for part in parts[1:]:
        guard = OrGuard(guard, part)
    return guard


def test_atom_cap_boundary():
    ports = [PortGuard(p) for p in _WIDE_PORTS]
    # Contingent, with its only true row last: the enumeration's worst case.
    ten = _conjunction(ports[:10])
    assert classify_guard(ten) is None
    assert reference_classify(ten) is None
    # Ten atoms at the cap: still classified.
    tautology = OrGuard(ten, NotGuard(ten))
    assert classify_guard(tautology) == "tautology"
    assert reference_classify(tautology) == "tautology"
    contradiction = AndGuard(ten, NotGuard(_disjunction(ports[:10])))
    assert classify_guard(contradiction) == "contradiction"
    # Eleven atoms: skipped even though the guard is a tautology.
    eleven = _disjunction(ports[:11] + [NotGuard(ports[0])])
    assert classify_guard(eleven) is None
    assert reference_classify(eleven) is None


def test_known_verdicts():
    a = PortGuard(_PORTS[0])
    assert classify_guard(OrGuard(a, NotGuard(a))) == "tautology"
    assert classify_guard(AndGuard(a, NotGuard(a))) == "contradiction"
    assert classify_guard(a) is None
    # Complementary comparison spellings share one atom:
    lt = CmpGuard("<", _PORTS[0], _PORTS[1])
    ge = CmpGuard(">=", _PORTS[0], _PORTS[1])
    assert classify_guard(OrGuard(lt, ge)) == "tautology"
    assert classify_guard(AndGuard(lt, ge)) == "contradiction"


@st.composite
def conjunctions(draw) -> Guard:
    """Conjunctions of literals: leaves (constants among them) and negated
    leaves over a pool small enough that an atom recurs, with either
    polarity and in either comparison spelling, and sometimes wider than
    the atom cap."""
    pool = _WIDE_PORTS[: draw(st.sampled_from([2, 4, 12]))]

    def leaf(draw_one) -> Guard:
        kind = draw_one(st.sampled_from(["port", "cmp", "const-cmp", "const", "true"]))
        if kind == "port":
            return PortGuard(draw_one(st.sampled_from(pool)))
        if kind == "cmp":
            op = draw_one(st.sampled_from(["==", "!=", "<", ">", "<=", ">="]))
            left, right = draw_one(st.permutations(pool))[:2]
            return CmpGuard(op, left, right)
        if kind == "const-cmp":
            op = draw_one(st.sampled_from(["==", "!=", "<", ">", "<=", ">="]))
            return CmpGuard(op, ConstPort(2, draw_one(st.integers(0, 2))), ConstPort(2, 1))
        if kind == "const":
            return PortGuard(ConstPort(1, draw_one(st.integers(0, 1))))
        return G_TRUE

    parts = []
    for _ in range(draw(st.integers(1, 14))):
        part = leaf(draw)
        parts.append(NotGuard(part) if draw(st.booleans()) else part)
    return _conjunction(parts)


@given(conjunctions())
@settings(max_examples=400, deadline=None)
def test_conjunction_verdicts_match_the_per_valuation_reference(guard):
    """A conjunction of literals is classified by atom polarity, without a
    truth table; its verdict is the one the rows give."""
    assert classify_guard(guard) == reference_classify(guard)
