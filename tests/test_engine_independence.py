"""The reference engine is independent of the flat engine, by its names.

``sim/reference.py`` is the oracle the differential tests hold the flat
engine against, so it must run none of the flat engine's code: it takes
only the template and node layer from ``sim/model.py``. A stdlib ``ast``
scan, in the style of ``tests/test_unused_imports.py``, checks that by the
names each part imports and reads:

* ``sim/reference.py`` names nothing of the flat engine: not its
  levelization, guard nodes, banks or their operator tables, not its
  schedule, drain or dirty mask, and not the stamping of blocks;
* the shared layer it runs (the template base, the scope, the engine base,
  the nets view, the guard compiler and the nodes' ``sweep`` methods)
  reads none of the flat engine's run-time names either;
* ``sim/model.py`` neither imports the reference nor names its operator
  table, ``_SLOT_GUARD_OPS``.

``tests/test_engine_equivalence.py`` checks the same independence by
behaviour: each engine still computes SUM_LOOP with the other's guard
operators forced true.
"""

import ast
import pathlib

import pytest

SIM = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "sim"

#: What the flat engine runs and the reference must not: levelization,
#: ranks and reader masks, the dirty-mask drain and cyclic SCCs, guard
#: nodes, banks and their operators, early cells and gated ticks.
FLAT_RUNTIME = {
    "levelize", "_schedule", "_drain", "_run_cyclic_scc", "_compile_guards", "_refresh",
    "_dirty", "_rank_of", "_rank_fire", "_reader_mask", "_writer", "_cyclic", "_early", "_gated",
    "_GuardNet", "_GuardNode", "_BankNode", "_GUARD_FNS", "_GUARD_NODE_OPS", "_GUARD_KINDS",
    "_MULTI_OUT", "_COMPARISONS", "_banked", "_cons", "guards", "fire", "readers", "set_readers",
}

#: The flat engine's classes and its stamping of blocks into one array.
FLAT_BUILD = {
    "ComponentInstance", "_FlatTemplate", "_stamp", "_shift", "shifted", "stamped", "blocks",
}

#: The parts of ``sim/model.py`` the reference runs: module-level names,
#: and ``Class.method`` for the nodes, whose ``fire`` is the flat engine's.
SHARED = [
    "eval_guard", "_comparison", "_operand", "_compile_slot_guard", "_gather", "_Template",
    "_SlotNets", "_Scope", "EngineInstance", "_ResolverNode.sweep", "_ResolverNode._conflict",
    "_ChildNode.sweep", "_DoneNode.sweep", "_ExecutorNode.sweep", "_ExecutorNode._write",
]


def _module(name):
    return ast.parse((SIM / name).read_text())


def names(tree):
    """Every name ``tree`` imports, reads or writes, attributes included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
            found.update(alias.asname for alias in node.names if alias.asname)
            if isinstance(node, ast.ImportFrom) and node.module:
                found.add(node.module)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _definition(tree, dotted):
    """The top-level function or class ``dotted`` names, or one method of a class."""
    node = tree
    for part in dotted.split("."):
        (node,) = [
            sub for sub in node.body
            if isinstance(sub, (ast.ClassDef, ast.FunctionDef)) and sub.name == part
        ]
    return node


def test_the_reference_names_nothing_of_the_flat_engine():
    used = names(_module("reference.py"))
    assert used & (FLAT_RUNTIME | FLAT_BUILD) == set()
    assert "repro.analysis.graph" not in used


@pytest.mark.parametrize("name", SHARED)
def test_the_shared_layer_reads_no_flat_runtime_name(name):
    assert names(_definition(_module("model.py"), name)) & FLAT_RUNTIME == set()


def test_the_flat_engine_does_not_reach_the_reference():
    used = names(_module("model.py"))
    assert "_SLOT_GUARD_OPS" not in used
    assert not any(name.startswith("repro.sim.reference") for name in used)


def test_the_scan_sees_through_imports_and_attributes():
    tree = ast.parse(
        "from repro.sim.model import _GuardNode as node\n"
        "import repro.analysis.graph\n"
        "def f(inst):\n"
        "    return inst._drain()\n"
    )
    assert {"_GuardNode", "node", "repro.sim.model", "repro.analysis.graph", "_drain"} <= (
        names(tree)
    )
    assert _definition(ast.parse("class A:\n    def f(self):\n        pass\n"), "A.f").name == "f"
