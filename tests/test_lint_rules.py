"""Unit tests for the lint rules: one minimal trigger per rule id.

Also pins the validator/linter contract (``validate_program`` raises each
rule's historical exception class) and the deliberate behavior changes
from consolidating ``ir/validate.py`` onto the lint framework:

* an *identical* duplicated connection is now a warning, not an error;
* conflicting unconditional drivers in the *continuous* scope are now an
  error (the old validator only checked within groups).
"""

import pytest

from repro.errors import (
    LintError,
    MultipleDriverError,
    UndefinedError,
    ValidationError,
    WidthError,
)
from repro.ir import parse_program
from repro.ir.validate import validate_program
from repro.lint import all_rules, exception_for, lint_program, rule_table


def lint(source):
    return lint_program(parse_program(source))


def error_ids(source):
    return {d.rule for d in lint(source).errors}


def warning_ids(source):
    return {d.rule for d in lint(source).warnings}


BASE = """
component main(go: 1) -> (done: 1) {{
  cells {{
    r = std_reg(32);
    lt = std_lt(32);
  }}
  wires {{
    {wires}
    group g {{
      {body}
      g[done] = r.done;
    }}
  }}
  control {{ {control} }}
}}
"""


def base(body="r.in = 32'd1; r.write_en = 1;", wires="", control="g;"):
    return BASE.format(body=body, wires=wires, control=control)


class TestCleanPrograms:
    def test_base_is_clean(self):
        report = lint(base())
        assert report.ok and not report.warnings

    def test_guarded_drivers_are_clean(self):
        src = base(
            body="r.in = lt.out ? 32'd1; r.in = !lt.out ? 32'd2; "
            "r.write_en = 1;"
        )
        assert lint(src).ok


class TestStructureRules:
    def test_duplicate_port(self):
        src = """
component main(go: 1, go: 1) -> (done: 1) {
  cells { }
  wires { }
  control { }
}
"""
        assert "duplicate-port" in error_ids(src)

    def test_unknown_cell_type(self):
        src = base().replace("std_lt(32)", "std_magic(32)")
        assert "unknown-name" in error_ids(src)

    def test_unknown_cell_reference(self):
        src = base(body="nope.in = 32'd1; r.write_en = 1;")
        assert "unknown-name" in error_ids(src)

    def test_unknown_port(self):
        src = base(body="r.bogus = 32'd1; r.write_en = 1;")
        assert "unknown-name" in error_ids(src)

    def test_unknown_group_in_control(self):
        src = base(control="seq { g; ghost; }")
        assert "unknown-name" in error_ids(src)

    def test_hole_of_undefined_group(self):
        src = base(body="r.in = 32'd1; r.write_en = ghost[done];")
        assert "unknown-name" in error_ids(src)

    def test_write_to_output_port(self):
        src = base(body="r.out = 32'd1; r.write_en = 1;")
        assert "port-direction" in error_ids(src)

    def test_read_from_input_port(self):
        src = base(body="r.in = lt.left; r.write_en = 1;")
        assert "port-direction" in error_ids(src)

    def test_width_mismatch(self):
        src = base(body="r.in = 8'd1; r.write_en = 1;")
        assert "width-mismatch" in error_ids(src)

    def test_wide_port_guard(self):
        src = base(body="r.in = r.out ? 32'd1; r.write_en = 1;")
        assert "guard-width" in error_ids(src)

    def test_comparison_width_mismatch(self):
        src = base(body="r.in = r.out == 8'd1 ? 32'd1; r.write_en = 1;")
        assert "guard-width" in error_ids(src)

    def test_conflicting_drivers_in_group(self):
        src = base(body="r.in = 32'd1; r.in = 32'd2; r.write_en = 1;")
        assert "multiple-drivers" in error_ids(src)

    def test_conflicting_continuous_drivers(self):
        # Regression for the validate.py consolidation: the old validator
        # only caught conflicts inside groups; the always-active scope is
        # just as much of a driver race.
        src = base(wires="lt.left = 32'd1; lt.left = 32'd2;")
        assert "multiple-drivers" in error_ids(src)
        with pytest.raises(MultipleDriverError):
            validate_program(parse_program(src))

    def test_identical_duplicate_is_only_a_warning(self):
        # Regression for the validate.py consolidation: a repeated
        # identical connection cannot disagree, so it no longer raises.
        src = base(body="r.in = 32'd1; r.in = 32'd1; r.write_en = 1;")
        validate_program(parse_program(src))
        report = lint(src)
        assert report.ok
        assert "duplicate-assignment" in {d.rule for d in report.warnings}

    def test_missing_done(self):
        src = base().replace("g[done] = r.done;", "")
        assert "missing-done" in error_ids(src)

    def test_comb_group_writes_hole(self):
        src = base(
            wires="comb group c { lt.left = 32'd1; c[done] = 1'd1; }",
            control="if lt.out with c { g; } else { g; }",
        )
        assert "comb-group-writes-hole" in error_ids(src)

    def test_continuous_hole(self):
        src = base(wires="lt.left = g[done];")
        assert "continuous-hole" in error_ids(src)

    def test_comb_group_enabled(self):
        src = base(
            wires="comb group c { lt.left = 32'd1; }",
            control="seq { g; c; }",
        )
        assert "comb-group-enabled" in error_ids(src)


INVOKE = """
component sub(go: 1, v: 32) -> (done: 1, r: 32) {{
  cells {{ q = std_reg(32); }}
  wires {{
    group c {{
      q.in = v; q.write_en = 1;
      c[done] = q.done;
    }}
    r = q.out;
  }}
  control {{ c; }}
}}
component main(go: 1) -> (done: 1) {{
  cells {{
    s = sub();
    a = std_add(32);
    x = std_reg(32);
  }}
  wires {{
    group g {{
      x.in = 32'd1; x.write_en = 1;
      g[done] = x.done;
    }}
  }}
  control {{ seq {{ {invoke} g; }} }}
}}
"""


class TestInvokeRules:
    def test_good_invoke_is_clean(self):
        assert lint(INVOKE.format(invoke="invoke s(v=32'd1)();")).ok

    def test_invoke_unknown_binding(self):
        src = INVOKE.format(invoke="invoke s(nope=32'd1)();")
        assert "invoke-binding" in error_ids(src)

    def test_invoke_non_invokable_cell(self):
        src = INVOKE.format(invoke="invoke a(left=32'd1)();")
        assert "invoke-binding" in error_ids(src)

    def test_invoke_binding_width_mismatch(self):
        src = INVOKE.format(invoke="invoke s(v=8'd1)();")
        assert "width-mismatch" in error_ids(src)


class TestSemanticRules:
    def test_guard_tautology(self):
        src = base(
            body="r.in = lt.out | !lt.out ? 32'd1; r.write_en = 1;"
        )
        assert "guard-tautology" in warning_ids(src)

    def test_guard_contradiction(self):
        src = base(
            body="r.in = lt.out & !lt.out ? 32'd1; r.write_en = 1;"
        )
        assert "guard-contradiction" in warning_ids(src)

    def test_wide_constant_guard_is_true_when_nonzero(self):
        # A constant guard is true when nonzero, as the simulator, the
        # guard netlist and Verilog read it, not when its low bit is set.
        anded = base(body="r.in = 2'd2 & lt.out ? 32'd1; r.write_en = 1;")
        assert "guard-contradiction" not in warning_ids(anded)
        ored = base(body="r.in = 2'd2 | lt.out ? 32'd1; r.write_en = 1;")
        assert "guard-tautology" in warning_ids(ored)

    def test_wide_constant_condition_takes_the_true_branch(self):
        report = lint(base(control="if 2'd2 { g; }"))
        messages = [
            d.message for d in report.warnings if d.rule == "unreachable-control"
        ]
        assert messages and "only the true branch" in messages[0]
        report = lint(base(control="while 2'd2 { g; }"))
        messages = [
            d.message for d in report.warnings if d.rule == "unreachable-control"
        ]
        assert messages and "loop never terminates" in messages[0]

    def test_plain_guard_is_not_flagged(self):
        src = base(body="r.in = lt.out ? 32'd1; r.write_en = 1;")
        report = lint(src)
        assert not {"guard-tautology", "guard-contradiction"} & {
            d.rule for d in report.warnings
        }

    def test_static_latency_mismatch(self):
        src = base().replace("group g {", 'group g<"static"=3> {')
        assert "static-latency-mismatch" in error_ids(src)

    def test_correct_static_claim_is_clean(self):
        src = base().replace("group g {", 'group g<"static"=1> {')
        assert lint(src).ok

    def test_never_enabled_group(self):
        src = base(
            wires="group dead { r.in = 32'd2; r.write_en = 1; "
            "dead[done] = r.done; }"
        )
        assert "never-enabled-group" in warning_ids(src)

    def test_repeat_zero(self):
        src = base(control="repeat 0 { g; }")
        assert "unreachable-control" in warning_ids(src)

    def test_dead_component(self):
        src = INVOKE.format(invoke="").replace("s = sub();", "")
        assert "dead-component" in warning_ids(src)


class TestCycleRules:
    def test_definite_continuous_cycle(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { n = std_not(1); }
  wires { n.in = n.out; }
  control { }
}
"""
        report = lint(src)
        assert "comb-cycle" in {d.rule for d in report.errors}

    def test_definite_cycle_inside_group(self):
        src = base(
            wires="group h { a.left = b.out; b.left = a.out; "
            "h[done] = 1'd1; }",
            control="seq { g; h; }",
        ).replace(
            "lt = std_lt(32);",
            "lt = std_lt(32); a = std_add(32); b = std_add(32);",
        )
        report = lint(src)
        diag = next(d for d in report.errors if d.rule == "comb-cycle")
        assert diag.group == "h"

    def test_cross_group_cycle_is_a_warning(self):
        src = base(
            wires=(
                "group h1 { a.left = b.out; r.in = 32'd1; r.write_en = 1; "
                "h1[done] = r.done; }\n"
                "group h2 { b.left = a.out; r.in = 32'd2; r.write_en = 1; "
                "h2[done] = r.done; }"
            ),
            control="seq { g; h1; h2; }",
        ).replace(
            "lt = std_lt(32);",
            "lt = std_lt(32); a = std_add(32); b = std_add(32);",
        )
        report = lint(src)
        assert report.ok  # never closes in a single scope: no error
        assert "comb-cycle-maybe" in {d.rule for d in report.warnings}


class TestValidatorContract:
    """validate_program raises each core rule's historical exception."""

    @pytest.mark.parametrize(
        "rule_id,exc",
        [
            ("unknown-name", UndefinedError),
            ("width-mismatch", WidthError),
            ("guard-width", WidthError),
            ("multiple-drivers", MultipleDriverError),
            ("missing-done", ValidationError),
            ("invoke-binding", ValidationError),
            ("comb-cycle", ValidationError),  # non-core: default class
        ],
    )
    def test_exception_mapping(self, rule_id, exc):
        assert exception_for(rule_id) is exc

    def test_every_rule_has_id_and_description(self):
        for rule in all_rules():
            assert type(rule).all_ids()
            assert rule.description

    def test_rule_table_lists_every_id(self):
        ids = {row["id"] for row in rule_table()}
        assert {"multiple-drivers", "comb-cycle", "comb-cycle-maybe"} <= ids

    def test_lint_error_carries_report(self):
        from repro.sim import run_program

        src = base(body="r.in = 32'd1; r.in = 32'd2; r.write_en = 1;")
        with pytest.raises(LintError) as info:
            run_program(parse_program(src), preflight=True)
        assert "multiple-drivers" in {d.rule for d in info.value.report}
