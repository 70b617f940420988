"""Command-line driver (the artifact's ``futil``/``fud`` equivalent).

Subcommands::

    calyx-py compile  FILE [-p PIPELINE] [--emit {calyx,verilog}] [--timings]
    calyx-py run      FILE [-p PIPELINE] [--mem NAME=v1,v2,...] [--interpret]
    calyx-py lint     FILE... [-p PIPELINE] [--stages] [--format {text,json}]
    calyx-py resources FILE [-p PIPELINE]
    calyx-py difftest FILE [-p PIPELINE ...] [--mem NAME=v1,v2,...]
    calyx-py dahlia   FILE [--emit {calyx,verilog}] [-p PIPELINE]
    calyx-py systolic N [--emit {calyx,verilog}] [-p PIPELINE]
    calyx-py eval     {fig7,fig8,fig9,stats}

``FILE`` is Calyx surface syntax (``.futil``) except for ``dahlia``.
Toolchain failures print a one-line ``error: ...`` to stderr and exit 1;
pass ``--debug`` (before the subcommand) to get the full traceback.

``lint`` has stable exit codes: 0 when no error-severity diagnostics were
found (warnings allowed), 1 when at least one file has lint errors, and 2
when the toolchain itself failed (unreadable file, parse error, or a
pass crashing during ``--stages``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.backend import emit_verilog, estimate_resources
from repro.errors import CalyxError
from repro.frontends.dahlia import compile_dahlia
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program, print_program
from repro.passes import PIPELINES, make_pass_manager
from repro.sim import (
    DEFAULT_ENGINE,
    DEFAULT_MAX_CYCLES,
    ENGINES,
    ORACLE_ENGINE,
    run_program,
)


def _parse_mems(specs: List[str]) -> Dict[str, List[int]]:
    mems: Dict[str, List[int]] = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        if not sep or not name:
            raise CalyxError(
                f"malformed --mem spec {spec!r} (expected NAME=v1,v2,...)"
            )
        try:
            mems[name] = [int(v) for v in values.split(",") if v]
        except ValueError:
            raise CalyxError(
                f"malformed --mem spec {spec!r}: values must be integers"
            ) from None
    return mems


def _read_file(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise CalyxError(f"cannot read {path!r}: {exc.strerror}") from None


def _emit(program, fmt: str) -> str:
    if fmt == "verilog":
        return emit_verilog(program)
    return print_program(program)


def _compile(program, args) -> None:
    """Run the selected pipeline, honoring --checked/--keep-going/--timings."""
    manager = make_pass_manager(
        args.pipeline,
        checked=getattr(args, "checked", False),
        keep_going=getattr(args, "keep_going", False),
        lint=getattr(args, "lint", False),
    )
    manager.run(program)
    if getattr(args, "keep_going", False):
        degradations = getattr(manager, "degradations", [])
        if degradations:
            print(manager.degradation_report(), file=sys.stderr)
    if getattr(args, "timings", False):
        print(manager.timings_table(), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="calyx-py", description=__doc__)
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise toolchain errors with a full traceback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_pipeline=True):
        if with_pipeline:
            add_pipeline(p)
        p.add_argument(
            "--emit",
            default="calyx",
            choices=["calyx", "verilog"],
            help="output format",
        )

    def add_pipeline(p):
        p.add_argument(
            "-p",
            "--pipeline",
            default="all",
            choices=sorted(PIPELINES),
            help="pass pipeline to run",
        )

    def add_engine(p, default=DEFAULT_ENGINE):
        p.add_argument(
            "--engine",
            default=default,
            choices=sorted(ENGINES),
            help=f"simulation engine (default: {default or DEFAULT_ENGINE})",
        )

    def add_robustness(p):
        p.add_argument(
            "--timings",
            action="store_true",
            help="print per-pass wall-clock times to stderr",
        )
        p.add_argument(
            "--checked",
            action="store_true",
            help="re-validate the IR after every pass",
        )
        p.add_argument(
            "--keep-going",
            action="store_true",
            help="skip (and report) failing passes instead of aborting",
        )
        p.add_argument(
            "--lint",
            action="store_true",
            help="run the full lint rule set after every pass and fail on "
            "error-severity findings (implies a checked pass manager)",
        )

    p_compile = sub.add_parser("compile", help="compile a Calyx program")
    p_compile.add_argument("file")
    add_common(p_compile)
    add_robustness(p_compile)

    p_lint = sub.add_parser(
        "lint", help="run the static linter over one or more programs"
    )
    p_lint.add_argument("files", nargs="*", metavar="FILE")
    p_lint.add_argument(
        "-p",
        "--pipeline",
        default=None,
        choices=sorted(PIPELINES),
        help="compile with this pipeline before linting (default: lint "
        "the program as written)",
    )
    p_lint.add_argument(
        "--stages",
        action="store_true",
        help="with --pipeline: lint the program as parsed and again after "
        "every pass, reporting the stage that introduced each finding",
    )
    p_lint.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        dest="fmt",
        help="diagnostic output format",
    )
    p_lint.add_argument(
        "--core",
        action="store_true",
        help="run only the core well-formedness rules (what validation runs)",
    )
    p_lint.add_argument(
        "--rules",
        action="store_true",
        help="list every rule id with severity and description, then exit",
    )

    p_run = sub.add_parser("run", help="compile and simulate a Calyx program")
    p_run.add_argument("file")
    add_pipeline(p_run)
    p_run.add_argument("--interpret", action="store_true", help="run unlowered")
    p_run.add_argument("--mem", action="append", default=[], metavar="NAME=v1,v2")
    add_engine(p_run)
    add_robustness(p_run)

    p_res = sub.add_parser("resources", help="estimate resources")
    p_res.add_argument("file")
    add_pipeline(p_res)
    add_robustness(p_res)

    p_diff = sub.add_parser(
        "difftest",
        help="differential oracle: interpreted vs compiled execution",
    )
    p_diff.add_argument("file")
    p_diff.add_argument(
        "-p",
        "--pipeline",
        action="append",
        dest="pipelines",
        choices=[name for name in sorted(PIPELINES) if name != "validate"],
        help="pipeline(s) to test (default: every lowering pipeline)",
    )
    p_diff.add_argument("--mem", action="append", default=[], metavar="NAME=v1,v2")
    p_diff.add_argument(
        "--max-cycles",
        type=int,
        default=DEFAULT_MAX_CYCLES,
        help="cycle budget per execution",
    )
    add_engine(p_diff, default=ORACLE_ENGINE)

    p_dahlia = sub.add_parser("dahlia", help="compile a mini-Dahlia program")
    p_dahlia.add_argument("file")
    add_common(p_dahlia)

    p_sys = sub.add_parser("systolic", help="generate a systolic array")
    p_sys.add_argument("n", type=int)
    add_common(p_sys)

    p_eval = sub.add_parser("eval", help="regenerate a paper figure")
    p_eval.add_argument("figure", choices=["fig7", "fig8", "fig9", "stats"])
    # None until resolved in main(), so an --engine given to stats is seen.
    add_engine(p_eval, default=None)
    p_eval.add_argument(
        "--emit-json",
        metavar="FILE",
        default=None,
        help="also merge per-kernel simulation throughput (cycles/sec) "
        "into FILE, keyed by figure and engine (fig7/fig8 only)",
    )

    return parser


def _lint_stages(source: str, pipeline, stages: bool, core: bool):
    """Yield ``(stage_name, LintReport)`` for one file's lint run."""
    from repro.lint import lint_program
    from repro.passes.base import PassManager
    from repro.passes.pipeline import resolve_pipeline

    program = parse_program(source)
    if pipeline is None:
        yield "source", lint_program(program, core_only=core)
        return
    if not stages:
        make_pass_manager(pipeline).run(program)
        yield pipeline, lint_program(program, core_only=core)
        return
    yield "source", lint_program(program, core_only=core)
    for pass_name in resolve_pipeline(pipeline):
        PassManager([pass_name]).run(program)
        yield pass_name, lint_program(program, core_only=core)


def _lint_command(args) -> int:
    from repro.lint import rule_table

    if args.rules:
        rows = rule_table()
        width = max(len(r["id"]) for r in rows)
        for row in rows:
            core = " (core)" if row["core"] == "yes" else ""
            print(
                f"{row['id']:<{width}}  {row['severity']:<7}  "
                f"{row['description']}{core}"
            )
        return 0
    if not args.files:
        raise CalyxError("lint: no input files (or pass --rules)")

    any_errors = False
    toolchain_failed = False
    json_files = []
    for path in args.files:
        stage_reports = []
        try:
            source = _read_file(path)
            for stage, report in _lint_stages(
                source, args.pipeline, args.stages, args.core
            ):
                stage_reports.append((stage, report))
        except CalyxError as exc:
            if args.debug:
                raise
            toolchain_failed = True
            if args.fmt == "json":
                json_files.append({"file": path, "failure": str(exc)})
            else:
                print(f"{path}: toolchain failure: {exc}", file=sys.stderr)
            continue

        file_errors = sum(len(r.errors) for _, r in stage_reports)
        any_errors = any_errors or file_errors > 0
        if args.fmt == "json":
            json_files.append(
                {
                    "file": path,
                    "errors": file_errors,
                    "stages": [
                        {"stage": stage, **report.to_json()}
                        for stage, report in stage_reports
                    ],
                }
            )
        else:
            total = sum(len(r.diagnostics) for _, r in stage_reports)
            if total == 0:
                stages = len(stage_reports)
                suffix = f" across {stages} stages" if stages > 1 else ""
                print(f"== {path}: clean{suffix}")
            for stage, report in stage_reports:
                if not report.diagnostics:
                    continue  # clean stages already summarized above
                header = f"{path}" + (f" [{stage}]" if stage != "source" else "")
                print(f"== {header}: {report.summary()}")
                print(report.format_text())

    if args.fmt == "json":
        import json

        print(json.dumps({"files": json_files}, indent=2, sort_keys=True))
    if toolchain_failed:
        return 2
    return 1 if any_errors else 0


def _dispatch(args) -> int:
    if args.command == "compile":
        program = parse_program(_read_file(args.file))
        _compile(program, args)
        print(_emit(program, args.emit))
    elif args.command == "lint":
        return _lint_command(args)
    elif args.command == "run":
        program = parse_program(_read_file(args.file))
        if not args.interpret:
            _compile(program, args)
        result = run_program(
            program, memories=_parse_mems(args.mem), engine=args.engine
        )
        print(f"cycles: {result.cycles}")
        for name, values in sorted(result.memories.items()):
            print(f"{name} = {values}")
    elif args.command == "resources":
        program = parse_program(_read_file(args.file))
        _compile(program, args)
        print(estimate_resources(program))
    elif args.command == "difftest":
        from repro.robustness import difftest_program

        program = parse_program(_read_file(args.file))
        mems = _parse_mems(args.mem) or None
        report = difftest_program(
            program,
            memories=mems,
            pipelines=args.pipelines,
            name=args.file,
            max_cycles=args.max_cycles,
            engine=args.engine,
        )
        print(report.describe())
        return 0 if report.ok else 1
    elif args.command == "dahlia":
        design = compile_dahlia(_read_file(args.file))
        _compile(design.program, args)
        print(_emit(design.program, args.emit))
    elif args.command == "systolic":
        program = generate_systolic_array(SystolicConfig.square(args.n))
        _compile(program, args)
        print(_emit(program, args.emit))
    elif args.command == "eval":
        if args.figure in ("fig7", "fig8"):
            from repro.eval import fig7_systolic, fig8_polybench
            from repro.eval.common import write_throughput_json

            figure = fig7_systolic if args.figure == "fig7" else fig8_polybench
            rows = figure.run(engine=args.engine)
            print(figure.report(rows))
            if args.emit_json:
                write_throughput_json(
                    args.emit_json,
                    args.figure,
                    args.engine,
                    {r.label: r.metrics for r in rows},
                )
                print(f"wrote {args.emit_json}", file=sys.stderr)
        elif args.figure == "fig9":
            from repro.eval import fig9_opts

            fig9_opts.main(engine=args.engine)
        else:
            from repro.eval import table_stats

            table_stats.main()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        if args.emit_json and args.figure not in ("fig7", "fig8"):
            parser.error(f"--emit-json applies to fig7 and fig8, not {args.figure}")
        if args.engine and args.figure == "stats":
            parser.error("--engine applies to fig7, fig8 and fig9; stats does not simulate")
        args.engine = args.engine or DEFAULT_ENGINE
    try:
        return _dispatch(args)
    except CalyxError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
