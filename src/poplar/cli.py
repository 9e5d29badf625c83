"""Batch driver: check, synthesize, verify upgrades, explain plans.

Exit codes: 0 clean, 1 violations or planning failures, 2 usage errors.
Diagnostics print one per line as `path:line:col: severity: code: message`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .config import SearchConfig, config_from_tree, parse_precedence
from .diagnostics import Diagnostic, DiagnosticSink, E_PLAN
from .effects import QueryContext, check_program, query_contexts
from .model import Program
from .resolver import load_program

# `check` imports only the modules above. `synth` and `verify-upgrade` import
# `synth` when they run, only `synth` renders through `printer`, and only the
# commands that plan import `planner`: each cold process pays for the layers
# it runs.


def plan_query(program: Program, ctx: QueryContext, cfg: SearchConfig):
    """`planner.plan_query`, with the planner imported on the first call."""
    from .planner import plan_query
    return plan_query(program, ctx, cfg)


def _read_source(path: Path) -> tuple[str, str]:
    try:
        return str(path), path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8: byte 0x{e.object[e.start]:02x} "
                         f"at offset {e.start} ({e.reason})") from None


def _collect_sources(paths: list[str]) -> list[tuple[str, str]]:
    sources = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            sources.extend(_read_source(f) for f in sorted(p.rglob("*.pop")))
        elif p.is_file():
            sources.append(_read_source(p))
        else:
            raise FileNotFoundError(raw)
    if not sources:
        raise FileNotFoundError("no .pop sources found")
    return sources


def _tree_root(paths: list[str]) -> Path:
    first = Path(paths[0])
    return first if first.is_dir() else first.parent


def _config(args, paths: list[str]) -> SearchConfig:
    overrides: dict = {}
    if args.budget is not None:
        overrides["plan_budget"] = args.budget
    if args.max_len is not None:
        overrides["max_plan_length"] = args.max_len
    if args.rewrite_summaries:
        overrides["summary_rewrite_policy"] = "rewrite"
    if args.precedence:
        overrides["api_precedence"] = parse_precedence(args.precedence)
    return config_from_tree(_tree_root(paths), overrides)


def _all_query_contexts(program: Program):
    """(unit, method, context) triples in deterministic order."""
    for cname in sorted(program.units):
        unit = program.units[cname]
        for m in unit.methods:
            if m.body is None:
                continue
            contexts = query_contexts(program, unit, m)
            if contexts:
                yield unit, m, contexts


def cmd_check(args) -> int:
    sources = _collect_sources(args.paths)
    _config(args, args.paths)  # a malformed config fails here as in synth
    program = load_program(sources)
    if program.diagnostics.has_errors:
        print(program.diagnostics.render())
        return 1
    violations = check_program(program)
    sink = DiagnosticSink()
    for v in violations:
        path = program.unit_paths.get(v.unit, "<unknown>")
        sink.error(path, v.pos.line, v.pos.col, v.code, v.text())
    if sink.items:
        print(sink.render())
        return 1
    return 0


def _query_id(program: Program, ctx: QueryContext) -> str:
    path = program.unit_paths.get(ctx.unit, ctx.unit)
    return f"{path}:{ctx.pos.line}"


def _solve_tree(program: Program, cfg: SearchConfig):
    """Plan every query; returns (solutions by stmt id, assumptions, failures)."""
    from . import synth
    from .planner import PlanFailure
    solutions: dict[int, synth.Solution] = {}
    assumptions: dict[str, list] = {}
    failures: list[Diagnostic] = []
    for unit, method, contexts in _all_query_contexts(program):
        pool = synth.NamePool(synth.method_declared_names(method))
        for ctx in contexts:
            path = program.unit_paths.get(ctx.unit, "<unknown>")
            try:
                result = plan_query(program, ctx, cfg)
            except PlanFailure as e:
                failures.append(Diagnostic(path, ctx.pos.line, ctx.pos.col,
                                           "error", E_PLAN,
                                           f"{type(e).__name__}: {e.message}"))
                continue
            stmts = synth.emit_statements(result, pool, ctx.stmt.var, ctx.stmt.type)
            solutions[id(ctx.stmt)] = synth.Solution(result, stmts)
            assumptions.setdefault(path, []).append((ctx, result))
    return solutions, assumptions, failures


def cmd_synth(args) -> int:
    # The planner is imported before the program is loaded: compiled after
    # it, the planner's code would raise the process's peak memory.
    from . import planner, synth  # noqa: F401
    sources = _collect_sources(args.paths)
    cfg = _config(args, args.paths)
    program = load_program(sources)
    if program.diagnostics.has_errors:
        print(program.diagnostics.render())
        return 1
    solutions, per_path, failures = _solve_tree(program, cfg)
    if failures:
        sink = DiagnosticSink(failures)
        print(sink.render())
        return 1
    spliced = synth.splice_program(program, solutions)
    plain = synth.render_plain(spliced)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = synth.fingerprint_sources(sources)
    for path, text in sorted(plain.items()):
        (out_dir / (Path(path).stem + ".pop")).write_text(text)
    for path in sorted(per_path):
        items = []
        for ctx, result in per_path[path]:
            items.append(synth.emit_assumptions(result, _query_id(program, ctx),
                                                corpus, program))
        name = Path(path).stem + ".assume"
        (out_dir / name).write_text(synth.serialize_assumptions(items))
    return 0


def cmd_verify_upgrade(args) -> int:
    from . import synth
    assume_dir = Path(args.assumptions)
    if not assume_dir.is_dir():
        raise FileNotFoundError(args.assumptions)
    sources = _collect_sources(args.paths)
    _config(args, args.paths)  # a malformed config fails here as in synth
    program = load_program(sources)
    if program.diagnostics.has_errors:
        print(program.diagnostics.render())
        return 1
    try:
        files = [synth.parse_assumptions(f.read_text(), str(f))
                 for f in sorted(assume_dir.glob("*.assume"))]
    except synth.MalformedAssumptions as e:
        print(e.diagnostic.render())
        return 1
    failed = False
    for queries in files:
        for assumed in queries:
            problems = synth.check_compat(assumed, program)
            if not problems:
                print(f"ok {assumed.query_id}")
            else:
                failed = True
                for p in problems:
                    print(f"incompatible {assumed.query_id}: {p.member}: "
                          f"{p.rule}: {p.message}")
    return 1 if failed else 0


def cmd_explain(args) -> int:
    from .planner import PlanFailure, render_dot, render_plan  # before loading, as in cmd_synth
    sources = _collect_sources(args.paths)
    cfg = _config(args, args.paths)
    program = load_program(sources)
    if program.diagnostics.has_errors:
        print(program.diagnostics.render())
        return 1
    wanted = args.explain
    target: Optional[QueryContext] = None
    for unit, method, contexts in _all_query_contexts(program):
        for ctx in contexts:
            qid = _query_id(program, ctx)
            if qid == wanted or qid.endswith(wanted) or \
                    f"{Path(program.unit_paths.get(ctx.unit, '')).name}:{ctx.pos.line}" == wanted:
                target = ctx
                break
        if target:
            break
    if target is None:
        print(f"no query matches id '{wanted}'", file=sys.stderr)
        return 2
    try:
        result = plan_query(program, target, cfg)
    except PlanFailure as e:
        path = program.unit_paths.get(target.unit, "<unknown>")
        print(Diagnostic(path, target.pos.line, target.pos.col, "error",
                         E_PLAN, f"{type(e).__name__}: {e.message}").render())
        return 1
    print(render_plan(result))
    if args.dot:
        Path(args.dot).write_text(render_dot(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poplar",
        description="Check, synthesize and verify integration queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("paths", nargs="+", help="source files or directories")
        p.add_argument("--budget", type=int, default=None,
                       help="explored-plan budget")
        p.add_argument("--max-len", type=int, default=None,
                       help="maximum plan length")
        p.add_argument("--rewrite-summaries", action="store_true",
                       help="widen enclosing summaries instead of rejecting")
        p.add_argument("--precedence", action="append", default=[],
                       metavar="Type=N", help="API precedence (repeatable)")

    p_check = sub.add_parser("check", help="run all static checks")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_synth = sub.add_parser("synth", help="solve queries and emit plain sources")
    common(p_synth)
    p_synth.add_argument("--out", default="out", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_up = sub.add_parser("verify-upgrade",
                          help="check stored assumptions against new sources")
    p_up.add_argument("--assumptions", required=True,
                      help="directory holding .assume files")
    common(p_up)
    p_up.set_defaults(func=cmd_verify_upgrade)

    p_explain = sub.add_parser("explain", help="print the plan for one query")
    common(p_explain)
    p_explain.add_argument("--explain", required=True, metavar="FILE:LINE",
                           help="query id")
    p_explain.add_argument("--dot", default=None,
                           help="also write a graph description file")
    p_explain.set_defaults(func=cmd_explain)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: missing input: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
