"""Batch driver: check, synthesize, verify upgrades, explain plans.

Exit codes: 0 clean, 1 violations or planning failures, 2 usage errors.
Diagnostics print one per line as `path:line:col: error: code: message`.
`main` returns the exit code; `run`, the process entry, ends the process.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .config import SearchConfig, config_from_tree, parse_precedence, read_utf8
from .diagnostics import Diagnostic, DiagnosticSink, E_PLAN
from .model import ClassModel, MethodSpec, Program
from .resolver import load_program

if TYPE_CHECKING:
    from .effects import QueryContext

# Every command imports the modules above, and the other layers only where
# it runs them: `effects` for the commands that walk bodies (all but
# `verify-upgrade`), `synth` for `synth` and `verify-upgrade`, `printer` for
# `synth` alone and `planner` for the commands that plan. Each cold process
# pays for the layers it runs. The wrappers below keep each entry point at
# one name here, where `bench/tracing.py` wraps it.


def check_program(program: Program):
    """`effects.check_program`, with the checker imported on the first call."""
    from .effects import check_program
    return check_program(program)


def query_contexts(program: Program, unit: ClassModel, method: MethodSpec):
    """`effects.query_contexts`, with the checker imported on the first call."""
    from .effects import query_contexts
    return query_contexts(program, unit, method)


def plan_query(program: Program, ctx: QueryContext, cfg: SearchConfig):
    """`planner.plan_query`, with the planner imported on the first call."""
    from .planner import plan_query
    return plan_query(program, ctx, cfg)


def _read_source(path: Path) -> tuple[str, str]:
    return str(path), read_utf8(path)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise ValueError(f"{path}: cannot write: {e.strerror}") from None


def _unwritable_stdout(e: OSError) -> ValueError:
    return ValueError(f"<stdout>: cannot write: {e.strerror}")


def _print(text: str) -> None:
    """Print a line of a command's output. A stdout that cannot be written
    is a usage error, as an output file is in `_write`."""
    try:
        print(text)
    except OSError as e:
        raise _unwritable_stdout(e) from None


def _find_sources(top: str) -> list[Path]:
    """The `.pop` files under directory `top`, in `Path` order: by path
    component, so that `a/x.pop` comes before `a-b/x.pop`. A link to a file
    counts; a linked directory is not entered."""
    found: list[Path] = []
    pending = [top]
    while pending:
        d = pending.pop()
        try:
            with os.scandir(d) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(entry.path)
                    elif entry.name.endswith(".pop") and entry.is_file():
                        found.append(Path(entry.path))
        except OSError as e:
            raise ValueError(f"{Path(d)}: cannot read: {e.strerror}") from None
    return sorted(found)


def _collect_sources(paths: list[str]) -> list[tuple[str, str]]:
    sources = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            sources.extend(_read_source(f) for f in _find_sources(raw))
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
        _print(program.diagnostics.render())
        return 1
    violations = check_program(program)
    sink = DiagnosticSink()
    for v in violations:
        path = program.unit_paths.get(v.unit, "<unknown>")
        sink.error(path, v.pos.line, v.pos.col, v.code, v.text())
    if sink.items:
        _print(sink.render())
        return 1
    return 0


def _query_id(program: Program, ctx: QueryContext) -> str:
    path = program.unit_paths.get(ctx.unit, ctx.unit)
    return f"{path}:{ctx.pos.line}"


def _id_matches(qid: str, wanted: str) -> bool:
    """Whether `wanted` names the query `qid`: the whole id, or its line
    with the trailing components of its path."""
    if qid == wanted:
        return True
    path, _, line = qid.rpartition(":")
    wanted_path, _, wanted_line = wanted.rpartition(":")
    parts, wanted_parts = Path(path).parts, Path(wanted_path).parts
    return bool(wanted_parts) and line == wanted_line and \
        parts[len(parts) - len(wanted_parts):] == wanted_parts


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
            if ctx.error is not None:
                v = ctx.error
                failures.append(Diagnostic(path, v.pos.line, v.pos.col, v.code, v.text()))
                continue
            try:
                result = plan_query(program, ctx, cfg)
            except PlanFailure as e:
                failures.append(Diagnostic(path, ctx.pos.line, ctx.pos.col, E_PLAN,
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
        _print(program.diagnostics.render())
        return 1
    solutions, per_path, failures = _solve_tree(program, cfg)
    if failures:
        sink = DiagnosticSink(failures)
        _print(sink.render())
        return 1
    spliced = synth.splice_program(program, solutions)
    plain = synth.render_plain(spliced)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:  # a file is in the way
        raise ValueError(f"{out_dir}: cannot make the output directory: {e.strerror}") from None
    corpus = synth.fingerprint_sources(sources)
    outputs = [(out_dir / (Path(path).stem + ".pop"), text)
               for path, text in sorted(plain.items())]
    for path in sorted(per_path):
        items = [synth.emit_assumptions(result, _query_id(program, ctx), corpus, program)
                 for ctx, result in per_path[path]]
        outputs.append((out_dir / (Path(path).stem + ".assume"),
                        synth.serialize_assumptions(items)))
    for target, _ in outputs:  # nothing is written when one cannot be
        if target.is_dir():
            raise ValueError(f"{target}: cannot write: Is a directory")
    for target, text in outputs:
        _write(target, text)
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
        _print(program.diagnostics.render())
        return 1
    texts = [_read_source(f) for f in sorted(assume_dir.glob("*.assume")) if f.is_file()]
    try:
        files = [synth.parse_assumptions(text, path) for path, text in texts]
    except synth.MalformedAssumptions as e:
        _print(e.diagnostic.render())
        return 1
    failed = False
    for queries in files:
        for assumed in queries:
            problems = synth.check_compat(assumed, program)
            if not problems:
                _print(f"ok {assumed.query_id}")
            else:
                failed = True
                for p in problems:
                    _print(f"incompatible {assumed.query_id}: {p.member}: "
                           f"{p.rule}: {p.message}")
    return 1 if failed else 0


def cmd_explain(args) -> int:
    from .planner import PlanFailure, render_dot, render_plan  # before loading, as in cmd_synth
    sources = _collect_sources(args.paths)
    cfg = _config(args, args.paths)
    program = load_program(sources)
    if program.diagnostics.has_errors:
        _print(program.diagnostics.render())
        return 1
    wanted = args.explain
    matches = [ctx for _, _, contexts in _all_query_contexts(program) for ctx in contexts
               if _id_matches(_query_id(program, ctx), wanted)]
    if not matches:
        print(f"no query matches id '{wanted}'", file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"query id '{wanted}' matches {len(matches)} queries: " +
              ", ".join(_query_id(program, ctx) for ctx in matches), file=sys.stderr)
        return 2
    target = matches[0]
    try:
        result = plan_query(program, target, cfg)
    except PlanFailure as e:
        path = program.unit_paths.get(target.unit, "<unknown>")
        _print(Diagnostic(path, target.pos.line, target.pos.col, E_PLAN,
                          f"{type(e).__name__}: {e.message}").render())
        if e.bound is not None:
            _print(f"lower bound: {e.bound}")
        _print(f"explored plans: {e.explored}\nrejected threats: {e.rejected_threats}")
        return 1
    _print(render_plan(result))
    if args.dot:
        _write(Path(args.dot), render_dot(result))
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


def run() -> None:
    """The process entry of `poplar` and of `python -m poplar.cli`: `main`,
    then flush the output and end the process without the interpreter's
    teardown, which would only free what the ending process holds. A stdout
    that cannot be written is exit 2 here too."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as e:
        if code != 2:  # else `main` has reported an error, this one perhaps
            print(f"error: {_unwritable_stdout(e)}", file=sys.stderr)
            code = 2
    try:
        sys.stderr.flush()
    except OSError:
        pass  # there is nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()
