"""Batch driver: check, synthesize, verify upgrades, explain plans.

Exit codes: 0 clean, 1 violations or planning failures, 2 usage errors.
Diagnostics print one per line as `path:line:col: error: code: message`.
`main` returns the exit code; `run`, the process entry, ends the process.
"""

from __future__ import annotations

import gc
import os
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .config import SearchConfig, config_from_tree, parse_precedence, read_utf8, stat_mode
from .diagnostics import Diagnostic, DiagnosticSink, E_PLAN
from .model import ClassModel, MethodSpec, Program
from .resolver import load_program

if TYPE_CHECKING:
    import argparse

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


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
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


def _prefix(directory: str) -> str:
    """What `Path` puts before a name in `directory`, a path as `Path`
    spells it: nothing in `.`, else the path and one separator."""
    return "" if directory == "." else os.path.join(directory, "")


def _find_sources(top: str) -> list[str]:
    """The `.pop` files under directory `top`, named as `Path(top) / ...`
    names them and in `Path` order: by path component, so that `a/x.pop`
    comes before `a-b/x.pop`. A link to a file counts; a linked directory is
    not entered."""
    found: list[str] = []
    pending = [str(Path(top))]
    while pending:
        d = pending.pop()
        prefix = _prefix(d)
        try:
            with os.scandir(d) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(prefix + entry.name)
                    elif entry.name.endswith(".pop") and entry.is_file():
                        found.append(prefix + entry.name)
        except OSError as e:
            raise ValueError(f"{d}: cannot read: {e.strerror}") from None
    found.sort(key=lambda p: p.split(os.sep))
    return found


def _collect_sources(paths: list[str]) -> list[tuple[str, str]]:
    sources = []
    for raw in paths:
        name = str(Path(raw))  # the name as diagnostics and query ids give it
        mode = stat_mode(name)
        if stat.S_ISDIR(mode):
            sources.extend((f, read_utf8(f)) for f in _find_sources(name))
        elif stat.S_ISREG(mode):
            sources.append((name, read_utf8(name)))
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


def _file_id(st: os.stat_result) -> tuple[int, int]:
    return st.st_dev, st.st_ino


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
    except OSError as e:  # a file is in the way, or the parent cannot be written
        raise ValueError(f"{out_dir}: cannot make the output directory: {e.strerror}") from None
    corpus = synth.fingerprint_sources(sources)
    outputs = [(out_dir / (Path(path).stem + ".pop"), text)
               for path, text in sorted(plain.items())]
    for path in sorted(per_path):
        items = [synth.emit_assumptions(result, _query_id(program, ctx), corpus, program)
                 for ctx, result in per_path[path]]
        outputs.append((out_dir / (Path(path).stem + ".assume"),
                        synth.serialize_assumptions(items)))
    inputs = None  # each source's (device, inode), once a target exists
    for target, _ in outputs:  # nothing is written when one cannot be
        try:
            st = os.stat(target)
        except OSError:
            continue  # not there, or `_write` reports why not
        if stat.S_ISDIR(st.st_mode):
            raise ValueError(f"{target}: cannot write: Is a directory")
        if inputs is None:
            inputs = {_file_id(os.stat(path)): path for path, _ in sources}
        source = inputs.get(_file_id(st))
        if source is not None:
            raise ValueError(f"{target}: cannot write: it is the input {source}")
    for target, text in outputs:
        _write(target, text)
    return 0


def _list_assumptions(directory: str) -> list[str]:
    """The files named `*.assume` in `directory`, as
    `sorted(Path(directory).glob("*.assume"))` filtered by `is_file()` names
    and orders them: dot-files and links to files count, a directory or a
    broken link does not, and the suffix's case counts. A directory that
    cannot be listed is a ValueError naming it."""
    try:
        with os.scandir(directory) as entries:
            names = [e.name for e in entries if e.name.endswith(".assume") and e.is_file()]
    except OSError as e:
        raise ValueError(f"{directory}: cannot read: {e.strerror}") from None
    prefix = _prefix(directory)
    return [prefix + name for name in sorted(names)]


def cmd_verify_upgrade(args) -> int:
    from . import synth
    assume_dir = str(Path(args.assumptions))
    if not stat.S_ISDIR(stat_mode(assume_dir)):
        raise FileNotFoundError(args.assumptions)
    sources = _collect_sources(args.paths)
    _config(args, args.paths)  # a malformed config fails here as in synth
    program = load_program(sources)
    if program.diagnostics.has_errors:
        _print(program.diagnostics.render())
        return 1
    texts = [(f, read_utf8(f)) for f in _list_assumptions(assume_dir)]
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
        raise ValueError(f"no query matches id '{wanted}'")
    if len(matches) > 1:
        raise ValueError(f"query id '{wanted}' matches {len(matches)} queries: " +
                         ", ".join(_query_id(program, ctx) for ctx in matches))
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


class Option:
    """One option of a command: its flag, the attribute that holds it, and
    what `add_argument` takes. `kind` is `int` or `str` for an option with a
    value, "flag" for a switch and "append" for a repeatable value."""

    def __init__(self, flag: str, dest: str, kind, help: str, default=None,
                 required: bool = False, metavar: Optional[str] = None):
        self.flag, self.dest, self.kind, self.help = flag, dest, kind, help
        self.default, self.required, self.metavar = default, required, metavar


_COMMON = (
    Option("--budget", "budget", int, "explored-plan budget"),
    Option("--max-len", "max_len", int, "maximum plan length"),
    Option("--rewrite-summaries", "rewrite_summaries", "flag",
           "widen enclosing summaries instead of rejecting", default=False),
    Option("--precedence", "precedence", "append", "API precedence (repeatable)",
           default=[], metavar="Type=N"),
)

# Each command's help, its options in the order its help lists them, and
# the function that runs it. Every command also takes one or more `paths`.
# `build_parser` and `parse_plain` both read this table.
COMMANDS = {
    "check": ("run all static checks", _COMMON, cmd_check),
    "synth": ("solve queries and emit plain sources",
              _COMMON + (Option("--out", "out", str, "output directory", default="out"),),
              cmd_synth),
    "verify-upgrade": ("check stored assumptions against new sources",
                       (Option("--assumptions", "assumptions", str,
                               "directory holding .assume files", required=True),)
                       + _COMMON,
                       cmd_verify_upgrade),
    "explain": ("print the plan for one query",
                _COMMON + (Option("--explain", "explain", str, "query id", required=True,
                                  metavar="FILE:LINE"),
                           Option("--dot", "dot", str, "also write a graph description file")),
                cmd_explain),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: help, abbreviations, `--opt=value` forms and every
    usage error. `main` builds it only for an argv that `parse_plain`
    declines, since importing and building it takes a few ms a process."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="poplar",
        description="Check, synthesize and verify integration queries.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, func) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("paths", nargs="+", help="source files or directories")
        for o in options:
            if o.kind == "flag":
                p.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
            elif o.kind == "append":
                p.add_argument(o.flag, dest=o.dest, action="append", default=o.default,
                               metavar=o.metavar, help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, type=o.kind, default=o.default,
                               required=o.required, metavar=o.metavar, help=o.help)
        p.set_defaults(func=func)
    return parser


def parse_plain(argv: list[str]) -> Optional[SimpleNamespace]:
    """What `build_parser().parse_args(argv)` gives, for an argv in the
    plain form: a command, then its options spelled exactly as `COMMANDS`
    spells them, each value option followed by a value that does not start
    with `-`, and one run of paths that do not either. None for any other
    argv, and for a value that `int` refuses or a missing required option:
    argparse parses those or reports them."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options, func = COMMANDS[argv[0]]
    by_flag = {o.flag: o for o in options}
    values = {o.dest: list(o.default) if o.kind == "append" else o.default
              for o in options}
    paths: list[str] = []
    ended = False  # whether an option has followed the run of paths
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if ended:
                return None  # argparse refuses a second run of paths
            paths.append(word)
            continue
        ended = bool(paths)
        o = by_flag.get(word)
        if o is None:
            return None
        if o.kind == "flag":
            values[o.dest] = True
            continue
        value = next(words, "-")  # at the end, declines as a `-` value does
        if value.startswith("-"):
            return None
        if o.kind == "append":
            values[o.dest].append(value)
        elif o.kind is int:
            try:
                values[o.dest] = int(value)
            except ValueError:
                return None
        else:
            values[o.dest] = value
    if not paths or any(o.required and values[o.dest] is None for o in options):
        return None
    return SimpleNamespace(command=argv[0], paths=paths, func=func, **values)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    that cannot be written is exit 2 here too.

    Nearly every object a command makes belongs to its `Program`, which
    lives until the process ends, so collecting at the default threshold
    would only rescan live objects. The raised threshold still collects a
    long search's cyclic garbage, once every 100,000 net allocations, where
    `gc.disable()` would let it grow with `--budget`. `main` leaves the
    collector as it is: the tests and the benchmark's traced pass call it
    in process."""
    gc.set_threshold(100_000, 50, 100)
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
