"""The command line: the plain parse in `cli.parse_plain` against argparse,
and argparse's own help and usage errors.

`main` parses a plain argv itself and builds the argparse parser only for
an argv that the plain parse declines. Whenever the plain parse accepts an
argv, it must give what argparse gives for it.
"""

import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poplar.cli import COMMANDS, build_parser, main, parse_plain

from conftest import CORPUS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=400, deadline=None)
PARSER = build_parser()
OPTIONS = {o.flag: o for _, options, _ in COMMANDS.values() for o in options}


def parsed(argv):
    """argparse's namespace for `argv`, as a dict."""
    return vars(PARSER.parse_args(argv))


# Words that argparse reads in some other way than the plain parse: help,
# the end of options, abbreviations, `=` forms, a lone `-` and a negative
# number. Then values that `int` reads with or without trouble, and paths.
ODD_WORDS = ["-h", "--help", "--", "-", "-1", "--bud", "--max", "--rewrite", "--prec",
             "--o", "--ass", "--expl", "--d", "--budget=3", "--max-len=2", "--out=d",
             "--precedence=Date=1", "--explain=a.pop:3", "--rewrite-summaries=1", "-x"]
VALUE_WORDS = ["x", "3", "0", "٣", " 7 ", "1_000", "", "Date=2", "a.pop:3", "a.pop",
               "lib", "dir/", "./t", "../t/a.pop", "/abs/b.pop", "out", "check", "synth"]
WORDS = [*COMMANDS, *OPTIONS, *ODD_WORDS, *VALUE_WORDS]


@PROPERTY
@given(st.lists(st.sampled_from(WORDS), max_size=9),
       st.sampled_from([*COMMANDS, None]))
def test_a_plain_parse_gives_what_argparse_gives(words, command):
    argv = words if command is None else [command, *words]
    args = parse_plain(argv)
    if args is not None:
        assert vars(args) == parsed(argv)


@st.composite
def plain_argvs(draw):
    """A command, some of its options with a value each (every required
    one among them), and one run of paths among the options."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[command][1]
    chosen = [o for o in options if o.required] + \
        draw(st.lists(st.sampled_from(options), max_size=5))
    chosen = draw(st.permutations(chosen))
    words = []
    for o in chosen:
        words.append([o.flag])
        if o.kind is int:
            words[-1].append(str(draw(st.integers(0, 10**6))))
        elif o.kind != "flag":
            words[-1].append(draw(st.sampled_from(VALUE_WORDS)))
    paths = draw(st.lists(st.sampled_from(["a.pop", "lib", "./t", "٣", "", "synth"]),
                          min_size=1, max_size=3))
    words.insert(draw(st.integers(0, len(words))), paths)
    return [command, *(w for group in words for w in group)]


@PROPERTY
@given(plain_argvs())
def test_every_plain_argv_takes_the_plain_path(argv):
    args = parse_plain(argv)
    assert args is not None
    assert vars(args) == parsed(argv)


def test_repeated_options_keep_the_last_value_and_append_precedence():
    argv = ["synth", "a", "--budget", "3", "--budget", "4", "--out", "o", "--out", "p",
            "--precedence", "A=1", "--precedence", "B=2", "--rewrite-summaries",
            "--rewrite-summaries"]
    args = parse_plain(argv)
    assert (args.budget, args.out, args.precedence, args.rewrite_summaries) == \
        (4, "p", ["A=1", "B=2"], True)
    assert vars(args) == parsed(argv)


def test_each_parse_has_its_own_precedence_list():
    parse_plain(["check", "a", "--precedence", "A=1"])
    assert parse_plain(["check", "a"]).precedence == []


@pytest.mark.parametrize("argv", [
    ["check", "-h"], ["check", "a", "--"], ["check", "a", "--budget", "-1"],
    ["check", "a", "--bud", "3"], ["check", "a", "--budget=3"], ["check", "a", "--out", "o"],
    ["check", "a", "--budget", "x"], ["check", "a", "--budget"],
    ["check", "a", "--budget", "3", "b"], ["check"], ["explain", "a"], ["verify-upgrade", "a"],
    ["frobnicate", "a"], [], ["-h"],
])
def test_an_unusual_or_wrong_argv_is_left_to_argparse(argv):
    assert parse_plain(argv) is None


def readme_argvs():
    """Each command line of README's synopsis, with its placeholders filled
    in, alone and with each option form that README's prose spells."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    fill = {"<paths...>": ["a.pop", "lib"], "N": ["3"], "Type=N": ["Date=3"], "DIR": ["out"]}
    lines = []
    for line in block.splitlines():
        words = shlex.split(line.split("#")[0])[1:]
        lines.append([v for w in words
                      for v in fill.get(w, [w.strip("[]").replace("LINE", "3")])])
    forms = [shlex.split(f) for f in
             re.findall(r"`(?:poplar \w+ )?(--[a-z-]+(?: [A-Za-z=]+)?)`", text)]
    argvs = list(lines)
    for line in lines:
        flags = {o.flag: o for o in COMMANDS[line[0]][1]}
        for flag, *value in forms:
            o = flags.get(flag)
            if o is not None and bool(value) == (o.kind != "flag"):
                argvs.append(line + [flag] + [v for w in value for v in fill.get(w, [w])])
    return argvs


def bench_argvs():
    """Every command line of the benchmark's workloads."""
    return [exp.argv() for name in gen.WORKLOADS
            for w in [gen.build(name, 1, CORPUS)] for exp in w.setup + w.passes]


def test_every_readme_form_takes_the_plain_path():
    argvs = readme_argvs()
    assert {a[0] for a in argvs} == set(COMMANDS) and len(argvs) > len(COMMANDS)
    for argv in argvs:
        args = parse_plain(argv)
        assert args is not None, argv
        assert vars(args) == parsed(argv)


def test_every_benchmark_command_line_takes_the_plain_path():
    argvs = bench_argvs()
    assert {a[0] for a in argvs} == {"check", "synth", "verify-upgrade"}
    for argv in argvs:
        args = parse_plain(argv)
        assert args is not None, argv
        assert vars(args) == parsed(argv)


# argparse's help and usage errors at 80 columns, as Python 3.11 printed
# them when argparse parsed every command line.
HELP = {
    (): """\
usage: poplar [-h] {check,synth,verify-upgrade,explain} ...

Check, synthesize and verify integration queries.

positional arguments:
  {check,synth,verify-upgrade,explain}
    check               run all static checks
    synth               solve queries and emit plain sources
    verify-upgrade      check stored assumptions against new sources
    explain             print the plan for one query

options:
  -h, --help            show this help message and exit
""",
    ('check',): """\
usage: poplar check [-h] [--budget BUDGET] [--max-len MAX_LEN]
                    [--rewrite-summaries] [--precedence Type=N]
                    paths [paths ...]

positional arguments:
  paths                source files or directories

options:
  -h, --help           show this help message and exit
  --budget BUDGET      explored-plan budget
  --max-len MAX_LEN    maximum plan length
  --rewrite-summaries  widen enclosing summaries instead of rejecting
  --precedence Type=N  API precedence (repeatable)
""",
    ('synth',): """\
usage: poplar synth [-h] [--budget BUDGET] [--max-len MAX_LEN]
                    [--rewrite-summaries] [--precedence Type=N] [--out OUT]
                    paths [paths ...]

positional arguments:
  paths                source files or directories

options:
  -h, --help           show this help message and exit
  --budget BUDGET      explored-plan budget
  --max-len MAX_LEN    maximum plan length
  --rewrite-summaries  widen enclosing summaries instead of rejecting
  --precedence Type=N  API precedence (repeatable)
  --out OUT            output directory
""",
    ('verify-upgrade',): """\
usage: poplar verify-upgrade [-h] --assumptions ASSUMPTIONS [--budget BUDGET]
                             [--max-len MAX_LEN] [--rewrite-summaries]
                             [--precedence Type=N]
                             paths [paths ...]

positional arguments:
  paths                 source files or directories

options:
  -h, --help            show this help message and exit
  --assumptions ASSUMPTIONS
                        directory holding .assume files
  --budget BUDGET       explored-plan budget
  --max-len MAX_LEN     maximum plan length
  --rewrite-summaries   widen enclosing summaries instead of rejecting
  --precedence Type=N   API precedence (repeatable)
""",
    ('explain',): """\
usage: poplar explain [-h] [--budget BUDGET] [--max-len MAX_LEN]
                      [--rewrite-summaries] [--precedence Type=N] --explain
                      FILE:LINE [--dot DOT]
                      paths [paths ...]

positional arguments:
  paths                source files or directories

options:
  -h, --help           show this help message and exit
  --budget BUDGET      explored-plan budget
  --max-len MAX_LEN    maximum plan length
  --rewrite-summaries  widen enclosing summaries instead of rejecting
  --precedence Type=N  API precedence (repeatable)
  --explain FILE:LINE  query id
  --dot DOT            also write a graph description file
""",
}
ERRORS = {
    (): (2, """\
usage: poplar [-h] {check,synth,verify-upgrade,explain} ...
poplar: error: the following arguments are required: command
"""),
    ('frobnicate',): (2, """\
usage: poplar [-h] {check,synth,verify-upgrade,explain} ...
poplar: error: argument command: invalid choice: 'frobnicate' (choose from 'check', 'synth', 'verify-upgrade', 'explain')
"""),
    ('synth', '--out', 'd'): (2, """\
usage: poplar synth [-h] [--budget BUDGET] [--max-len MAX_LEN]
                    [--rewrite-summaries] [--precedence Type=N] [--out OUT]
                    paths [paths ...]
poplar synth: error: the following arguments are required: paths
"""),
    ('check', 'a', '--budget', 'x'): (2, """\
usage: poplar check [-h] [--budget BUDGET] [--max-len MAX_LEN]
                    [--rewrite-summaries] [--precedence Type=N]
                    paths [paths ...]
poplar check: error: argument --budget: invalid int value: 'x'
"""),
    ('check', 'a', '--budget', '3', 'b'): (2, """\
usage: poplar [-h] {check,synth,verify-upgrade,explain} ...
poplar: error: unrecognized arguments: b
"""),
}


@pytest.mark.parametrize("command", HELP)
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command, "--help"]) == 0
    assert capsys.readouterr() == (HELP[command], "")


@pytest.mark.parametrize("argv", ERRORS)
def test_a_usage_error_reads_as_before(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, err = ERRORS[argv]
    assert main(list(argv)) == code
    assert capsys.readouterr() == ("", err)
