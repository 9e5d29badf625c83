import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from poplar.config import SearchConfig
from poplar.effects import analyze_method, query_contexts
from poplar.resolver import load_program

CORPUS = Path(__file__).parent / "corpus"

TD14 = ["common/timeanddate.pop", "timedate14/date.pop", "client/timeutils.pop"]
TD15 = ["common/timeanddate.pop", "timedate15/calendar.pop", "client/timeutils.pop"]
TD_BOTH = ["common/timeanddate.pop", "timedate14/date.pop",
           "timedate15/calendar.pop", "client/timeutils.pop"]
SOCKET = ["socket/socket.pop", "socket/server.pop"]
SWING = ["swing/toolkit.pop", "swing/widgets.pop", "swing/frames.pop"]
SWING_QUERY = ["swing/toolkit.pop", "swing/widgets.pop", "swing_query/frames.pop"]
RECORDSET = ["recordset/records.pop"]

# `b` is armed (`p@1->2`, residing in `s`) and disarmed (`p@2->3`) before
# `fill` gives it `full` in `r`; the query asks for another full Box.
ARMED_TREE = """class Box {
    protocols p;
    resources r, s;
    labels full;

    Box()
        result: +p@1;
    void arm()
        this: p@1->2 [*s];
    void disarm()
        this: p@2->3;
    void fill() [!r]
        this: +full [*r];
    static Box make()
        result: +full [*r];
}

class User {
    void run() {
        Box b = new Box();
        b.arm();
        b.disarm();
        b.fill();
        Box c = #produce(Box, full) with make;
    }
}
"""
ARMING = "        b.arm();\n        b.disarm();\n"


def stored(x):
    """The attributes `x` stores, by name: its own slots, or its `__dict__`."""
    slots = type(x).__dict__.get("__slots__")
    return {name: getattr(x, name) for name in slots} if slots else dict(vars(x))


def inferred_summary(program, unit, method):
    """The summary the walk of `method` infers, which must not have stopped
    at a callee with no summary."""
    analysis = analyze_method(program, unit, method)
    assert analysis.stopped_at is None, analysis.stopped_at.name
    return analysis.inferred


def walk_violations(program, unit, method, code):
    """The violations with `code` that the walk of `method` found."""
    return [v for v in analyze_method(program, unit, method).violations if v.code == code]


def corpus_sources(files):
    return [(str(CORPUS / f), (CORPUS / f).read_text()) for f in files]


def load(files, extra=None):
    """Load corpus files plus optional (name, text) extras; assert clean."""
    sources = corpus_sources(files)
    if extra:
        sources.extend(extra)
    program = load_program(sources)
    assert not program.diagnostics.has_errors, program.diagnostics.render()
    return program


def load_raw(files, extra=None):
    """Load without asserting; returns the program with its diagnostics."""
    sources = corpus_sources(files)
    if extra:
        sources.extend(extra)
    return load_program(sources)


def query_in(program, unit_name, method_name, index=0):
    unit = program.units[unit_name]
    for m in unit.methods:
        if m.name == method_name and m.body is not None:
            contexts = query_contexts(program, unit, m)
            return contexts[index]
    raise AssertionError(f"no query in {unit_name}.{method_name}")


def all_query_contexts(program):
    out = []
    for cname in sorted(program.units):
        unit = program.units[cname]
        for m in unit.methods:
            if m.body is None:
                continue
            out.extend(query_contexts(program, unit, m))
    return out


def query_id(ctx):
    return f"{ctx.unit}.{ctx.method.name}:{ctx.pos.line}:{ctx.pos.col}"


@functools.lru_cache(maxsize=None)
def oracle_answers(files):
    """The oracle's answer (`oracle.solve` with `max_len=6`) to each query
    of the corpus tree `files`, a tuple, by `query_id`. The oracle runs
    once per tree in a session, whichever test asks first."""
    import oracle
    program = load(list(files))
    return {query_id(ctx): oracle.solve(program, ctx, max_len=6)
            for ctx in all_query_contexts(program)}


@pytest.fixture
def cfg():
    return SearchConfig()
