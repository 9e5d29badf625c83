"""Golden search counters on the benchmark's `deep_queries` workload: the
trees come from `bench/gen.py`, every query is planned in process, and the
explored plans, rejected threats and outcome (plan length or failure class)
of each are pinned, with the totals the benchmark reports."""

import sys
from pathlib import Path

from poplar.config import SearchConfig
from poplar.planner import PlanFailure, Planner
from poplar.resolver import load_program

from conftest import all_query_contexts

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

# "dir/clients.pop:line" -> (explored, rejected threats, outcome), seed 1
GOLDEN = {
    "ok/clients.pop:3": (7, 0, 4),
    "ok/clients.pop:9": (37, 0, 9),
    "ok/clients.pop:15": (9, 0, 5),
    "ok/clients.pop:21": (22, 0, 7),
    "ok/clients.pop:27": (15, 0, 5),
    "ok/clients.pop:33": (36, 0, 11),
    "ok/clients.pop:40": (30, 0, 5),
    "ok/clients.pop:47": (11, 0, 6),
    "ok/clients.pop:53": (29, 0, 9),
    "ok/clients.pop:59": (16, 0, 7),
    "ok/clients.pop:65": (4, 0, 3),
    "ok/clients.pop:72": (30, 0, 5),
    "ok/clients.pop:79": (5, 0, 3),
    "ok/clients.pop:85": (23, 0, 5),
    "none/clients.pop:3": (36, 9, "NoSolution"),
    "none/clients.pop:10": (3, 0, 2),
    "none/clients.pop:12": (0, 0, "NoSolution"),
    "none/clients.pop:19": (0, 0, "NoSolution"),
    "none/clients.pop:25": (36, 9, "NoSolution"),
    "none/clients.pop:32": (3, 0, 2),
    "none/clients.pop:34": (0, 0, "NoSolution"),
}


def search(seed):
    """(explored, rejected threats, outcome) per query id, planning each
    client set with the library as `synth lib ok` and `synth lib none` do."""
    files = gen.deep_queries(seed).files
    out = {}
    for where in ("ok", "none"):
        program = load_program(sorted((path, text) for path, text in files.items()
                                      if path.split("/")[0] in ("lib", where)))
        assert not program.diagnostics.has_errors, program.diagnostics.render()
        for ctx in all_query_contexts(program):
            planner = Planner(program, ctx, SearchConfig())
            try:
                outcome = planner.plan().action_count()
            except PlanFailure as e:
                outcome = type(e).__name__
            out[f"{where}/clients.pop:{ctx.pos.line}"] = \
                (planner.explored, planner.rejected_threats, outcome)
    return out


def totals(got):
    """Explored plans, and rejected threats as the benchmark counts them:
    of solved queries only."""
    return (sum(e for e, _, _ in got.values()),
            sum(r for _, r, n in got.values() if n != "NoSolution"))


def test_deep_queries_search_is_golden():
    got = search(1)
    assert got == GOLDEN
    assert totals(got) == (352, 0)
    passes = gen.deep_queries(1).passes
    assert {q: n for q, (_, _, n) in got.items() if q.startswith("ok/")} == passes[0].plans
    assert {f"{path}:{line}" for path, line, _, _ in passes[1].diagnostics} == \
        {q for q, (_, _, n) in got.items() if n == "NoSolution"}


def test_deep_queries_totals_do_not_depend_on_the_seed():
    assert totals(search(2)) == (352, 0)
