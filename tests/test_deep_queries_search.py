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
    "ok/clients.pop:3": (13, 0, 4),
    "ok/clients.pop:9": (199, 0, 9),
    "ok/clients.pop:15": (20, 0, 5),
    "ok/clients.pop:21": (93, 0, 7),
    "ok/clients.pop:27": (49, 0, 5),
    "ok/clients.pop:33": (223, 0, 11),
    "ok/clients.pop:40": (33, 0, 5),
    "ok/clients.pop:47": (29, 0, 6),
    "ok/clients.pop:53": (151, 0, 9),
    "ok/clients.pop:59": (63, 0, 7),
    "ok/clients.pop:65": (7, 0, 3),
    "ok/clients.pop:72": (33, 0, 5),
    "ok/clients.pop:79": (8, 0, 3),
    "ok/clients.pop:85": (81, 0, 5),
    "none/clients.pop:3": (42, 9, "NoSolution"),
    "none/clients.pop:10": (4, 0, 2),
    "none/clients.pop:12": (0, 0, "NoSolution"),
    "none/clients.pop:19": (182, 0, "NoSolution"),
    "none/clients.pop:25": (42, 9, "NoSolution"),
    "none/clients.pop:32": (4, 0, 2),
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
    assert totals(got) == (1276, 0)
    passes = gen.deep_queries(1).passes
    assert {q: n for q, (_, _, n) in got.items() if q.startswith("ok/")} == passes[0].plans
    assert {f"{path}:{line}" for path, line, _, _ in passes[1].diagnostics} == \
        {q for q, (_, _, n) in got.items() if n == "NoSolution"}


def test_deep_queries_totals_do_not_depend_on_the_seed():
    assert totals(search(2)) == (1276, 0)
