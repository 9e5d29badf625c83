"""Golden search counters: for every query in the corpus, the number of
explored plans, the number of rejected threats and the outcome (plan length
or failure class) are pinned. A change to how candidates are found or
ordered must leave the search itself unchanged."""

import pytest

import poplar.planner as planner_module
from poplar.config import SearchConfig
from poplar.planner import (
    Candidate, PlanFailure, PlanObject, Planner, spec_result_atoms,
    spec_result_type, spec_subject_effects,
)

from conftest import (
    RECORDSET, SOCKET, SWING_QUERY, TD14, TD15, TD_BOTH, all_query_contexts,
    load,
)

TREES = {
    "td14": TD14,
    "td15": TD15,
    "td_both": TD_BOTH,
    "socket": SOCKET,
    "swing_query": SWING_QUERY,
    "recordset": RECORDSET,
    "witness": ["witness/witness.pop"],
    "threats": ["threats/twin.pop"],
    "shapes": ["shapes/shapes.pop"],
}

# max_plan_length=4 sends the Swing and threat queries down the exhaustive
# NoSolution path.
CONFIGS = {
    "default": SearchConfig(),
    "len4": SearchConfig(max_plan_length=4),
}

# (config, tree, "Unit.method:line") -> (explored, rejected threats, outcome)
GOLDEN = {
    ("default", "td14", "TimeUtils.printHour:3"): (4, 0, 2),
    ("default", "td15", "TimeUtils.printHour:3"): (8, 0, 3),
    ("default", "td_both", "TimeUtils.printHour:3"): (7, 0, 2),
    ("default", "socket", "NetworkServer.serveClient:17"): (10, 0, 3),
    ("default", "socket", "NetworkServer.serveClient:19"): (2, 0, 1),
    ("default", "socket", "NetworkServer.serveClient:21"): (3, 0, 1),
    ("default", "swing_query", "MenuFrame.installCommand:55"): (62, 0, 6),
    ("default", "swing_query", "ToolbarFrame.installCommand:69"): (50, 0, 6),
    ("default", "recordset", "RecordSet.setInverseSorting:48"): (2, 0, 1),
    ("default", "witness", "Workshop.refine:25"): (4, 0, 1),
    ("default", "witness", "Workshop.refine:28"): (5, 0, 2),
    ("default", "threats", "Sealer.run:27"): (22, 2, 5),
    ("default", "shapes", "Client.run:30"): (5, 0, 1),
    ("default", "shapes", "Client.run:31"): (2, 0, 1),
    ("len4", "td14", "TimeUtils.printHour:3"): (4, 0, 2),
    ("len4", "td15", "TimeUtils.printHour:3"): (8, 0, 3),
    ("len4", "td_both", "TimeUtils.printHour:3"): (7, 0, 2),
    ("len4", "socket", "NetworkServer.serveClient:17"): (10, 0, 3),
    ("len4", "socket", "NetworkServer.serveClient:19"): (2, 0, 1),
    ("len4", "socket", "NetworkServer.serveClient:21"): (3, 0, 1),
    ("len4", "swing_query", "MenuFrame.installCommand:55"): (24, 0, "NoSolution"),
    ("len4", "swing_query", "ToolbarFrame.installCommand:69"): (21, 0, "NoSolution"),
    ("len4", "recordset", "RecordSet.setInverseSorting:48"): (2, 0, 1),
    ("len4", "witness", "Workshop.refine:25"): (4, 0, 1),
    ("len4", "witness", "Workshop.refine:28"): (5, 0, 2),
    ("len4", "threats", "Sealer.run:27"): (12, 1, "NoSolution"),
    ("len4", "shapes", "Client.run:30"): (5, 0, 1),
    ("len4", "shapes", "Client.run:31"): (2, 0, 1),
}


def search_counters(program, ctx, cfg):
    planner = Planner(program, ctx, cfg)
    try:
        outcome = planner.plan().action_count()
    except PlanFailure as e:
        assert e.explored == planner.explored
        outcome = type(e).__name__
    return planner.explored, planner.rejected_threats, outcome


@pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
@pytest.mark.parametrize("tree", sorted(TREES))
def test_search_counters_are_golden(tree, cfg_name):
    program = load(TREES[tree])
    got = {}
    for ctx in all_query_contexts(program):
        key = (cfg_name, tree, f"{ctx.unit}.{ctx.method.name}:{ctx.pos.line}")
        got[key] = search_counters(program, ctx, CONFIGS[cfg_name])
    want = {k: v for k, v in GOLDEN.items() if k[:2] == (cfg_name, tree)}
    assert got == want


def scan_achievers(planner, obj, atom):
    """The fresh-action enumeration as a scan of the whole universe, as the
    planner did it at every node before the action index."""
    program = planner.program
    out = []
    for spec in planner.index.universe:
        ways = []
        rt = spec_result_type(spec)
        if not obj.bound and rt is not None and program.is_subtype(rt, obj.need_type):
            if atom is None or atom in {a for a, _ in spec_result_atoms(spec)}:
                if planner._useful_result(spec):
                    ways.append("result")
        if atom is not None and spec.method is not None:
            for subject, added, _, _ in spec_subject_effects(spec):
                if added != atom:
                    continue
                formal = spec.method.declared_in if subject == "this" else \
                    getattr(spec.method.arg_named(subject), "type", None)
                if formal is not None and (program.is_subtype(obj.type, formal)
                                           or program.is_subtype(formal, obj.type)):
                    ways.append(subject)
        out.extend(planner._mk(Candidate("new", spec=spec, via=via, spec_key=spec.key))
                   for via in ways
                   if planner._span_admits(spec) and planner._policy_admits(spec))
    return planner._filter_precedence(out)


class ScanCheckedPlanner(Planner):
    def _fresh_candidates(self, obj, atom):
        got = super()._fresh_candidates(obj, atom)
        want = scan_achievers(self, obj, atom)
        assert [(c.spec, c.via, c.sort_key) for c in got] == \
            [(c.spec, c.via, c.sort_key) for c in want]
        assert all(a.spec is b.spec for a, b in zip(got, want))
        return got


@pytest.mark.parametrize("tree", sorted(TREES))
def test_index_candidates_match_a_universe_scan(tree):
    """At every node the search visits, the indexed fresh-action candidates
    are the ones a scan of the universe finds, in the same order."""
    program = load(TREES[tree])
    for ctx in all_query_contexts(program):
        for cfg in CONFIGS.values():
            planner = ScanCheckedPlanner(program, ctx, cfg)
            try:
                planner.plan()
            except PlanFailure:
                pass


def test_index_is_built_once_per_program(monkeypatch):
    calls = []
    real = planner_module.action_universe
    monkeypatch.setattr(planner_module, "action_universe",
                        lambda program: calls.append(program) or real(program))
    program = load(SOCKET)
    contexts = all_query_contexts(program)
    for ctx in contexts:
        Planner(program, ctx, SearchConfig()).plan()
    assert len(contexts) == 3 and calls == [program]


@pytest.mark.parametrize("tree", sorted(TREES))
def test_index_candidates_match_a_universe_scan_for_every_object_shape(tree):
    """The same, for every open condition the corpus can pose: each type
    and atom, on a fresh object and on one bound to each subtype. One
    planner serves all of them, so its memo must key on all they vary."""
    program = load(TREES[tree])
    ctx = all_query_contexts(program)[0]
    planner = ScanCheckedPlanner(program, ctx, SearchConfig())
    types = sorted(program.units)
    atoms = [None, *sorted(planner.index.achievers, key=lambda a: a.text())]
    for need in types:
        for atom in atoms:
            planner._fresh_candidates(PlanObject(0, need), atom)
            for actual in types:
                if program.is_subtype(actual, need):
                    obj = PlanObject(0, need, producer=2, actual_type=actual)
                    planner._fresh_candidates(obj, atom)
