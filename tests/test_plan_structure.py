"""The plan structure that a plan shares with its successors: a successor
never changes its parent, the ordering map answers as the orderings do,
and the action index's producer lists follow the Program's subtype test."""

import pytest
from hypothesis import given, settings, strategies as st

from poplar.planner import ActionIndex, Plan, PlanFailure, Planner

from conftest import CORPUS, all_query_contexts, load, load_raw, stored
from test_search_counters import CONFIGS, TREES

QUERY_TREES = {
    **TREES,
    "unique_local_transform": ["unique_local_transform/transform.pop"],
    "transform_local": ["query_sites/transform_local.pop"],
    "unmanaged_field": ["query_sites/unmanaged_field.pop"],
}


def snapshot(plan):
    """Every field of every action and object, and the plan's orderings,
    links, open conditions and counters. The ordering map's copy on clone
    is checked by the property test below."""
    return ({aid: stored(a) for aid, a in plan.actions.items()},
            {oid: stored(o) for oid, o in plan.objects.items()},
            set(plan.orderings), list(plan.links),
            list(plan.open_conds), plan.next_oid, plan.next_aid, plan.goal_oid)


class ParentCheckedPlanner(Planner):
    def __init__(self, *args, applied):
        super().__init__(*args)
        self.applied = applied

    def _apply(self, plan, open_idx, cond, consumer, cand):
        before = snapshot(plan)
        successor = super()._apply(plan, open_idx, cond, consumer, cand)
        assert snapshot(plan) == before, cand.kind
        self.applied.add(cand.kind)
        return successor


def test_a_successor_never_changes_its_parent():
    """The invariant the shared actions and objects rest on, at every
    successor the search builds for the corpus queries."""
    applied = set()
    for files in QUERY_TREES.values():
        program = load(files)
        for ctx in all_query_contexts(program):
            for cfg in CONFIGS.values():
                try:
                    ParentCheckedPlanner(program, ctx, cfg, applied=applied).plan()
                except PlanFailure:
                    pass
    assert applied == {"ctx", "link", "merge", "new"}


AIDS = 12
edges = st.lists(st.tuples(st.integers(0, AIDS - 1), st.integers(0, AIDS - 1)),
                 max_size=30)


def reaches(orderings, a, b):
    """Whether a path of one or more orderings leads from a to b."""
    seen, work = set(), [a]
    while work:
        n = work.pop()
        for x, y in orderings:
            if x == n and y not in seen:
                seen.add(y)
                work.append(y)
    return b in seen


def add_all(plan, pairs):
    for a, b in pairs:
        before = (set(plan.orderings), dict(plan.later))
        closes_cycle = a == b or reaches(plan.orderings, b, a)
        assert plan.add_ordering(a, b) is not closes_cycle
        if closes_cycle:
            assert (plan.orderings, plan.later) == before


def answers(plan):
    return [[plan.ordered(a, b) for b in range(AIDS)] for a in range(AIDS)]


@settings(max_examples=60, deadline=None)
@given(edges, edges)
def test_ordering_map_is_reachability_over_the_orderings(base, more):
    plan = Plan()
    add_all(plan, base)
    assert answers(plan) == [[reaches(plan.orderings, a, b) for b in range(AIDS)]
                             for a in range(AIDS)]
    before = (answers(plan), set(plan.orderings))
    clone = plan.clone()
    add_all(clone, more)
    assert (answers(plan), plan.orderings) == before
    assert answers(clone) == [[reaches(clone.orderings, a, b) for b in range(AIDS)]
                              for a in range(AIDS)]


CORPUS_TREES = sorted(d.name for d in CORPUS.iterdir() if d.is_dir())


def tree_index(tree):
    program = load_raw(sorted(str(f.relative_to(CORPUS))
                              for f in (CORPUS / tree).rglob("*.pop")))
    names = sorted(program.units) + ["int", "boolean", "null", "Object", "Undeclared"]
    return program, ActionIndex(program), names


@pytest.mark.parametrize("tree", CORPUS_TREES)
def test_index_producers_are_the_specs_of_a_subtype_in_universe_order(tree):
    program, index, names = tree_index(tree)
    for need in names:
        want = [s for s in index.universe if index.facts(s).result_type is not None
                and program.is_subtype(index.facts(s).result_type, need)]
        assert index.producers.get(need, []) == want, need
