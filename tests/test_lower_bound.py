"""The lower bound on new actions (`Planner.lower_bound`) only skips the
depths that cannot succeed. With it, and with it forced to 0, every query
gets the same outcome and the same plan, and `synth` writes the same bytes;
the bound never exceeds a plan's length or the oracle's minimal length."""

import contextlib
import functools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poplar.cli import main
from poplar.config import SearchConfig
from poplar.planner import NoSolution, PlanFailure, Planner
from poplar.resolver import load_program

from conftest import (
    CORPUS, RECORDSET, SOCKET, SWING_QUERY, TD14, TD15, all_query_contexts, load,
    oracle_answers, query_id, query_in,
)
from test_search_counters import CONFIGS, TREES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

ORACLE_TREES = [TD14, TD15, SOCKET, RECORDSET, SWING_QUERY]


@contextlib.contextmanager
def unbounded():
    """Every search deepens from 0 inside, as it did before the bound."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Planner, "lower_bound", lambda self: 0)
        yield


def outcome(program, ctx, cfg):
    """(the linearized plan and its chosen groups, the bound), or (the
    failure class, None)."""
    planner = Planner(program, ctx, cfg)
    try:
        result = planner.plan()
    except PlanFailure as e:
        return type(e).__name__, None
    steps = [(a.spec.key, a.receiver, a.args, a.result) for a in result.plan.linearize()]
    groups = {a.aid: a.spec.group for a in result.plan.real_actions()
              if a.spec.group is not None}
    return (steps, groups), planner.bound


def deep_sources(seed):
    """The `deep_queries` client sets of `seed`, each with the library."""
    files = gen.deep_queries(seed).files
    return {where: sorted((path, text) for path, text in files.items()
                          if path.split("/")[0] in ("lib", where))
            for where in ("ok", "none")}


def programs():
    """(name, program, config name) of every tree the counters pin, and of
    the `deep_queries` trees of seeds 1 to 3."""
    for name in sorted(TREES):
        program = load(TREES[name])
        for cfg_name in sorted(CONFIGS):
            yield name, program, cfg_name
    for seed in (1, 2, 3):
        for where, sources in deep_sources(seed).items():
            yield f"deep{seed}/{where}", load_program(sources), "default"


def answers(cases, cfg=None):
    return {(name, cfg_name, query_id(ctx)): outcome(program, ctx, cfg or CONFIGS[cfg_name])
            for name, program, cfg_name in cases for ctx in all_query_contexts(program)}


def test_the_bound_changes_no_answer_and_never_overshoots():
    cases = list(programs())
    bounded = answers(cases)
    with unbounded():
        plain = answers(cases)
    assert {k: v for k, (v, _) in bounded.items()} == {k: v for k, (v, _) in plain.items()}
    solved = {k: (len(v[0]), bound) for k, (v, bound) in bounded.items() if bound is not None}
    assert len(solved) == 73
    assert all(bound <= length for length, bound in solved.values()), solved


@pytest.mark.parametrize("files", ORACLE_TREES)
def test_the_bound_is_at_most_the_oracles_length(files):
    program = load(files)
    for ctx in all_query_contexts(program):
        expected = oracle_answers(tuple(files))[query_id(ctx)]
        bound = Planner(program, ctx, SearchConfig()).lower_bound()
        if expected is not None:
            assert bound is not None and bound <= expected[0], query_id(ctx)


def synth_output(tmp_path, paths, *flags):
    out = tmp_path / "out"
    code = main(["synth", *map(str, paths), "--out", str(out), *flags])
    written = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
    return code, written


@pytest.mark.parametrize("tree", sorted(TREES))
def test_synth_writes_the_same_bytes_without_the_bound(tree, tmp_path, capsys):
    paths = [CORPUS / f for f in TREES[tree]]
    for flags in ((), ("--max-len", "4")):
        bounded = synth_output(tmp_path / "bounded", paths, *flags)
        with unbounded():
            plain = synth_output(tmp_path / "plain", paths, *flags)
        assert bounded == plain


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deep_queries_synth_writes_the_same_bytes_without_the_bound(
        seed, tmp_path, capsys):
    root = tmp_path / "tree"
    for path, text in gen.deep_queries(seed).files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)
    for where, code in (("ok", 0), ("none", 1)):
        paths = [root / "lib", root / where]
        bounded = synth_output(tmp_path / f"bounded-{where}", paths)
        with unbounded():
            plain = synth_output(tmp_path / f"plain-{where}", paths)
        assert bounded == plain and bounded[0] == code


@functools.lru_cache(maxsize=None)
def property_cases():
    """The corpus trees and the `deep_queries` seed-1 trees, loaded once."""
    return [(name, load(files), "default") for name, files in sorted(TREES.items())] + \
        [(f"deep1/{where}", load_program(sources), "default")
         for where, sources in deep_sources(1).items()]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 12))
def test_every_max_len_gets_the_answer_it_got_without_the_bound(max_len):
    """Around each query's bound, `max_len` == bound and == bound - 1 are
    the edges where the bound refuses a query or leaves one depth."""
    cfg = SearchConfig(max_plan_length=max_len)
    bounded = answers(property_cases(), cfg)
    with unbounded():
        plain = answers(property_cases(), cfg)
    assert {k: v for k, (v, _) in bounded.items()} == {k: v for k, (v, _) in plain.items()}


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_a_producer_chain_is_bounded_by_its_length_not_its_depth(depth):
    """Each level needs a factory and a `make`: 2 * depth + 1 actions, while
    the longest chain of needs is depth + 1 long. Disjoint landmarks count
    every level's two actions; at depth 6 the 13 exceed the default 12."""
    fam = gen.chain_family("q", depth, 2)
    prog = load([], [("lib.pop", fam.lib), ("use.pop", fam.client)])
    ctx = all_query_contexts(prog)[0]
    planner = Planner(prog, ctx, SearchConfig())
    assert planner.lower_bound() == 2 * depth + 1
    if depth < 6:
        assert planner.plan().action_count() == 2 * depth + 1
    else:
        with pytest.raises(NoSolution):
            planner.plan()
        assert planner.explored == 0


def test_a_cycle_of_needs_does_not_raise_the_bound():
    """`b` can be had through `a` (cheap) or through a long chain, and `a`
    through `b` or on its own: a memo that took `a` for unreachable while
    it computed `b` would fix `b` at the long chain's cost."""
    prog = load([], [("k.pop", """
class K {
    labels(K) a, b, c1, c2, c3, g;
    K();
    void toA()
        this: b, +a;
    void cheapA()
        this: +a;
    void viaB()
        this: a, +b;
    void slowB()
        this: c3, +b;
    void toC1()
        this: +c1;
    void toC2()
        this: c1, +c2;
    void toC3()
        this: c2, +c3;
    void toG()
        this: a, b, +g;
}
class Use {
    void run(K k) {
        #transform(k, g);
    }
}
""")])
    ctx = query_in(prog, "Use", "run")
    planner = Planner(prog, ctx, SearchConfig())
    assert planner.lower_bound() == 3
    assert planner.plan().action_count() == 3
