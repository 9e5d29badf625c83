"""Every hierarchy, member and resource-path question a `Program` answers
from its per-type lookups, and every fact a planner action carries,
agrees with the walks and derivations it replaced (`reference_model`),
on every corpus tree and on two generated trees."""

import sys
from pathlib import Path

import pytest

from poplar.planner import action_universe
from poplar.resolver import load_program
from poplar.synth import AssumptionRecord

import reference_model as ref
from conftest import CORPUS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

CORPUS_TREES = sorted(d.name for d in CORPUS.iterdir() if d.is_dir())


def tree_sources(tree):
    if tree == "wide_tree":
        files = gen.wide_tree(1).files
        return [(n, t) for n, t in sorted(files.items()) if n.startswith("v1/")]
    if tree == "deep_queries":
        return sorted(gen.deep_queries(1).files.items())
    return [(str(f), f.read_text()) for f in sorted((CORPUS / tree).rglob("*.pop"))]


def declared_paths(program, name):
    """The resource paths of `name`'s tree, each managed field, and the
    paths below each managed field in its type's tree."""
    paths = set(ref.resource_nodes(program, name))
    for fname, fld in ref.managed_fields(program, name).items():
        paths.add((fname,))
        paths.update((fname,) + p for p in ref.resource_nodes(program, fld.type))
    return sorted(paths)


TREES = CORPUS_TREES + ["wide_tree", "deep_queries"]


@pytest.mark.parametrize("tree", TREES)
def test_type_lookups_agree_with_the_reference_walks(tree):
    """Over every type name and the names of no declared type, each pair
    of them, every declared field and method name, and every declared
    resource path with one undeclared step below it."""
    program = load_program(tree_sources(tree))
    names = sorted(program.units) + ["int", "boolean", "null", "Object", "Undeclared"]
    units = [program.units[n] for n in sorted(program.units)]
    fields = sorted({f.name for u in units for f in u.fields}) + ["undeclared"]
    methods = sorted({(m.name, len(m.args)) for u in units for m in u.methods})
    for sub in names:
        for sup in names:
            assert program.is_subtype(sub, sup) == ref.is_subtype(program, sub, sup), \
                (sub, sup)
    for name in names:
        assert program.supertype_chain(name) == ref.supertype_chain(program, name)
        assert list(program.lookup_order(name)) == ref.visible_scopes(program, name)
        for f in fields:
            assert program.find_field(name, f) is ref.find_field(program, name, f), (name, f)
        for m, argc in methods:
            assert program.find_method(name, m, argc) is \
                ref.find_method(program, name, m, argc), (name, m, argc)
        declared = declared_paths(program, name)
        for path in declared + [p + ("undeclared",) for p in [()] + declared]:
            assert program.resolve_resource_path(name, path) == \
                ref.resolve_resource_path(program, name, path), (name, path)
            assert list(program.path_ancestors(name, path)) == \
                ref.path_ancestors(program, name, path), (name, path)
    for u in units:
        for m in u.methods:
            assert program.overridden_method(m) is ref.overridden_method(program, m), \
                (u.name, m.name)


def record(unit, name, member, signature):
    """An assumption record naming `member` of `unit` by `name` and
    `signature`, as `synth` writes one."""
    return AssumptionRecord(unit.name, name, "ctor" if member.is_constructor else "invoke",
                            signature)


@pytest.mark.parametrize("tree", TREES)
def test_declared_member_lookup_agrees_with_the_scans_it_replaced(tree):
    """For every declared member, for an undeclared name and for a wrong
    arity, `declared_method` finds what `verify-upgrade`'s signature scan
    found; every external overlays the method the overlay's scan found."""
    program = load_program(tree_sources(tree))
    for u in (program.units[n] for n in sorted(program.units)):
        for m in u.methods:
            argc = len(m.args)
            found = program.declared_method(u.name, m.name, argc, m.is_constructor)
            assert found is ref.find_member(program, record(u, m.name, m, m.signature())) \
                is m, (u.name, m.name, argc)
            assert program.declared_method(u.name, "undeclared", argc) is None is \
                ref.find_member(program, record(u, "undeclared", m, "undeclared()"))
            wrong = 1 + max(len(x.args) for x in u.methods if x.key[0] == m.key[0])
            params = ", ".join([a.type for a in m.args] + ["int"] * (wrong - argc))
            sig = m.signature().replace(f"({', '.join(a.type for a in m.args)})",
                                        f"({params})")
            assert program.declared_method(u.name, m.name, wrong, m.is_constructor) is \
                None is ref.find_member(program, record(u, m.name, m, sig))
        for ex in u.externals:
            if program.diagnostics.has_errors:
                continue  # the overlay pass did not run
            target = ref.find_target_method(program, ex)
            assert target is program.declared_method(
                ex.target_type, ex.method.name, len(ex.method.args), ex.method.is_constructor)
            assert target is not None and u.name in target.merged_externals


@pytest.mark.parametrize("tree", TREES)
def test_every_action_carries_the_facts_the_planner_derived(tree):
    program = load_program(tree_sources(tree))
    for spec in action_universe(program):
        want = ref.spec_facts(program, spec)
        assert {name: getattr(spec, name) for name in want} == want, spec.label()
