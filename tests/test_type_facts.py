"""Every hierarchy, member and resource-path question a `Program` answers
from its per-type lookups agrees with the per-call walks it replaced
(`reference_model`), on every corpus tree and on two generated trees."""

import sys
from pathlib import Path

import pytest

from poplar.resolver import load_program

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


@pytest.mark.parametrize("tree", CORPUS_TREES + ["wide_tree", "deep_queries"])
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
