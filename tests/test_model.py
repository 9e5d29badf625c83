"""Model-level behavior: uniqueness lattices, mutation-target algebra,
goal normalization, and label identity."""

import pytest
from hypothesis import given, strategies as st

from poplar.model import (
    ARG_FLOW, AddLabel, ArgDecl, Conjunct, Invariant, LabelAtom, MethodSpec,
    MutationTarget, StateAtom, Transition, UniquenessKind,
    any_target, can_flow, can_override_arg, can_override_return, flow_consumes,
    this_target, var_target,
)

from conftest import SOCKET, SWING, TD14, load

K = UniquenessKind


def closure(prog, targets, method):
    """Upward closure: every target plus all its ancestors to the root."""
    out = set()
    for t in targets:
        root_type = prog.target_root_type(t, method)
        out.update([t] if root_type is None else
                   (t.with_path(p) for p in prog.path_ancestors(root_type, t.path)))
    return frozenset(out)


def method_in(declared_in, **params):
    """A bodiless `void m(...)` of `declared_in` with `params` (name=type)."""
    return MethodSpec("m", declared_in, "void",
                      tuple(ArgDecl(K.NORMAL, t, n) for n, t in params.items()))


class TestArgumentFlow:
    def test_every_kind_passes_to_itself(self):
        # Retains kinds need a destructive read for the self-flow.
        for k in K:
            if k in (K.UNIQUE, K.MAINTAIN, K.NORMAL):
                assert can_flow(k, k) and not flow_consumes(k, k)
            else:
                assert can_flow(k, k) and flow_consumes(k, k)

    def test_unique_flows_to_maintain(self):
        assert can_flow(K.UNIQUE, K.MAINTAIN)
        assert not flow_consumes(K.UNIQUE, K.MAINTAIN)

    def test_uniquer_to_maintainr_needs_destructive_read(self):
        assert can_flow(K.UNIQUE_RETAINS, K.MAINTAIN_RETAINS)
        assert flow_consumes(K.UNIQUE_RETAINS, K.MAINTAIN_RETAINS)

    def test_normal_may_stand_in_for_maintain(self):
        assert can_flow(K.NORMAL, K.MAINTAIN)

    def test_shared_values_never_reach_unique_parameters(self):
        for v in (K.NORMAL, K.MAINTAIN, K.MAINTAIN_RETAINS):
            assert not can_flow(v, K.UNIQUE)
            assert not can_flow(v, K.UNIQUE_RETAINS)

    def test_maintained_values_never_reach_normal_parameters(self):
        for v in (K.MAINTAIN, K.MAINTAIN_RETAINS, K.UNIQUE, K.UNIQUE_RETAINS):
            assert not can_flow(v, K.NORMAL)

    def test_flow_relation_is_transitive(self):
        kinds = list(K)
        for a in kinds:
            for b in kinds:
                for c in kinds:
                    if can_flow(a, b) and can_flow(b, c):
                        assert can_flow(a, c), (a, b, c)


class TestOverrides:
    def test_maintain_may_override_unique_argument(self):
        assert can_override_arg(K.UNIQUE, K.MAINTAIN)

    def test_normal_may_not_override_maintain_argument(self):
        assert not can_override_arg(K.MAINTAIN, K.NORMAL)

    def test_argument_override_never_assumes_more(self):
        # An override accepting only unshared values under a shared contract
        # would break existing callers.
        assert not can_override_arg(K.NORMAL, K.UNIQUE)
        assert not can_override_arg(K.MAINTAIN, K.UNIQUE)

    def test_return_override_may_refine(self):
        assert can_override_return(K.MAINTAIN, K.UNIQUE)
        assert can_override_return(K.NORMAL, K.MAINTAIN)
        assert not can_override_return(K.UNIQUE, K.NORMAL)

    def test_override_relations_transitive(self):
        kinds = list(K)
        for a in kinds:
            for b in kinds:
                for c in kinds:
                    if can_override_arg(a, b) and can_override_arg(b, c):
                        assert can_override_arg(a, c), (a, b, c)
                    if can_override_return(a, b) and can_override_return(b, c):
                        assert can_override_return(a, c), (a, b, c)

    def test_any_flow_accepted_by_super_is_accepted_by_override(self):
        # The semantic content of the argument-override table.
        for sup in K:
            for sub in K:
                if not can_override_arg(sup, sub):
                    continue
                for v in K:
                    if can_flow(v, sup):
                        assert can_flow(v, sub), (v, sup, sub)


class TestTargets:
    def test_ancestors_walk_nested_resources(self):
        prog = load(SWING)
        chain = list(prog.path_ancestors("SmartFrame", ("frame", "appearance", "size")))
        assert chain == [("frame", "appearance", "size"),
                         ("frame", "appearance"),
                         ("frame",),
                         ("appearance",),
                         ()]

    def test_managed_field_parent_is_its_owning_resource(self):
        prog = load(SWING)
        chain = list(prog.path_ancestors("SmartFrame", ("panel",)))
        assert chain == [("panel",), ("appearance",), ()]

    def test_cover_by_ancestor(self):
        prog = load(SWING)
        declared = this_target(("panel",))
        inferred = this_target(("panel", "contents"))
        assert prog.target_covers(declared, inferred, method_in("SmartFrame"))

    def test_cover_respects_roots(self):
        prog = load(SOCKET)
        assert not prog.target_covers(var_target("a", ("connState",)),
                                      var_target("b", ("connState",)),
                                      method_in("NetworkServer", a="Socket", b="Socket"))

    def test_any_covers_named_of_subtype(self):
        prog = load(SOCKET)
        declared = any_target("Socket", ("connState",))
        named = var_target("s", ("connState",))
        assert prog.target_covers(declared, named, method_in("NetworkServer", s="Socket"))

    def test_an_any_root_is_typed_by_its_type_not_the_method(self):
        prog = load(SWING)
        declared = any_target("SmartFrame", ("appearance",))
        inferred = any_target("SmartFrame", ("panel",))
        assert prog.target_root_type(inferred, method_in("Object")) == "SmartFrame"
        assert prog.target_covers(declared, inferred, method_in("Object"))

    def test_closure_idempotent_on_corpus_targets(self):
        prog = load(SWING)
        for cname in prog.units:
            unit = prog.units[cname]
            for m in unit.methods:
                targets = prog.effective_summary(m)
                once = closure(prog, targets, m)
                twice = closure(prog, once, m)
                assert once == twice

    @given(st.lists(st.sampled_from(["connState", "data"]), max_size=2))
    def test_closure_idempotent_generated(self, path):
        prog = load(SOCKET)
        targets = frozenset({this_target(tuple(path))})
        once = closure(prog, targets, method_in("Socket"))
        assert once == closure(prog, once, method_in("Socket"))


PUT_TREE = """
class Box { labels full; resources r; Box(); }
class Bag { labels packed; resources r; Bag(); }
class Filler {
    labels ready;
    resources own;
    Filler();
    Box put(maintain Box a, Bag b) mutates a.r, b.r, own, any(Box).r:
        this: ready, result: +full, a: +full, b: packed,
        (b: +packed)?;
}
"""


class TestRenamed:
    """`MethodSpec.renamed` reads a member under another version's parameter
    names, by position."""

    @pytest.fixture
    def put(self):
        [m] = [m for m in load([], [("put.pop", PUT_TREE)]).units["Filler"].methods
               if m.name == "put"]
        return m

    def test_agreeing_names_give_the_member_itself(self, put):
        assert put.renamed(["a", "b"]) is put
        assert put.renamed([]) is put

    def test_a_swap_renames_parameters_subjects_and_var_targets_at_once(self, put):
        r = put.renamed(["b", "a"])
        assert [(a.uniqueness, a.type, a.name) for a in r.args] == \
            [(K.MAINTAIN, "Box", "b"), (K.NORMAL, "Bag", "a")]
        assert [cj.subject for cj in r.conjuncts] == ["this", "result", "b", "a"]
        assert [cj.conditions for cj in r.conjuncts] == \
            [cj.conditions for cj in put.conjuncts]
        assert [[cj.subject for cj in g] for g in r.optional_groups] == [["a"]]
        assert r.mutates == (var_target("b", ("r",)), var_target("a", ("r",)),
                             this_target(("own",)), any_target("Box", ("r",)))
        assert (r.name, r.declared_in, r.pos, r.body) == \
            (put.name, put.declared_in, put.pos, put.body)

    def test_this_result_any_and_this_rooted_targets_are_kept(self, put):
        r = put.renamed(["x", "y"])
        assert [cj.subject for cj in r.conjuncts] == ["this", "result", "x", "y"]
        assert r.conjuncts[0] is put.conjuncts[0] and r.conjuncts[1] is put.conjuncts[1]
        assert r.mutates[2] is put.mutates[2] and r.mutates[3] is put.mutates[3]
        assert (r.local_mutations, r.result_labels) == \
            (put.local_mutations, put.result_labels)

    def test_the_original_member_is_unchanged(self, put):
        before = ([(a.name, a.type) for a in put.args], put.conjuncts,
                  put.optional_groups, put.mutates)
        put.renamed(["x", "y"])
        put.renamed(["b", "a"])
        assert ([(a.name, a.type) for a in put.args], put.conjuncts,
                put.optional_groups, put.mutates) == before

    def test_subject_type(self, put):
        assert put.subject_type("this") == "Filler"
        assert put.subject_type("result") == "Box"
        assert (put.subject_type("a"), put.subject_type("b")) == ("Box", "Bag")
        assert put.subject_type("nobody") is None
        assert put.renamed(["b", "a"]).subject_type("a") == "Bag"

    def test_an_overlay_types_this_and_result_as_its_target(self):
        prog = load([], [("put.pop", PUT_TREE + """
class Annot { labels (Box) seen; external Filler.put(Box x, Bag y) result: seen; }
""")])
        assert not prog.diagnostics.has_errors
        [ex] = prog.units["Annot"].externals
        assert (ex.method.declared_in, ex.declared_in) == ("Filler", "Annot")
        assert (ex.method.subject_type("this"), ex.method.subject_type("result"),
                ex.method.subject_type("x")) == ("Filler", "Box", "Box")


class TestGoals:
    def test_state_goal_dotted(self):
        prog = load(SOCKET)
        atom = prog.normalize_goal("type.open", "Socket", "NetworkServer")
        assert atom == StateAtom("Socket", "type", "open")

    def test_state_goal_at_sign_identical(self):
        prog = load(SOCKET)
        dotted = prog.normalize_goal("type.open", "Socket", "NetworkServer")
        at = prog.normalize_goal("type@open", "Socket", "NetworkServer")
        assert dotted == at

    def test_label_goal_through_interface(self):
        prog = load(TD14)
        atom = prog.normalize_goal("nowHour", "int", "TimeUtils")
        assert atom == LabelAtom("TimeAndDate", "nowHour")

    def test_normalization_idempotent(self):
        prog = load(SOCKET)
        atom = prog.normalize_goal("type@open", "Socket", "NetworkServer")
        again = prog.normalize_goal(atom.text(), "Socket", "NetworkServer")
        assert atom == again

    def test_unknown_goal_raises(self):
        from poplar.model import UnknownGoal
        prog = load(SOCKET)
        with pytest.raises(UnknownGoal):
            prog.normalize_goal("nosuchlabel", "Socket", "NetworkServer")


class TestLabelIdentity:
    def test_same_name_in_two_interfaces_distinct(self):
        extra = [("a.pop", """
interface Left { labels(int) mark; }
interface Right { labels(int) mark; }
class UsesLeft implements Left {
    int pick()
        result: +mark;
}
""")]
        prog = load([], extra)
        left = prog.normalize_goal("Left.mark", "int", "UsesLeft")
        right = prog.normalize_goal("Right.mark", "int", "UsesLeft")
        assert left != right
        assert left == LabelAtom("Left", "mark")


class TestValueSemantics:
    """The model's value classes compare and hash as their field tuples and
    cannot change; its syntax records compare their fields, not their
    positions, and have no hash."""

    def test_atom_repr_is_pinned(self):
        # `effects.check_override` orders its diagnostics by this text, and
        # `Planner.lower_bound` breaks ties between landmarks by it.
        assert repr(LabelAtom("T", "x")) == "LabelAtom(owner='T', name='x')"
        assert repr(StateAtom("T", "p", "s")) == \
            "StateAtom(owner='T', protocol='p', state='s')"

    @pytest.mark.parametrize("cls,fields,change", [
        (LabelAtom, {"owner": "T", "name": "x"}, {"name": "y"}),
        (StateAtom, {"owner": "T", "protocol": "p", "state": "s"}, {"state": "t"}),
        (Invariant, {"atom": LabelAtom("T", "x")}, {"atom": LabelAtom("T", "y")}),
        (AddLabel, {"atom": LabelAtom("T", "x"), "residence": (("r",),)},
         {"residence": ()}),
        (Transition, {"owner": "T", "protocol": "p", "source": "a", "target": "b",
                      "residence": (("r",),)}, {"source": "b"}),
        (Conjunct, {"subject": "this", "conditions": (Invariant(LabelAtom("T", "x")),)},
         {"subject": "result"}),
        (MutationTarget, {"root_kind": "this", "root_name": "", "path": ("r", "q")},
         {"path": ("r",)}),
    ], ids=lambda x: x.__name__ if isinstance(x, type) else "")
    def test_frozen_value_is_its_field_tuple(self, cls, fields, change):
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert a.__eq__(tuple(fields.values())) is NotImplemented
        assert a != cls(**{**fields, **change})
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(a, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == fields[name]
        with pytest.raises(AttributeError):
            setattr(a, "_key", ())
        assert {k: getattr(a, k) for k in fields} == fields
        assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"

    def test_a_default_field_is_part_of_the_value(self):
        atom = LabelAtom("T", "x")
        assert AddLabel(atom) == AddLabel(atom, ())
        assert hash(AddLabel(atom)) == hash((atom, ()))
        assert hash(Transition("T", "p", "a", "b")) == hash(("T", "p", "a", "b", ()))

    def test_values_of_two_classes_with_equal_fields_differ(self):
        atom = LabelAtom("T", "x")
        assert Invariant(atom) != AddLabel(atom)
        assert Invariant(atom).__eq__(AddLabel(atom)) is NotImplemented
        assert len({Invariant(atom), AddLabel(atom)}) == 2
