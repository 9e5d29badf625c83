"""Model-level behavior: uniqueness lattices, mutation-target algebra,
goal normalization, and label identity."""

import pytest
from hypothesis import given, strategies as st

from poplar.model import (
    ARG_FLOW, AddLabel, Conjunct, Invariant, LabelAtom, MutationTarget, NameExpr,
    Pos, StateAtom, ThisExpr, Transition, UniquenessKind, any_target, can_flow,
    can_override_arg, can_override_return, flow_consumes, this_target,
    var_target,
)

from conftest import SOCKET, SWING, TD14, load

K = UniquenessKind


def closure(prog, targets, this_type, var_types):
    """Upward closure: every target plus all its ancestors to the root."""
    out = set()
    for t in targets:
        root_type = prog.target_root_type(t, this_type, var_types)
        out.update([t] if root_type is None else prog.target_ancestors(t, root_type))
    return frozenset(out)


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
        t = this_target(("frame", "appearance", "size"))
        chain = [a.path for a in prog.target_ancestors(t, "SmartFrame")]
        assert chain == [("frame", "appearance", "size"),
                         ("frame", "appearance"),
                         ("frame",),
                         ("appearance",),
                         ()]

    def test_managed_field_parent_is_its_owning_resource(self):
        prog = load(SWING)
        t = this_target(("panel",))
        chain = [a.path for a in prog.target_ancestors(t, "SmartFrame")]
        assert chain == [("panel",), ("appearance",), ()]

    def test_cover_by_ancestor(self):
        prog = load(SWING)
        declared = this_target(("panel",))
        inferred = this_target(("panel", "contents"))
        assert prog.target_covers(declared, inferred, "SmartFrame", {})

    def test_cover_respects_roots(self):
        prog = load(SOCKET)
        var_types = {"a": "Socket", "b": "Socket"}
        assert not prog.target_covers(var_target("a", ("connState",)),
                                      var_target("b", ("connState",)),
                                      "NetworkServer", var_types)

    def test_any_covers_named_of_subtype(self):
        prog = load(SOCKET)
        declared = any_target("Socket", ("connState",))
        named = var_target("s", ("connState",))
        assert prog.target_covers(declared, named, "NetworkServer", {"s": "Socket"})

    def test_closure_idempotent_on_corpus_targets(self):
        prog = load(SWING)
        for cname in prog.units:
            unit = prog.units[cname]
            for m in unit.methods:
                targets = prog.effective_summary(m)
                var_types = {a.name: a.type for a in m.args}
                once = closure(prog, targets, cname, var_types)
                twice = closure(prog, once, cname, var_types)
                assert once == twice

    @given(st.lists(st.sampled_from(["connState", "data"]), max_size=2))
    def test_closure_idempotent_generated(self, path):
        prog = load(SOCKET)
        targets = frozenset({this_target(tuple(path))})
        once = closure(prog, targets, "Socket", {})
        assert once == closure(prog, once, "Socket", {})


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
        # `effects.check_override` orders its diagnostics by this text.
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

    def test_syntax_record_compares_fields_not_positions(self):
        assert NameExpr("x", Pos(1, 2)) == NameExpr("x", Pos(3, 4))
        assert NameExpr("x") != NameExpr("y")
        assert NameExpr("x").__eq__(ThisExpr()) is NotImplemented
        assert Pos(1, 2) == Pos(1, 2) != Pos(1, 3)
        for record in (Pos(1, 2), NameExpr("x"), ThisExpr()):
            with pytest.raises(TypeError):
                hash(record)
