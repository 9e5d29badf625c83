"""Static discipline checks: summaries, uniqueness, spans, overrides."""

import itertools

import pytest

from poplar.effects import (
    MissingCalleeSummary, ValueState, check_class_conformance, check_program,
    check_spans, check_uniqueness, goal_residence, infer_summary,
    is_subprotocol, class_protocol_machine, name_mutation, postconditions,
    result_atoms, subject_effects, subject_preconditions, verify_summary,
)
from poplar.model import (
    AddLabel, ArgDecl, Conjunct, Invariant, LabelAtom, MethodSpec, StateAtom,
    Transition, UniquenessKind, any_target, this_target, var_target,
)

from conftest import (
    CORPUS, RECORDSET, SOCKET, SWING, SWING_QUERY, TD14, TD15, TD_BOTH,
    all_query_contexts, load, load_raw,
)

K = UniquenessKind

SOCKET_FILE = "socket/socket.pop"


def unit_method(prog, cls, name):
    unit = prog.units[cls]
    for m in unit.methods:
        if m.name == name:
            return unit, m
    raise AssertionError(f"{cls}.{name} missing")


CONNECT_AND_SEND = """
class SocketUtil {
    void connectAndSend(maintain Socket s, SocketAddress sa, byte[] data)
        mutates s.connState, s.data: {
        s.connect(sa);
        s.send(data);
    }
}
"""


class TestInferSummary:
    def test_connect_and_send(self):
        prog = load([SOCKET_FILE], [("util.pop", CONNECT_AND_SEND)])
        unit, m = unit_method(prog, "SocketUtil", "connectAndSend")
        inferred = infer_summary(prog, unit, m)
        assert inferred == frozenset({var_target("s", ("connState",)),
                                      var_target("s", ("data",))})

    def test_empty_body(self):
        prog = load([SOCKET_FILE], [("util.pop", "class U { void nop() { } }")])
        unit, m = unit_method(prog, "U", "nop")
        assert infer_summary(prog, unit, m) == frozenset()

    def test_managed_field_assignment_converts_to_resource(self):
        prog = load(RECORDSET, [("extra.pop", """
class Resetter extends RecordSet {
    void reset()
        mutates recordPolicy: {
        policy = new SortingPolicy();
    }
}
""")])
        unit, m = unit_method(prog, "Resetter", "reset")
        inferred = infer_summary(prog, unit, m)
        assert inferred == frozenset({this_target(("policy",))})
        # and the declared resource of the owning class covers it
        assert verify_summary(prog, unit, m) == []

    def test_missing_callee_summary_on_recursion(self):
        prog = load([SOCKET_FILE], [("util.pop", """
class A {
    void ping(maintain Socket s) {
        pong(s);
    }
    void pong(maintain Socket s) {
        ping(s);
    }
}
""")])
        unit, m = unit_method(prog, "A", "ping")
        with pytest.raises(MissingCalleeSummary):
            infer_summary(prog, unit, m)


class TestVerifySummary:
    def test_declared_equals_inferred_passes(self):
        prog = load([SOCKET_FILE], [("util.pop", CONNECT_AND_SEND)])
        unit, m = unit_method(prog, "SocketUtil", "connectAndSend")
        assert verify_summary(prog, unit, m) == []

    def test_narrowed_summary_names_the_missing_target(self):
        narrowed = CONNECT_AND_SEND.replace("mutates s.connState, s.data:",
                                            "mutates s.connState:")
        prog = load([SOCKET_FILE], [("util.pop", narrowed)])
        unit, m = unit_method(prog, "SocketUtil", "connectAndSend")
        violations = verify_summary(prog, unit, m)
        assert len(violations) == 1
        assert "s.data" in violations[0].message
        assert violations[0].rule == "SummaryTooNarrow"

    def test_anticipatory_declaration_is_legal(self):
        prog = load(SWING)
        unit, m = unit_method(prog, "SmartFrame", "setup")
        # `panel` is declared though the body never touches it.
        assert verify_summary(prog, unit, m) == []

    def test_figures_pass_as_written(self):
        prog = load(SWING)
        for cls in ("SmartFrame", "MenuFrame", "ToolbarFrame"):
            for m in prog.units[cls].methods:
                assert verify_summary(prog, prog.units[cls], m) == [], f"{cls}.{m.name}"


class TestGeneralizeSummary:
    """A callee summary over formal `s` (type Socket), named by
    `name_mutation` at a call made on the caller's `this` that passes the
    caller's parameter `actual` of the given kind."""

    @staticmethod
    def at_call_site(summary, actual, kind):
        caller = MethodSpec("call", "Client", "void", (ArgDecl(kind, "Socket", actual),))
        this = ValueState("this", "Client", K.MAINTAIN)
        param = ValueState(actual, "Socket", kind)
        return frozenset(
            name_mutation(caller, this, t.path) if t.root_kind == "this"
            else name_mutation(caller, param, t.path, "Socket")
            for t in summary)

    def test_normal_actual_generalizes(self):
        summary = frozenset({var_target("s", ("connState",)),
                             var_target("s", ("data",))})
        out = self.at_call_site(summary, "mySock", K.NORMAL)
        assert out == frozenset({any_target("Socket", ("connState",)),
                                 any_target("Socket", ("data",))})

    def test_unique_actual_keeps_name(self):
        summary = frozenset({var_target("s", ("connState",))})
        out = self.at_call_site(summary, "mySock", K.UNIQUE)
        assert out == frozenset({var_target("mySock", ("connState",))})

    def test_this_rooted_targets_unchanged(self):
        summary = frozenset({this_target(("connState",))})
        out = self.at_call_site(summary, "x", K.NORMAL)
        assert out == summary

    def test_monotone_under_target_order(self):
        prog = load([SOCKET_FILE])
        summary = frozenset({var_target("s", ("connState",))})
        var_types = {"mySock": "Socket"}
        renamed = var_target("mySock", ("connState",))
        for kind in K:
            out = self.at_call_site(summary, "mySock", kind)
            assert any(prog.target_covers(d, renamed, "Socket", var_types)
                       for d in out), kind


class TestUniqueness:
    def test_unique_field_may_return_as_maintain(self):
        prog = load([], [("a.pop", """
class Container {
    unique Object payload;

    Container();

    maintain Object getPayload() {
        return payload;
    }
}
""")])
        unit, m = unit_method(prog, "Container", "getPayload")
        assert check_uniqueness(prog, unit, m) == []

    def test_destructive_read_pattern(self):
        prog = load([], [("a.pop", """
class Holder {
    Object slot;

    Holder();

    void setSlot(maintainr Object value) {
        slot = value;
    }

    void roundTrip() {
        Object fresh = new Object();
        setSlot(fresh);
        fresh = null;
    }
}
""")])
        unit, m = unit_method(prog, "Holder", "setSlot")
        assert check_uniqueness(prog, unit, m) == []
        unit, m = unit_method(prog, "Holder", "roundTrip")
        assert check_uniqueness(prog, unit, m) == []

    def test_use_after_consume(self):
        prog = load([], [("a.pop", """
class Holder {
    Object slot;

    Holder();

    void setSlot(maintainr Object value) {
        slot = value;
    }

    void oops(maintainr Object thing) {
        setSlot(thing);
        setSlot(thing);
    }
}
""")])
        unit, m = unit_method(prog, "Holder", "oops")
        violations = check_uniqueness(prog, unit, m)
        assert any(v.rule == "UseAfterConsume" for v in violations)

    def test_storing_maintain_parameter_is_a_heap_alias(self):
        prog = load([], [("a.pop", """
class Holder {
    Object slot;

    Holder();

    void keep(maintain Object value) {
        slot = value;
    }
}
""")])
        unit, m = unit_method(prog, "Holder", "keep")
        violations = check_uniqueness(prog, unit, m)
        assert any(v.rule == "HeapAliasOfMaintained" for v in violations)

    def test_maintained_value_cannot_flow_to_normal_parameter(self):
        prog = load([], [("a.pop", """
class Sink {
    Sink();
    void gulp(Object anything);
}
class Client {
    void run(maintain Object precious, Sink sink) {
        sink.gulp(precious);
    }
}
""")])
        unit, m = unit_method(prog, "Client", "run")
        violations = check_uniqueness(prog, unit, m)
        assert any(v.rule == "IllegalFlow" for v in violations)

    def test_destructive_read_of_field_forbidden(self):
        prog = load([], [("a.pop", """
class Holder {
    uniquer Object slot;

    Holder();

    void give(maintainr Object value);

    void leak() {
        give(slot);
    }
}
""")])
        unit, m = unit_method(prog, "Holder", "leak")
        violations = check_uniqueness(prog, unit, m)
        assert any("destructive read of field" in v.message for v in violations)


def span_client(s1_kind, s2_kind, summary):
    kinds = {"normal": "", "maintain": "maintain ", "unique": "unique "}
    return f"""
class SpanClient {{
    void hold({kinds[s1_kind]}Socket s1, {kinds[s2_kind]}Socket s2, SocketAddress endpoint)
        mutates {summary}:
        s1: type@bound {{
        #transform(s1, type.open) {{
            s2.close();
        }}
    }}
}}
"""


class TestSpans:
    def test_two_normal_sockets_rejected(self):
        prog = load([SOCKET_FILE], [("c.pop", span_client(
            "maintain", "normal", "any(Socket).connState"))])
        unit, m = unit_method(prog, "SpanClient", "hold")
        violations = check_spans(prog, unit, m)
        assert [v.rule for v in violations] == ["SpanViolation"]

    def test_other_socket_unique_is_exempt(self):
        prog = load([SOCKET_FILE], [("c.pop", span_client(
            "maintain", "unique", "s1.connState, s2.connState"))])
        unit, m = unit_method(prog, "SpanClient", "hold")
        assert check_spans(prog, unit, m) == []

    def test_protected_socket_unique_is_safe(self):
        prog = load([SOCKET_FILE], [("c.pop", span_client(
            "unique", "normal", "any(Socket).connState"))])
        unit, m = unit_method(prog, "SpanClient", "hold")
        assert check_spans(prog, unit, m) == []

    def test_unique_protected_still_rejects_direct_pass(self):
        prog = load([SOCKET_FILE], [("c.pop", """
class SpanClient {
    void hold(unique Socket s1, SocketAddress endpoint)
        mutates any(Socket).connState:
        s1: type@bound {
        #transform(s1, type.open) {
            s1.close();
        }
    }
}
""")])
        unit, m = unit_method(prog, "SpanClient", "hold")
        violations = check_spans(prog, unit, m)
        assert [v.rule for v in violations] == ["SpanViolation"]

    def test_empty_span_body(self):
        prog = load([SOCKET_FILE], [("c.pop", """
class SpanClient {
    void hold(maintain Socket s1, SocketAddress endpoint)
        mutates s1.connState:
        s1: type@bound {
        #transform(s1, type.open) {
        }
    }
}
""")])
        unit, m = unit_method(prog, "SpanClient", "hold")
        assert check_spans(prog, unit, m) == []

    def test_explicit_protect_block(self):
        prog = load([SOCKET_FILE], [("c.pop", """
class SpanClient {
    void hold(maintain Socket s1, Socket s2)
        mutates any(Socket).connState: {
        protect s1.connState {
            s2.close();
        }
    }
}
""")])
        unit, m = unit_method(prog, "SpanClient", "hold")
        violations = check_spans(prog, unit, m)
        assert [v.rule for v in violations] == ["SpanViolation"]

    def test_disjoint_resources_never_flagged(self):
        prog = load([SOCKET_FILE], [("c.pop", """
class SpanClient {
    void hold(maintain Socket s1, Socket s2, byte[] payload)
        mutates any(Socket).data:
        s1: type@bound {
        #transform(s1, type.open) {
            s2.send(payload);
        }
    }
}
""")])
        unit, m = unit_method(prog, "SpanClient", "hold")
        assert check_spans(prog, unit, m) == []


class TestSubprotocol:
    def socket_machine(self, text, cls="Socket"):
        prog = load([], [("a.pop", text)])
        proto = prog.units[cls].protocols[0]
        return prog, proto

    BASE = """
class Socket {
    protocols type;
    Socket()
        result: +type@raw;
    void bind(SocketAddress p)
        this: type@raw->bound;
    void connect(SocketAddress p)
        this: type@bound->open;
    void close()
        this: type@open->closed;
}
class SocketAddress { SocketAddress(); }
"""

    def brute_force_inclusion(self, sub, sup):
        # Independent oracle: literal transition-set inclusion by enumeration.
        missing = [t for t in sup if t not in sub]
        return not missing

    def test_identical_protocols(self):
        prog, proto = self.socket_machine(self.BASE)
        machine = prog.protocol_transitions(proto)
        assert is_subprotocol(machine, machine)

    def test_removed_transition(self):
        prog, proto = self.socket_machine(self.BASE)
        full = prog.protocol_transitions(proto)
        reduced = frozenset(t for t in full if t != ("bound", "open"))
        assert not is_subprotocol(reduced, full)
        assert self.brute_force_inclusion(reduced, full) == is_subprotocol(reduced, full)

    def test_added_state_behind_new_transitions(self):
        extended = self.BASE.replace("class Socket {", """
class Socket {
    void park()
        this: type@open->parked;
    void unpark()
        this: type@parked->open;
""", 1)
        prog_sub, proto_sub = self.socket_machine(extended)
        prog_sup, proto_sup = self.socket_machine(self.BASE)
        sub = prog_sub.protocol_transitions(proto_sub)
        sup = prog_sup.protocol_transitions(proto_sup)
        assert is_subprotocol(sub, sup)
        assert self.brute_force_inclusion(sub, sup)

    def test_exhaustive_agreement_with_set_oracle(self):
        transitions = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
        for n_sub in range(len(transitions) + 1):
            for sub in itertools.combinations(transitions, n_sub):
                for n_sup in range(len(transitions) + 1):
                    for sup in itertools.combinations(transitions, n_sup):
                        assert is_subprotocol(frozenset(sub), frozenset(sup)) == \
                            self.brute_force_inclusion(set(sub), set(sup))


BASE_PAIR = """
class Gadget {{
    resources face, guts;
    labels ready;
    protocols life;

    Gadget()
        result: +life@fresh;

    void boot()
        [!guts]
        this: life@fresh->running [*guts];

    void paint(maintain Brush brush) [!face]
        this: ready;
}}

class Brush {{ Brush(); }}

class Fancy extends Gadget {{
    {sub_members}
}}
"""


def conformance(sub_members, extra=""):
    text = BASE_PAIR.format(sub_members=sub_members) + extra
    prog = load_raw([], [("a.pop", text)])
    assert not prog.diagnostics.has_errors, prog.diagnostics.render()
    return check_class_conformance(prog, prog.units["Fancy"])


class TestOverrideBullets:
    def test_b1_pass_dropping_a_precondition(self):
        out = conformance("void paint(maintain Brush brush) [!face]\n"
                          "        this: +ready;")
        assert out == []

    def test_b1_fail_strengthened_precondition(self):
        out = conformance("void paint(maintain Brush brush) [!face]\n"
                          "        this: ready, life@running;")
        assert any(v.rule == "B1" and "strengthens preconditions" in v.message
                   for v in out)

    def test_b1_fail_weakened_postcondition(self):
        out = conformance("void boot() [!guts];")
        assert any(v.rule == "B1" and "weakens postconditions" in v.message
                   for v in out)

    def test_b2_pass_lesser_mutations(self):
        assert conformance("void boot()\n        this: life@fresh->running [*guts];") == []

    def test_b2_fail_new_mutation_on_shared_field(self):
        out = conformance(
            "managed(face) Brush extraBrush;\n"
            "    void paint(maintain Brush brush) [!face]\n"
            "        mutates extraBrush:\n"
            "        this: ready;")
        assert any(v.rule == "B2" for v in out)

    def test_b2_pass_new_mutation_on_fresh_unique_field(self):
        out = conformance(
            "managed(face) unique Brush ownBrush;\n"
            "    void paint(maintain Brush brush) [!face]\n"
            "        mutates ownBrush:\n"
            "        this: ready;")
        assert [v for v in out if v.rule == "B2"] == []

    def test_b2_fail_residence_grew(self):
        out = conformance("void boot()\n        [!guts]\n"
                          "        this: life@fresh->running [*guts, face];")
        assert any(v.rule == "B2" and "resides in" in v.message for v in out)

    def test_b2_pass_residence_fewer(self):
        extended = """
class Widened extends Gadget {
    void boot()
        [!guts]
        this: life@fresh->running [*guts];
}
"""
        prog = load_raw([], [("a.pop", BASE_PAIR.format(
            sub_members="void nothingNew();") + extended)])
        assert not prog.diagnostics.has_errors
        out = check_class_conformance(prog, prog.units["Widened"])
        assert [v for v in out if v.rule == "B2"] == []

    def test_b3_pass_protocol_preserved(self):
        assert conformance("void boot()\n        [!guts]\n"
                           "        this: life@fresh->running [*guts];") == []

    def test_b3_fail_transition_redirected(self):
        out = conformance("void boot()\n        [!guts]\n"
                          "        this: life@fresh->stalled [*guts];")
        assert any(v.rule == "B3" for v in out)

    def test_b4_pass_maintain_over_unique(self):
        prog = load_raw([], [("a.pop", """
class Base {
    void take(unique Object x);
    unique Object give();
}
class Derived extends Base {
    void take(maintain Object x);
    unique Object give();
}
""")])
        out = check_class_conformance(prog, prog.units["Derived"])
        assert [v for v in out if v.rule == "B4"] == []

    def test_b4_fail_normal_over_maintain_argument(self):
        prog = load_raw([], [("a.pop", """
class Base {
    void take(maintain Object x);
}
class Derived extends Base {
    void take(Object x);
}
""")])
        out = check_class_conformance(prog, prog.units["Derived"])
        assert any(v.rule == "B4" for v in out)

    def test_b4_fail_weakened_return(self):
        prog = load_raw([], [("a.pop", """
class Base {
    unique Object give();
}
class Derived extends Base {
    Object give();
}
""")])
        out = check_class_conformance(prog, prog.units["Derived"])
        assert any(v.rule == "B4" and "return kind" in v.message for v in out)

    def test_b5_pass_new_resource(self):
        assert conformance("resources trim;") == []

    def test_b5_fail_shadowed_resource(self):
        out = conformance("resources face;")
        assert any(v.rule == "B5" for v in out)

    def test_b6_pass_redefined_internals(self):
        # Same [!face] membership, different body behavior: allowed.
        assert conformance(
            "void paint(maintain Brush brush) [!face]\n        this: ready;") == []

    def test_b6_fail_local_mutation_on_inherited_resource(self):
        out = conformance("void paint(maintain Brush brush) [!face, !guts]\n"
                          "        this: ready;")
        assert any(v.rule == "B6" for v in out)

    def test_b7_pass_new_managed_field(self):
        assert conformance("managed(face) unique Brush trimBrush;") == []

    def test_b7_fail_field_redeclared(self):
        prog = load_raw([], [("a.pop", """
class Base {
    managed(look) unique Brush brush;
    resources look;
    Base();
}
class Brush { Brush(); }
class Derived extends Base {
    managed(look) Brush brush;
}
""")])
        out = check_class_conformance(prog, prog.units["Derived"])
        assert any(v.rule == "B7" for v in out)

    def test_identical_specs_conform(self):
        assert conformance(
            "void boot()\n        [!guts]\n"
            "        this: life@fresh->running [*guts];\n"
            "    void paint(maintain Brush brush) [!face]\n        this: ready;") == []


class TestOverrideTransitivity:
    def test_three_level_chain(self):
        text = """
class A {
    resources r;
    labels ok;
    void work(unique Object x) [!r]
        this: +ok;
}
class B extends A {
    void work(maintain Object x) [!r]
        this: +ok;
}
class C extends B {
    void work(maintain Object x) [!r]
        this: +ok, +ok;
}
"""
        prog = load_raw([], [("a.pop", text)])
        assert not prog.diagnostics.has_errors
        from poplar.effects import check_override
        a = prog.units["A"].methods[0]
        b = prog.units["B"].methods[0]
        c = prog.units["C"].methods[0]
        assert check_override(prog, b, a) == []
        assert check_override(prog, c, b) == []
        assert check_override(prog, c, a) == []


class TestSwingConformance:
    def test_menu_and_toolbar_frames_conform(self):
        prog = load(SWING)
        assert check_class_conformance(prog, prog.units["MenuFrame"]) == []
        assert check_class_conformance(prog, prog.units["ToolbarFrame"]) == []

    def test_menu_bar_declared_normal_is_rejected(self):
        text = (CORPUS / "swing/frames.pop").read_text().replace(
            "managed(appearance) unique JMenuBar menuBar;",
            "managed(appearance) JMenuBar menuBar;")
        prog = load(["swing/toolkit.pop", "swing/widgets.pop"],
                    [("frames.pop", text)])
        out = check_class_conformance(prog, prog.units["MenuFrame"])
        assert any(v.rule == "B2" and "menuBar" in v.message for v in out)

    def test_whole_corpus_clean(self):
        prog = load(SWING)
        assert check_program(prog) == []


RESIDENCE_TREES = [
    TD14, TD15, TD_BOTH, SOCKET, SWING, SWING_QUERY, RECORDSET,
    ["witness/witness.pop"], ["threats/twin.pop"], ["shapes/shapes.pop"],
    ["unique_alias/alias.pop"], ["unique_field_span/held.pop"],
    ["protocol_order/order.pop"],
    ["common/timeanddate.pop", "upgrade_renamed/date.pop"],
    ["common/timeanddate.pop", "upgrade_stronger/date.pop"],
]


def scanned_residence(program, goal):
    """goal_residence as a scan of every method for the one goal."""
    paths = []
    for cname in sorted(program.units):
        for m in program.units[cname].methods:
            for g in [None, *range(len(m.optional_groups))]:
                found = [r for atom, r in result_atoms(m, g) if atom == goal]
                found += [r for _, atom, r, _ in subject_effects(m, g) if atom == goal]
                for residence in found:
                    for p in residence:
                        if p not in paths:
                            paths.append(p)
    return tuple(paths)


@pytest.mark.parametrize("files", RESIDENCE_TREES,
                         ids=lambda files: "+".join(f.split("/")[0] for f in files))
def test_goal_residence_table_agrees_with_a_scan(files):
    """For every atom a method mentions and every query goal of the tree."""
    prog = load(files)
    goals = set()
    for unit in prog.units.values():
        for m in unit.methods:
            for g in [None, *range(len(m.optional_groups))]:
                goals.update(atom for _, atom, _ in postconditions(m, g))
                goals.update(atom for _, atom in subject_preconditions(m, g))
    for ctx in all_query_contexts(prog):
        subject = ctx.query.produce_type or ctx.values[ctx.query.target_var].type
        goals.add(prog.normalize_goal(ctx.query.goal_text, subject, ctx.unit))
    assert goals
    for goal in sorted(goals, key=repr):
        assert goal_residence(prog, goal) == scanned_residence(prog, goal), goal
    assert prog.goal_residences is not None and set(prog.goal_residences) <= goals


def test_goal_residence_follows_unit_name_order():
    """Alarm.force and Lock.turn both establish Door.life@wide; Alarm comes
    first by name although Lock comes first in the file."""
    prog = load(["protocol_order/order.pop"])
    assert goal_residence(prog, StateAtom("Door", "life", "wide")) == \
        (("frame",), ("hinge",))


TOUCHED = LabelAtom("Box", "touched")
SHUT = StateAtom("Door", "life", "shut")
WIDE = StateAtom("Door", "life", "wide")
FRAME = (("frame",),)


@pytest.mark.parametrize("cond,before,after,removed,residence,effect", [
    (Invariant(TOUCHED), TOUCHED, TOUCHED, None, (), False),
    (AddLabel(TOUCHED, FRAME), None, TOUCHED, None, FRAME, True),
    (Transition("Door", "life", "shut", "wide", FRAME), SHUT, WIDE, SHUT, FRAME, True),
    (Transition("Door", "life", "shut", "shut"), SHUT, SHUT, SHUT, (), True),
], ids=["invariant", "add", "transition", "self-transition"])
def test_each_condition_reads_one_way_for_a_call(cond, before, after, removed,
                                                 residence, effect):
    """What a condition needs before the call, what holds after it and what
    it removes; every helper reads a condition through these alone. A
    self-transition removes its state and re-establishes it, so it stays a
    subject effect."""
    assert (cond.before, cond.after, cond.removed, cond.residence) == \
        (before, after, removed, residence)
    m = MethodSpec("m", "Door", "void", (),
                   conjuncts=(Conjunct("this", (cond,)), Conjunct("result", (cond,))))
    assert subject_preconditions(m) == ([("this", before)] if before else [])
    assert subject_effects(m) == ([("this", after, residence, removed)] if effect else [])
    assert postconditions(m) == [("this", after, residence), ("result", after, residence)]
    assert result_atoms(m) == [(after, residence)]
