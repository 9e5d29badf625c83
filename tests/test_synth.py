"""Statement emission, splicing, assumptions, and upgrade compatibility."""

import re

import pytest

from poplar import printer, synth
from poplar.config import SearchConfig
from poplar.effects import check_program, query_contexts
from poplar.model import FieldDecl, LabelAtom, VarDeclStmt
from poplar.parser import parse_unit
from poplar.planner import plan_query
from poplar.resolver import load_program

from conftest import (
    RECORDSET, SOCKET, SWING_QUERY, TD14, TD15, TD_BOTH, corpus_sources,
    inferred_summary, load, query_in, stored,
)


def solve_queries(prog, cfg):
    solutions = {}
    for cname in sorted(prog.units):
        unit = prog.units[cname]
        for m in unit.methods:
            if m.body is None:
                continue
            pool = synth.NamePool(synth.method_declared_names(m))
            for ctx in query_contexts(prog, unit, m):
                result = plan_query(prog, ctx, cfg)
                stmts = synth.emit_statements(result, pool, ctx.stmt.var, ctx.stmt.type)
                solutions[id(ctx.stmt)] = synth.Solution(result, stmts)
    return solutions


def splice_and_render(files, cfg, extra=None):
    prog = load(files, extra)
    solutions = solve_queries(prog, cfg)
    spliced = synth.splice_program(prog, solutions)
    return prog, spliced, synth.render_plain(spliced)


def flat(text):
    return re.sub(r"\s+", " ", text).strip()


class TestLinearize:
    def test_date_plan_order(self, cfg):
        prog = load(TD14)
        res = plan_query(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        ordered = [a.spec.member for a in res.plan.linearize()]
        assert ordered == ["Date", "getHour"]

    def test_calendar_plan_order(self, cfg):
        prog = load(TD15)
        res = plan_query(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
        ordered = [a.spec.member for a in res.plan.linearize()]
        assert ordered == ["Calendar", "HOUR_OF_DAY", "get"]

    def test_single_action_plan(self, cfg):
        prog = load(RECORDSET)
        res = plan_query(prog, query_in(prog, "RecordSet", "setInverseSorting"), cfg)
        assert [a.spec.member for a in res.plan.linearize()] == ["invert"]


class TestEmission:
    def test_date_statements(self, cfg):
        prog = load(TD14)
        ctx = query_in(prog, "TimeUtils", "printHour")
        res = plan_query(prog, ctx, cfg)
        pool = synth.NamePool(synth.method_declared_names(ctx.method))
        stmts = synth.emit_statements(res, pool, "hour", "int")
        rendered = [printer._render_stmt(s, 0)[0] for s in stmts]
        assert rendered == ["Date v1 = new Date();", "int hour = v1.getHour();"]

    def test_calendar_statements_use_constructed_type(self, cfg):
        prog = load(TD15)
        ctx = query_in(prog, "TimeUtils", "printHour")
        res = plan_query(prog, ctx, cfg)
        pool = synth.NamePool(synth.method_declared_names(ctx.method))
        stmts = synth.emit_statements(res, pool, "hour", "int")
        rendered = [printer._render_stmt(s, 0)[0] for s in stmts]
        assert rendered == ["Calendar v1 = new Calendar();",
                            "int v2 = Calendar.HOUR_OF_DAY;",
                            "int hour = v1.get(v2);"]

    def test_empty_plan_aliases_existing_variable(self, cfg):
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
        ctx = query_in(prog, "Client", "use")
        res = plan_query(prog, ctx, cfg)
        pool = synth.NamePool(synth.method_declared_names(ctx.method))
        stmts = synth.emit_statements(res, pool, "t", "Thing")
        rendered = [printer._render_stmt(s, 0)[0] for s in stmts]
        assert rendered == ["Thing t = ready;"]

    def test_taken_v_indices_are_skipped(self, cfg):
        prog = load(TD14, [("client2.pop", """
class Shadow implements TimeAndDate {
    void run() {
        int v1 = 5;
        int hour = #produce(int, nowHour);
    }
}
""")])
        ctx = query_in(prog, "Shadow", "run")
        res = plan_query(prog, ctx, cfg)
        pool = synth.NamePool(synth.method_declared_names(ctx.method))
        stmts = synth.emit_statements(res, pool, "hour", "int")
        rendered = [printer._render_stmt(s, 0)[0] for s in stmts]
        assert rendered == ["Date v2 = new Date();", "int hour = v2.getHour();"]


class TestSubstitute:
    def test_time_utils_golden(self, cfg):
        _, _, plain = splice_and_render(TD14, cfg)
        client = next(text for path, text in plain.items() if "timeutils" in path)
        assert flat(client) == flat("""
class TimeUtils implements TimeAndDate {
    void printHour() {
        Date v1 = new Date();
        int hour = v1.getHour();
    }
}
""")

    def test_no_queries_strip_is_fixpoint(self, cfg):
        prog = load(SOCKET)
        spliced = synth.splice_program(prog, solve_queries(prog, cfg))
        plain_once = synth.render_plain(spliced)
        reparsed = load_program(sorted(plain_once.items()))
        assert not reparsed.diagnostics.has_errors, reparsed.diagnostics.render()
        plain_twice = synth.render_plain(reparsed)
        for path in plain_once:
            twice = plain_twice[path]
            assert flat(plain_once[path]) == flat(twice)

    def test_output_reparses_under_plain_grammar(self, cfg):
        _, _, plain = splice_and_render(SWING_QUERY, cfg)
        for path, text in plain.items():
            decls = parse_unit(text)
            assert decls  # parses
            assert "#" not in text and "labels" not in text.split("{")[0]

    def test_splice_copies_only_what_it_changes(self):
        """A spliced method differs from its original in `body` and
        `mutates` alone, and its class in `methods` alone; the original
        program stays as it was."""
        prog = load(TD14)
        before = {c: (stored(u), [stored(m) for m in u.methods]) for c, u in prog.units.items()}
        cfg = SearchConfig(summary_rewrite_policy="rewrite")
        spliced = synth.splice_program(prog, solve_queries(prog, cfg))

        def changed(record, fields):
            assert stored(record).keys() == fields.keys()
            return {k for k, v in stored(record).items() if v is not fields[k]}

        for cname, (unit, methods) in before.items():
            assert changed(prog.units[cname], unit) == set()
            assert changed(spliced.units[cname], unit) == {"methods"}
            for m, kept, copy in zip(methods, prog.units[cname].methods,
                                     spliced.units[cname].methods):
                assert changed(kept, m) == set()
                spliced_fields = {"body", "mutates"} if m["body"] is not None else set()
                assert changed(copy, m) <= spliced_fields

    def test_a_field_read_records_its_labels_sorted(self):
        fld = FieldDecl("f", "int", "T", labels=(LabelAtom("T", "z"), LabelAtom("T", "a")))
        assert synth.field_read_entries(fld) == ("int f", ("result T.a", "result T.z"))

    def test_unsolved_query_raises(self, cfg):
        prog = load(TD14)
        with pytest.raises(synth.UnsolvedQueryRemains):
            synth.splice_program(prog, {})

    def test_two_queries_share_scope_without_collisions(self, cfg):
        prog, spliced, plain = splice_and_render(TD14, cfg, [("two.pop", """
class Twice implements TimeAndDate {
    void run() {
        int hour = #produce(int, nowHour);
        int minute = #produce(int, nowMinute);
    }
}
""")])
        text = next(t for p, t in plain.items() if "two" in p)
        reparsed = parse_unit(text)
        body = reparsed[0].methods[0].body
        declared = [s.name for s in body if isinstance(s, VarDeclStmt)]
        assert len(declared) == len(set(declared)), declared
        assert declared == ["v1", "hour", "v2", "minute"]

    def test_splice_soundness_on_every_corpus(self, cfg):
        for files in (TD14, TD15, SOCKET, RECORDSET, SWING_QUERY):
            prog, spliced, _ = splice_and_render(files, cfg)
            assert check_program(spliced) == [], files

    def test_spliced_spans_become_plain_blocks(self, cfg):
        _, _, plain = splice_and_render(SOCKET, cfg)
        server = next(t for p, t in plain.items() if "server" in p)
        assert "#produce" not in server and "#transform" not in server
        assert "{" in server


class TestAssumptions:
    def make(self, files, unit, method, cfg, index=0):
        prog = load(files)
        ctx = query_in(prog, unit, method, index)
        res = plan_query(prog, ctx, cfg)
        corpus = synth.fingerprint_sources(corpus_sources(files))
        return prog, synth.emit_assumptions(res, "q:1", corpus, prog)

    def test_date_records(self, cfg):
        prog, a = self.make(TD14, "TimeUtils", "printHour", cfg)
        assert [(r.type, r.member, r.kind) for r in a.records] == \
            [("Date", "Date", "ctor"), ("Date", "getHour", "invoke")]
        get_hour = a.records[1]
        assert get_hour.signature == "int getHour()"
        assert get_hour.pre == ("this Date.currentTime",)
        assert "result TimeAndDate.nowHour" in get_hour.post

    def test_empty_plan_has_no_records(self, cfg):
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
        ctx = query_in(prog, "Client", "use")
        res = plan_query(prog, ctx, cfg)
        a = synth.emit_assumptions(res, "q:1", "fp", prog)
        assert a.records == []

    def test_menu_plan_contains_the_four_chain_records(self, cfg):
        prog, a = self.make(SWING_QUERY, "MenuFrame", "installCommand", cfg)
        chain = [(r.type, r.member) for r in a.records
                 if (r.type, r.member) != ("Command", "getTitle")
                 and (r.type, r.member) != ("Command", "getMnemonic")]
        assert chain == [("JMenuItem", "JMenuItem"),
                         ("JMenuItem", "setMnemonic"),
                         ("JMenuItem", "addActionListener"),
                         ("JMenu", "add")]

    def test_serialization_round_trip_is_byte_identical(self, cfg):
        prog, a = self.make(TD14, "TimeUtils", "printHour", cfg)
        text = synth.serialize_assumptions([a])
        parsed = synth.parse_assumptions(text, "q.assume")
        again = synth.serialize_assumptions(parsed)
        assert text == again

    def test_compat_against_same_program_is_ok(self, cfg):
        for files in (TD14, TD15, SOCKET, RECORDSET, SWING_QUERY):
            prog = load(files)
            corpus = synth.fingerprint_sources(corpus_sources(files))
            for cname in sorted(prog.units):
                unit = prog.units[cname]
                for m in unit.methods:
                    if m.body is None:
                        continue
                    for ctx in query_contexts(prog, unit, m):
                        res = plan_query(prog, ctx, cfg)
                        a = synth.emit_assumptions(res, "q", corpus, prog)
                        assert synth.check_compat(a, prog) == [], (files, cname)


class TestCompat:
    def assumptions_for_date(self, cfg):
        prog = load(TD14)
        ctx = query_in(prog, "TimeUtils", "printHour")
        res = plan_query(prog, ctx, cfg)
        return synth.emit_assumptions(res, "q:1", "fp", prog)

    def test_renamed_member_incompatible(self, cfg):
        a = self.assumptions_for_date(cfg)
        new = load(["common/timeanddate.pop", "upgrade_renamed/date.pop"])
        problems = synth.check_compat(a, new)
        assert any(p.rule == "member-missing" for p in problems)

    def test_strengthened_postcondition_compatible(self, cfg):
        a = self.assumptions_for_date(cfg)
        new = load(["common/timeanddate.pop", "upgrade_stronger/date.pop"])
        assert synth.check_compat(a, new) == []

    def test_strengthened_precondition_incompatible(self, cfg):
        a = self.assumptions_for_date(cfg)
        text = """
class Date implements TimeAndDate {
    labels currentTime, calibrated;

    Date()
        result: +currentTime;

    int getHour()
        this: currentTime, calibrated,
        result: +nowHour;

    int getMinute()
        this: currentTime,
        result: +nowMinute;
}
"""
        new = load(["common/timeanddate.pop"], [("date.pop", text)])
        problems = synth.check_compat(a, new)
        assert any(p.rule == "conditions" for p in problems)

    def test_grown_mutations_incompatible(self, cfg):
        a = self.assumptions_for_date(cfg)
        text = """
class Date implements TimeAndDate {
    labels currentTime;
    resources clockwork;

    Date()
        result: +currentTime;

    int getHour() [!clockwork]
        this: currentTime,
        result: +nowHour;

    int getMinute()
        this: currentTime,
        result: +nowMinute;
}
"""
        new = load(["common/timeanddate.pop"], [("date.pop", text)])
        problems = synth.check_compat(a, new)
        assert any(p.rule == "mutations-grew" for p in problems)

    def test_strengthened_argument_promise_is_compatible(self, cfg):
        prog = load(SOCKET)
        ctx = query_in(prog, "NetworkServer", "serveClient", 0)
        res = plan_query(prog, ctx, cfg)
        a = synth.emit_assumptions(res, "q", "fp", prog)
        relaxed = (corpus_sources(SOCKET)[0][1]
                   .replace("void bind(SocketAddress bindPoint)",
                            "void bind(maintain SocketAddress bindPoint)"))
        # maintain promises more than normal; existing callers keep working.
        new = load_program([("socket.pop", relaxed),
                            ("server.pop", corpus_sources(SOCKET)[1][1])])
        assert not new.diagnostics.has_errors
        assert synth.check_compat(a, new) == []

    def test_weakened_argument_kind_incompatible(self, cfg):
        prog = load(SWING_QUERY)
        ctx = query_in(prog, "MenuFrame", "installCommand")
        res = plan_query(prog, ctx, cfg)
        a = synth.emit_assumptions(res, "q", "fp", prog)
        sources = corpus_sources(SWING_QUERY)
        weakened = [(p, t.replace("void add(maintain JMenuItem item) [!contents];",
                                  "void add(JMenuItem item) [!contents];"))
                    for p, t in sources]
        new = load_program(weakened)
        assert not new.diagnostics.has_errors
        problems = synth.check_compat(a, new)
        assert any(p.rule == "kind-lattice" for p in problems)


class TestRewritePolicy:
    NARROW = """
class Knob {
    labels twisted;
    resources grip;

    Knob();

    void twist() [!grip]
        this: +twisted;
}

class Panel {
    resources lights, hardware;
    managed(hardware) unique Knob knob = new Knob();

    Panel();

    void adjust()
        mutates lights: {
        #transform(knob, twisted);
    }
}
"""

    def test_reject_policy_refuses_summary_overflow(self):
        from poplar.planner import NoSolution
        from poplar.config import SearchConfig
        prog = load([], [("a.pop", self.NARROW)])
        ctx = query_in(prog, "Panel", "adjust")
        with pytest.raises(NoSolution):
            plan_query(prog, ctx, SearchConfig(summary_rewrite_policy="reject"))

    def test_rewrite_policy_widens_the_spliced_summary(self):
        from poplar.config import SearchConfig
        prog = load([], [("a.pop", self.NARROW)])
        ctx = query_in(prog, "Panel", "adjust")
        res = plan_query(prog, ctx, SearchConfig(summary_rewrite_policy="rewrite"))
        sol = {id(ctx.stmt): synth.Solution(
            res, synth.emit_statements(res, synth.NamePool(set())))}
        spliced = synth.splice_program(prog, sol)
        adjust = [m for m in spliced.units["Panel"].methods
                  if m.name == "adjust"][0]
        assert [t.text() for t in adjust.mutates] == ["this.lights",
                                                      "this.knob.grip"]
        assert check_program(spliced) == []


class TestSharedValues:
    def test_merged_value_is_emitted_once(self, cfg):
        forced = [(p, t.replace("#produce(Object, installedInGUI);",
                                "#produce(Object, installedInGUI) with JMenuItem;"))
                  for p, t in corpus_sources(SWING_QUERY)]
        prog = load_program(forced)
        assert not prog.diagnostics.has_errors
        ctx = query_in(prog, "ToolbarFrame", "installCommand")
        res = plan_query(prog, ctx, cfg)
        stmts = synth.emit_statements(res, synth.NamePool({"command"}))
        rendered = [printer._render_stmt(s, 0)[0] for s in stmts]
        title_calls = [line for line in rendered if "getTitle" in line]
        assert len(title_calls) == 1  # one title read feeds both constructors
        assert any("new JMenuItem(v1)" in line for line in rendered)
        assert any("new JMenu(v1)" in line for line in rendered)


# Every tree here solves all of its queries under both summary policies.
ONE_RULE_TREES = {
    "td14": TD14,
    "td15": TD15,
    "td_both": TD_BOTH,
    "socket": SOCKET,
    "swing_query": SWING_QUERY,
    "recordset": RECORDSET,
    "witness": ["witness/witness.pop"],
    "threats": ["threats/twin.pop"],
    "shapes": ["shapes/shapes.pop"],
    "unique_local_transform": ["unique_local_transform/transform.pop"],
}


@pytest.mark.parametrize("policy", ["reject", "rewrite"])
@pytest.mark.parametrize("tree", sorted(ONE_RULE_TREES))
def test_plan_mutations_are_named_as_the_checker_names_them(tree, policy):
    """Each mutation the planner reports for a solution is one that the
    checker infers for the method once the solution is spliced in."""
    prog = load(ONE_RULE_TREES[tree])
    cfg = SearchConfig(summary_rewrite_policy=policy)
    solutions = {}
    for cname in sorted(prog.units):
        unit = prog.units[cname]
        for m in unit.methods:
            if m.body is None:
                continue
            pool = synth.NamePool(synth.method_declared_names(m))
            for ctx in query_contexts(prog, unit, m):
                result = plan_query(prog, ctx, cfg)
                stmts = synth.emit_statements(result, pool, ctx.stmt.var, ctx.stmt.type)
                solutions[id(ctx.stmt)] = synth.Solution(result, stmts)
    assert solutions
    spliced = synth.splice_program(prog, solutions)
    for sol in solutions.values():
        ctx = sol.result.ctx
        unit = prog.units[ctx.unit]
        index = next(i for i, m in enumerate(unit.methods) if m is ctx.method)
        inferred = inferred_summary(spliced, spliced.units[ctx.unit],
                                    spliced.units[ctx.unit].methods[index])
        assert sol.result.solution_targets <= inferred, (
            sorted(t.text() for t in sol.result.solution_targets),
            sorted(t.text() for t in inferred))

