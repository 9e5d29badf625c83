"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n>: PASS` line on success (run with
`pytest -s` to see them inline); a failure raises before the line prints.
"""

import itertools
import re
import time
from pathlib import Path

import pytest

from poplar import synth
from poplar.cli import main as cli_main
from poplar.config import SearchConfig
from poplar.effects import (
    check_class_conformance, check_program, query_contexts,
)
from poplar.model import StateAtom
from poplar.planner import NoSolution, plan_query
from poplar.printer import _render_stmt
from poplar.resolver import load_program

from conftest import (
    CORPUS, RECORDSET, SOCKET, SWING, SWING_QUERY, TD14, TD15,
    all_query_contexts, corpus_sources, load, load_raw, oracle_answers, query_id, query_in,
    walk_violations,
)


def report(n, description):
    print(f"ACCEPTANCE {n}: PASS - {description}")


def flat(text):
    return re.sub(r"\s+", " ", text).strip()


def emit_for(prog, ctx, cfg):
    result = plan_query(prog, ctx, cfg)
    pool = synth.NamePool(synth.method_declared_names(ctx.method))
    stmts = synth.emit_statements(result, pool, ctx.stmt.var, ctx.stmt.type)
    rendered = " ".join(_render_stmt(s, 0)[0] for s in stmts)
    return result, rendered


def test_criterion_1_java14_reproduction(cfg):
    prog = load(TD14)
    started = time.perf_counter()
    result, rendered = emit_for(prog, query_in(prog, "TimeUtils", "printHour"), cfg)
    elapsed = time.perf_counter() - started
    assert flat(rendered) == flat("Date v1 = new Date(); int hour = v1.getHour();")
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "1.4 corpus reproduces the two-statement listing "
              f"in {elapsed * 1000:.0f} ms")


def test_criterion_2_java15_reproduction():
    golden = flat("Calendar v1 = new Calendar(); "
                  "int v2 = Calendar.HOUR_OF_DAY; int hour = v1.get(v2);")
    # Against the 1.5 corpus alone.
    prog = load(TD15)
    started = time.perf_counter()
    result, rendered = emit_for(prog, query_in(prog, "TimeUtils", "printHour"),
                                SearchConfig())
    elapsed = time.perf_counter() - started
    assert flat(rendered) == golden
    assert [a.spec.group for a in result.plan.real_actions()
            if a.spec.group is not None] == [0], "hourMarker group"
    assert elapsed < 1.0
    # Against both corpora with precedence set.
    both = load(["common/timeanddate.pop", "timedate14/date.pop",
                 "timedate15/calendar.pop", "client/timeutils.pop"])
    cfg = SearchConfig(api_precedence={"Calendar": 10})
    result2, rendered2 = emit_for(both, query_in(both, "TimeUtils", "printHour"), cfg)
    assert flat(rendered2) == golden
    report(2, f"1.5 corpus reproduces the three-statement listing with the "
              f"hour-selector group in {elapsed * 1000:.0f} ms")


def _replay_all_linearizations(prog, res, ctx):
    """Exhaustively replay every linearization; protocol transitions must
    always fire from the state the receiver is in."""
    plan = res.plan
    real = [aid for aid in plan.actions if aid not in (0, 1)]
    assert len(real) <= 6
    orders = [(a, b) for a, b in plan.orderings if a not in (0, 1) and b not in (0, 1)]
    admissible = 0
    for perm in itertools.permutations(real):
        pos = {aid: i for i, aid in enumerate(perm)}
        if any(pos[a] > pos[b] for a, b in orders):
            continue
        admissible += 1
        states = {}
        for name, st in ctx.values.items():
            oid = next((o.oid for o in plan.objects.values() if o.ctx_name == name),
                       None)
            if oid is None:
                continue
            for atom in st.facts:
                if isinstance(atom, StateAtom):
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
                        f"{a.spec.label()} fired from state {states.get(key)}"
                states[key] = atom.state
            for atom, _ in a.spec.result_atoms:
                if isinstance(atom, StateAtom) and a.result is not None:
                    states[(a.result, (atom.owner, atom.protocol))] = atom.state
    assert admissible >= 1
    return admissible


def test_criterion_3_socket_ordering(cfg):
    prog = load(SOCKET)
    ctx = query_in(prog, "NetworkServer", "serveClient", 0)
    res = plan_query(prog, ctx, cfg)
    ordered = [a.spec.member for a in res.plan.linearize()]
    assert ordered == ["Socket", "bind", "connect"]
    count = _replay_all_linearizations(prog, res, ctx)
    report(3, f"socket plan is ctor->bind->connect; all {count} admissible "
              f"linearization(s) respect the protocol")


SPAN_CLIENT = """
class SpanClient {{
    void hold({s1}Socket s1, {s2}Socket s2, SocketAddress endpoint)
        mutates {summary}:
        s1: type@bound {{
        #transform(s1, type.open) {{
            s2.close();
        }}
    }}
}}
"""

BROADCAST_SERVER = """
class ClientRequest {
}

class RequestReader {
    labels(ClientRequest) processed;
    resources pending;

    RequestReader();

    ClientRequest nextBroadcast() [!pending]
        mutates any(Socket).connState:
        result: +processed;
}

class NetworkServer {
    void serveClient(SocketAddress endpoint, RequestReader reader)
        mutates any(RequestReader).pending, any(Socket).connState: {
        Socket s = #produce(Socket, type.open)
        {
            ClientRequest cr = #produce(ClientRequest, processed);
        }
        #transform(s, type.closed);
    }
}
"""


def test_criterion_4_span_enforcement(cfg):
    socket_text = (CORPUS / "socket/socket.pop").read_text()

    def spans_of(s1, s2, summary):
        prog = load([], [("socket.pop", socket_text),
                         ("client.pop", SPAN_CLIENT.format(s1=s1, s2=s2,
                                                           summary=summary))])
        unit = prog.units["SpanClient"]
        return walk_violations(prog, unit, unit.methods[0], "E-SPAN")

    both_normal = spans_of("maintain ", "", "any(Socket).connState")
    assert [v.code for v in both_normal] == ["E-SPAN"]
    assert spans_of("maintain ", "unique ", "s1.connState, s2.connState") == []
    assert spans_of("unique ", "", "any(Socket).connState") == []

    # The network-server span: a handwritten statement whose generalized
    # summary hits any(Socket).connState is rejected...
    injected = BROADCAST_SERVER.replace(
        "            ClientRequest cr = #produce(ClientRequest, processed);",
        "            ClientRequest cr = #produce(ClientRequest, processed);\n"
        "            ClientRequest other = reader.nextBroadcast();")
    prog = load([], [("socket.pop", socket_text), ("server.pop", injected)])
    unit = prog.units["NetworkServer"]
    hits = [v for v in walk_violations(prog, unit, unit.methods[0], "E-SPAN")
            if v.code == "E-SPAN"]
    assert hits, "handwritten injection must be flagged"
    # ... and the planner refuses to generate one.
    prog2 = load([], [("socket.pop", socket_text),
                      ("server.pop", BROADCAST_SERVER)])
    ctx = query_in(prog2, "NetworkServer", "serveClient", 1)
    with pytest.raises(NoSolution):
        plan_query(prog2, ctx, cfg)
    report(4, "two-socket method rejected only when both sockets are shared; "
              "server span blocks any(Socket).connState actions in checking "
              "and planning")


MENU_CHAIN = [("JMenuItem", "JMenuItem"), ("JMenuItem", "setMnemonic"),
              ("JMenuItem", "addActionListener"), ("JMenu", "add")]
BUTTON_CHAIN = [("JButton", "JButton"), ("JButton", "setMnemonic"),
                ("JToolBar", "add"), ("JButton", "addActionListener")]


def chain_of(result):
    steps = [(a.spec.owner, a.spec.member) for a in result.plan.linearize()]
    return [s for s in steps if s[0] != "Command"]


def test_criterion_5_swing_duality(cfg):
    prog = load(SWING_QUERY)
    menu_res = plan_query(prog, query_in(prog, "MenuFrame", "installCommand"), cfg)
    toolbar_res = plan_query(prog, query_in(prog, "ToolbarFrame", "installCommand"), cfg)
    assert chain_of(menu_res) == MENU_CHAIN
    assert chain_of(toolbar_res) == BUTTON_CHAIN

    # Forcing the menu chain with a with-clause, in either context.
    forced_sources = [(p, t.replace("#produce(Object, installedInGUI);",
                                    "#produce(Object, installedInGUI) with JMenuItem;"))
                      for p, t in corpus_sources(SWING_QUERY)]
    forced = load_program(forced_sources)
    assert not forced.diagnostics.has_errors
    menu_forced = plan_query(forced, query_in(forced, "MenuFrame", "installCommand"), cfg)
    assert chain_of(menu_forced) == MENU_CHAIN
    try:
        toolbar_forced = plan_query(
            forced, query_in(forced, "ToolbarFrame", "installCommand"), cfg)
        steps = chain_of(toolbar_forced)
        assert ("JMenuItem", "JMenuItem") in steps
        assert all(owner != "JButton" for owner, _ in steps)
        outcome = "menu chain forced in the toolbar context"
    except NoSolution:
        outcome = "toolbar context fails under the with-clause"
    report(5, f"identical query picks the menu chain in MenuFrame and the "
              f"button chain in ToolbarFrame; {outcome}")


def test_criterion_6_oracle_equivalence():
    cases = [TD14, TD15, SOCKET, RECORDSET, SWING_QUERY]
    cfg = SearchConfig(max_plan_length=6)
    compared = 0
    for files in cases:
        prog = load(files)
        for ctx in all_query_contexts(prog):
            expected = oracle_answers(tuple(files))[query_id(ctx)]
            try:
                got = plan_query(prog, ctx, cfg).action_count()
            except NoSolution:
                got = None
            want = expected[0] if expected else None
            assert got == want, (f"{ctx.unit}.{ctx.method.name} "
                                 f"#{ctx.query.kind}({ctx.query.goal_text}): "
                                 f"planner={got} oracle={want}")
            compared += 1
    assert compared == 8
    report(6, f"brute-force enumeration agrees with the planner on all "
              f"{compared} corpus queries (solvability and minimal length)")


CONFORMANCE_BASE = """
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
    {members}
}}
"""

BULLET_CASES = {
    "B1": ("void paint(maintain Brush brush) [!face]\n        this: +ready;",
           "void paint(maintain Brush brush) [!face]\n        this: ready, life@running;"),
    "B2": ("managed(face) unique Brush ownBrush;\n"
           "    void paint(maintain Brush brush) [!face]\n"
           "        mutates ownBrush:\n        this: ready;",
           "managed(face) Brush extraBrush;\n"
           "    void paint(maintain Brush brush) [!face]\n"
           "        mutates extraBrush:\n        this: ready;"),
    "B3": ("void boot()\n        [!guts]\n"
           "        this: life@fresh->running [*guts];",
           "void boot()\n        [!guts]\n"
           "        this: life@fresh->stalled [*guts];"),
    "B5": ("resources trim;", "resources face;"),
    "B6": ("void paint(maintain Brush brush) [!face]\n        this: ready;",
           "void paint(maintain Brush brush) [!face, guts]\n        this: ready;"),
}


def _conformance_violations(members):
    prog = load_raw([], [("a.pop", CONFORMANCE_BASE.format(members=members))])
    assert not prog.diagnostics.has_errors, prog.diagnostics.render()
    return check_class_conformance(prog, prog.units["Fancy"])


def test_criterion_7_conformance_suite():
    for bullet, (passing, failing) in BULLET_CASES.items():
        ok = _conformance_violations(passing)
        assert [v for v in ok if v.rule == bullet] == [], f"{bullet} pass case"
        bad = _conformance_violations(failing)
        assert any(v.rule == bullet for v in bad), f"{bullet} fail case"
    # B4 pass and fail.
    b4 = load_raw([], [("a.pop", """
class Base { void take(unique Object x); unique Object give(); }
class Good extends Base { void take(maintain Object x); uniquer Object give(); }
class Bad extends Base { void take(Object x); Object give(); }
""")])
    assert [v for v in check_class_conformance(b4, b4.units["Good"])
            if v.rule == "B4"] == []
    assert any(v.rule == "B4"
               for v in check_class_conformance(b4, b4.units["Bad"]))
    # B7 pass and fail.
    b7 = load_raw([], [("a.pop", """
class Base { resources look; managed(look) unique Brush brush; Base(); }
class Brush { Brush(); }
class Good extends Base { managed(look) unique Brush trim; }
class Bad extends Base { managed(look) Brush brush; }
""")])
    assert [v for v in check_class_conformance(b7, b7.units["Good"])
            if v.rule == "B7"] == []
    assert any(v.rule == "B7"
               for v in check_class_conformance(b7, b7.units["Bad"]))
    # The GUI frames conform exactly as written.
    swing = load(SWING)
    assert check_class_conformance(swing, swing.units["MenuFrame"]) == []
    assert check_class_conformance(swing, swing.units["ToolbarFrame"]) == []
    assert check_program(swing) == []
    report(7, "all seven subclassing rules have passing and failing cases; "
              "the frame subclasses pass as written")


def test_criterion_8_upgrade_verification(tmp_path, capsys):
    store = tmp_path / "assumptions"
    code = cli_main(["synth", str(CORPUS / "common"), str(CORPUS / "timedate14"),
                     str(CORPUS / "client"), "--out", str(store)])
    capsys.readouterr()
    assert code == 0
    code_renamed = cli_main(["verify-upgrade", "--assumptions", str(store),
                             str(CORPUS / "common"),
                             str(CORPUS / "upgrade_renamed")])
    out_renamed = capsys.readouterr().out
    assert code_renamed == 1 and "incompatible" in out_renamed
    code_stronger = cli_main(["verify-upgrade", "--assumptions", str(store),
                              str(CORPUS / "common"),
                              str(CORPUS / "upgrade_stronger")])
    out_stronger = capsys.readouterr().out
    assert code_stronger == 0 and out_stronger.startswith("ok ")
    report(8, "rename detected as incompatible, strengthened postcondition "
              "accepted, both without re-planning")


def test_criterion_9_determinism(tmp_path, capsys):
    corpora = [
        [str(CORPUS / "common"), str(CORPUS / "timedate14"), str(CORPUS / "client")],
        [str(CORPUS / "socket")],
        [str(CORPUS / "recordset")],
        [str(CORPUS / "swing" / "toolkit.pop"), str(CORPUS / "swing" / "widgets.pop"),
         str(CORPUS / "swing_query" / "frames.pop")],
    ]
    for i, paths in enumerate(corpora):
        trees = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{i}-{attempt}"
            code = cli_main(["synth", *paths, "--out", str(out_dir)])
            capsys.readouterr()
            assert code == 0
            trees.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
        assert trees[0] == trees[1], f"corpus {i} not byte-stable"
    report(9, "two consecutive synthesis runs are byte-identical on every corpus")
