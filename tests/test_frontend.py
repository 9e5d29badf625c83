"""Lexer, parser, resolver and external-overlay behavior."""

import hashlib
import sys
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poplar import parser as P
from poplar.lexer import tokenize
from poplar.model import (
    AddLabel, Conjunct, Invariant, LabelAtom, MutationTarget, StateAtom,
    Transition, UniquenessKind,
)
from poplar.resolver import load_program

from conftest import (
    CORPUS, SOCKET, SWING, TD14, TD15, corpus_sources, load,
    load_raw, stored,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402


def method(prog, cls, name):
    for m in prog.units[cls].methods:
        if m.name == name:
            return m
    raise AssertionError(f"no {cls}.{name}")


def field_tree(x):
    """`x` with every model object replaced by its class name and what it
    stores, read the same way, all the way down."""
    if isinstance(x, (list, tuple)):
        return [field_tree(v) for v in x]
    if type(x).__module__.startswith("poplar.") and not isinstance(x, Enum):
        return type(x).__name__, {k: field_tree(v) for k, v in stored(x).items()}
    return x


class TestParsing:
    def test_time_and_date_figure(self):
        prog = load(TD14)
        date = prog.units["Date"]
        ctor = next(m for m in date.methods if m.is_constructor)
        assert ctor.conjuncts == (Conjunct("result", (AddLabel(LabelAtom("Date", "currentTime")),)),)
        get_hour = method(prog, "Date", "getHour")
        assert Conjunct("this", (Invariant(LabelAtom("Date", "currentTime")),)) in get_hour.conjuncts
        assert Conjunct("result", (AddLabel(LabelAtom("TimeAndDate", "nowHour")),)) in get_hour.conjuncts

    def test_optional_groups_parsed(self):
        prog = load(TD15)
        get = method(prog, "Calendar", "get")
        assert len(get.optional_groups) == 2
        first = get.optional_groups[0]
        assert Conjunct("selector", (Invariant(LabelAtom("Calendar", "hourMarker")),)) in first

    def test_empty_class(self):
        decls = P.parse_unit("class Empty { }")
        assert len(decls) == 1
        d = decls[0]
        assert (d.fields, d.methods, d.labels, d.protocols, d.resources) == \
            ([], [], [], [], ())

    def test_local_mutations_and_residence(self):
        prog = load(SOCKET)
        bind = method(prog, "Socket", "bind")
        assert bind.local_mutations == (("connState",),)
        transition = bind.conjuncts[0].conditions[0]
        assert isinstance(transition, Transition)
        assert (transition.source, transition.target) == ("raw", "bound")
        assert transition.residence == (("connState",),)

    def test_unknown_annotation_keyword_is_an_error(self):
        with pytest.raises(P.SyntaxIssue):
            P.parse_unit("class C { void m() wibble x: ; }")

    def test_positioned_error(self):
        try:
            P.parse_unit("class C {\n  int f = ;\n}")
        except P.SyntaxIssue as e:
            assert e.pos.line == 2
        else:
            raise AssertionError("expected a syntax error")

    def test_postfix_expressions_sit_at_their_member_name(self):
        decls = P.parse_unit("class C {\n  void m() {\n  a.b().c;\n  }\n}")
        field = decls[0].methods[0].body[0].expr
        call = field.receiver
        assert (field.field, field.pos.line, field.pos.col) == ("c", 3, 9)
        assert (call.method, call.pos.line, call.pos.col) == ("b", 3, 5)

    def test_query_span_and_with(self):
        decls = P.parse_unit("""
class C {
    void m(Socket s) {
        Socket t = #produce(Socket, type.open) with JMenuItem, helper
        {
            s.close();
        }
    }
}
""")
        stmt = decls[0].methods[0].body[0]
        assert (stmt.type, stmt.var) == ("Socket", "t")
        assert stmt.query.with_names == ("JMenuItem", "helper")
        assert stmt.span is not None and len(stmt.span) == 1

    def test_protect_statement(self):
        decls = P.parse_unit("""
class C {
    void m(Socket s) {
        protect s.connState {
            s.close();
        }
    }
}
""")
        stmt = decls[0].methods[0].body[0]
        assert stmt.var == "s" and stmt.resource == ("connState",)

    def test_parsing_deterministic(self):
        text = (CORPUS / "swing/frames.pop").read_text()
        # Declarations compare by identity, so compare their field values.
        assert field_tree(P.parse_unit(text)) == field_tree(P.parse_unit(text))


class TestResolution:
    def test_label_resolves_through_interface(self):
        prog = load(TD14)
        get_hour = method(prog, "Date", "getHour")
        result = [cj for cj in get_hour.conjuncts if cj.subject == "result"][0]
        assert result.conditions[0].atom == LabelAtom("TimeAndDate", "nowHour")

    def test_ambiguous_unqualified_label(self):
        prog = load_raw([], [("a.pop", """
interface Left { labels(int) mark; }
interface Right { labels(int) mark; }
class Both implements Left, Right {
    int pick()
        result: +mark;
}
""")])
        assert prog.diagnostics.has_errors
        assert any("ambiguous label" in d.message for d in prog.diagnostics.items)

    def test_qualifier_removes_ambiguity(self):
        prog = load_raw([], [("a.pop", """
interface Left { labels(int) mark; }
interface Right { labels(int) mark; }
class Both implements Left, Right {
    int pick()
        result: +Left.mark;
}
""")])
        assert not prog.diagnostics.has_errors

    def test_unresolved_name(self):
        prog = load_raw([], [("a.pop", "class C { int m() result: +missing; }")])
        assert any("unresolved label" in d.message for d in prog.diagnostics.items)

    def test_duplicate_type_names(self):
        prog = load_raw([], [("a.pop", "class C { }"), ("b.pop", "class C { }")])
        assert any("duplicate type name" in d.message for d in prog.diagnostics.items)

    def test_unknown_supertype(self):
        prog = load_raw([], [("a.pop", "class C extends Ghost { }")])
        assert any("unknown superclass" in d.message for d in prog.diagnostics.items)

    def test_summary_mentioned_field_promoted_to_managed(self):
        prog = load(SWING)
        fld = prog.units["SmartFrame"].fields[2]
        assert fld.name == "widgetList" and fld.managed

    def test_diagnostic_format(self):
        prog = load_raw([], [("corp/a.pop", "class C { int m() result: +missing; }")])
        line = prog.diagnostics.render()
        assert line.startswith("corp/a.pop:")
        parts = line.split(": ", 3)
        assert parts[1] == "error" and parts[2] == "E-RES"


def bound_conjuncts(conjuncts):
    return type(conjuncts) is tuple and all(
        isinstance(cj, Conjunct) and type(cj.conditions) is tuple
        and all(isinstance(c, (Invariant, AddLabel, Transition)) for c in cj.conditions)
        for cj in conjuncts)


def tuple_of(values, kind):
    return type(values) is tuple and all(isinstance(v, kind) for v in values)


@pytest.mark.parametrize("tree", sorted(d.name for d in CORPUS.iterdir() if d.is_dir()))
def test_resolution_binds_every_annotation_slot(tree):
    """The parser leaves annotation names as written in these slots; once
    `load_program` returns, each holds only bound values, on the methods
    of every external too, whether or not the tree resolves clean."""
    files = sorted(str(f.relative_to(CORPUS)) for f in (CORPUS / tree).rglob("*.pop"))
    prog = load_raw(files)
    units = [u for name, u in prog.units.items() if name in prog.unit_paths]
    assert units
    for unit in units:
        for f in unit.fields:
            assert tuple_of(f.labels, LabelAtom), (unit.name, f.name)
        for m in unit.methods + [ex.method for ex in unit.externals]:
            where = (unit.name, m.name)
            assert tuple_of(m.result_labels, LabelAtom), where
            assert tuple_of(m.mutates, MutationTarget), where
            assert tuple_of(m.local_mutations, tuple), where
            assert all(tuple_of(p, str) for p in m.local_mutations), where
            assert bound_conjuncts(m.conjuncts), where
            assert type(m.optional_groups) is tuple, where
            assert all(bound_conjuncts(g) for g in m.optional_groups), where


class TestOverlay:
    def test_external_merges_transition_onto_target(self):
        prog = load(SWING)
        set_mnemonic = method(prog, "JButton", "setMnemonic")
        transitions = [c for cj in set_mnemonic.conjuncts for c in cj.conditions
                       if isinstance(c, Transition)]
        assert transitions == [Transition("Command", "addAction", "1", "2")]
        # The target's own mutation annotations survive alongside.
        assert set_mnemonic.local_mutations == (("appearance",),)
        # The overlay's conjuncts, under the target's parameter names, are
        # among the target's.
        ex = next(ex for ex in prog.units["Command"].externals
                  if ex.method.name == "setMnemonic")
        overlay = ex.method.renamed([a.name for a in set_mnemonic.args])
        assert overlay.conjuncts and set(overlay.conjuncts) <= set(set_mnemonic.conjuncts)

    def test_external_argument_names_rename_to_target(self):
        prog = load(SWING)
        add = method(prog, "JToolBar", "add")
        # The overlay wrote `button: ...` but the target declares `button`.
        subjects = {cj.subject for cj in add.conjuncts}
        assert subjects == {"button"}

    def test_overlay_onto_bare_method_gains_exactly_the_external(self):
        prog = load_raw([], [("a.pop", """
class Target {
    void poke();
}
class Annotator {
    labels(Target) poked;
    external Target.poke()
        this: +poked;
}
""")])
        assert not prog.diagnostics.has_errors
        poke = method(prog, "Target", "poke")
        assert poke.conjuncts == (Conjunct("this", (AddLabel(LabelAtom("Annotator", "poked")),)),)

    def test_dangling_external(self):
        prog = load_raw([], [("a.pop", """
class Target { }
class Annotator {
    labels(Target) poked;
    external Target.poke()
        this: +poked;
}
""")])
        assert any("dangling external" in d.message for d in prog.diagnostics.items)

    def test_conflicting_overlay(self):
        prog = load_raw([], [("a.pop", """
class Other { void spin(); }
class Annotator {
    protocols(Annotator) wheel;
    Annotator()
        result: +wheel@1;
    external Other.spin()
        this: wheel@1->2;
}
""")])
        assert [d.message for d in prog.diagnostics.items] == [
            "protocol 'Annotator.wheel' does not apply to type 'Other' (carriers: Annotator)"]

    def test_interclass_protocol_carriers(self):
        prog = load(SWING)
        proto = prog.units["Command"].protocols[0]
        assert proto.carriers == ("JButton", "JMenuItem")


class TestGrammarCoverage:
    """Every concrete production has at least one corpus witness."""

    def all_corpus_programs(self):
        groups = [
            ["common/timeanddate.pop", "timedate14/date.pop", "client/timeutils.pop"],
            ["common/timeanddate.pop", "timedate15/calendar.pop"],
            ["socket/socket.pop", "socket/server.pop", "socket/util.pop"],
            ["swing/toolkit.pop", "swing/widgets.pop", "swing/frames.pop"],
            ["recordset/records.pop"],
            ["witness/witness.pop"],
        ]
        return [load(files) for files in groups]

    def test_every_production_is_witnessed(self):
        from poplar.model import (
            AddLabel, AssignStmt, Invariant, ProtectStmt, QueryStmt,
            StateAtom, Transition, UniquenessKind, VarDeclStmt,
        )
        seen = set()
        for prog in self.all_corpus_programs():
            for cname, unit in prog.units.items():
                if prog.unit_paths.get(cname) is None:
                    continue
                if unit.is_interface:
                    seen.add("interface")
                else:
                    seen.add("class")
                if unit.superclass:
                    seen.add("extends")
                if unit.interfaces:
                    seen.add("implements")
                if unit.labels:
                    seen.add("labels")
                    if any(ld.carriers for ld in unit.labels):
                        seen.add("labels-carriers")
                if unit.protocols:
                    seen.add("protocols")
                    if any(p.carriers for p in unit.protocols):
                        seen.add("protocols-carriers")
                for node in unit.resources:
                    seen.add("resources")
                    if node.children:
                        seen.add("resources-nested")
                if unit.externals:
                    seen.add("external")
                    if any(e.method.is_constructor for e in unit.externals):
                        seen.add("external-ctor")
                for f in unit.fields:
                    seen.add("field")
                    if f.managed:
                        seen.add("field-managed")
                    if f.labels:
                        seen.add("field-labels")
                    if f.initializer is not None:
                        seen.add("field-initializer")
                    if f.uniqueness is not UniquenessKind.NORMAL:
                        seen.add("field-uniqueness")
                    if f.is_static:
                        seen.add("field-static")
                for m in unit.methods:
                    if m.is_constructor:
                        seen.add("constructor")
                    if m.is_abstract:
                        seen.add("abstract-method")
                    if m.result_labels:
                        seen.add("result-label-prefix")
                    if m.return_uniqueness is not UniquenessKind.NORMAL:
                        seen.add("return-uniqueness")
                    if any(a.uniqueness is not UniquenessKind.NORMAL for a in m.args):
                        seen.add("arg-uniqueness")
                    if any(a.type.endswith("[]") for a in m.args):
                        seen.add("array-type")
                    if m.local_mutations:
                        seen.add("local-mutations")
                    if m.mutates:
                        seen.add("mutates-clause")
                        if any(t.root_kind == "any" for t in m.mutates):
                            seen.add("mutates-any")
                        if any(t.root_kind == "var" for t in m.mutates):
                            seen.add("mutates-arg")
                        if any(t.root_kind == "this" for t in m.mutates):
                            seen.add("mutates-this")
                    if m.optional_groups:
                        seen.add("optional-groups")
                    for cj in m.conjuncts + tuple(c for g in m.optional_groups for c in g):
                        for cond in cj.conditions:
                            if isinstance(cond, Invariant):
                                seen.add("invariant-label"
                                         if not isinstance(cond.atom, StateAtom)
                                         else "invariant-state")
                            elif isinstance(cond, AddLabel):
                                seen.add("add-state" if isinstance(cond.atom, StateAtom)
                                         else "add-label")
                                if cond.residence:
                                    seen.add("residence")
                            elif isinstance(cond, Transition):
                                seen.add("transition")
                                if cond.residence:
                                    seen.add("residence")

                    def stmts(body):
                        for s in body or []:
                            yield s
                            for attr in ("span", "body"):
                                sub = getattr(s, attr, None)
                                if isinstance(sub, list):
                                    yield from stmts(sub)

                    for s in stmts(m.body):
                        if isinstance(s, VarDeclStmt):
                            seen.add("local-decl")
                        elif isinstance(s, AssignStmt):
                            seen.add("assignment")
                        elif isinstance(s, QueryStmt):
                            q = s.query
                            seen.add("query-" + q.kind)
                            if s.type is not None:
                                seen.add("local-decl")
                            elif s.var is not None:
                                seen.add("query-assigned")
                            if q.with_names:
                                seen.add("query-with")
                            if s.span is not None:
                                seen.add("query-span")
                        elif isinstance(s, ProtectStmt):
                            seen.add("protect")

        required = {
            "class", "interface", "extends", "implements", "labels",
            "labels-carriers", "protocols", "protocols-carriers", "resources",
            "resources-nested", "external", "external-ctor", "field",
            "field-managed", "field-labels", "field-initializer",
            "field-uniqueness", "field-static", "constructor",
            "abstract-method", "result-label-prefix", "return-uniqueness",
            "arg-uniqueness", "array-type", "local-mutations", "mutates-clause",
            "mutates-any", "mutates-arg", "mutates-this", "optional-groups",
            "invariant-label", "invariant-state", "add-label", "add-state",
            "transition", "residence", "local-decl", "assignment",
            "query-produce", "query-transform", "query-assigned", "query-with",
            "query-span", "protect",
        }
        missing = required - seen
        assert not missing, f"productions without corpus witness: {sorted(missing)}"

    @pytest.mark.parametrize("junk", [
        "", "class", "class {", "int x;", "class C extends  { }",
        "class C { void m( }", "class C { labels ; }", "#produce(int, x)",
        "class C { void m() { x = ; } }", "class C { resources a { b; }",
    ])
    def test_parser_total_on_junk(self, junk):
        try:
            decls = P.parse_unit(junk)
        except P.SyntaxIssue as e:
            assert e.pos.line >= 1 and e.pos.col >= 1
        else:
            assert isinstance(decls, list)

    def test_managed_field_must_name_a_declared_resource(self):
        prog = load_raw([], [("a.pop", """
class C {
    resources real;
    managed(ghost) unique Object f;
}
""")])
        assert any("unknown resource" in d.message for d in prog.diagnostics.items)


CORPUS_TEXTS = [(str(f.relative_to(CORPUS)), f.read_text(encoding="utf-8"))
                for f in sorted(CORPUS.rglob("*.pop"))]

# sha256 of every parse below, positions included: the model the front end
# builds from the corpus and from two generated benchmark trees, and the
# error (or model) from each corpus file cut at seven points.
PARSE_GOLDEN = "60bf2e54fa04f1bbb205e4af728d9e0cd3cdc17587d9101833c66d4f5e4abefc"


def parse_outcome(text):
    """The field tree of `text`'s declarations, or its SyntaxIssue."""
    try:
        return field_tree(P.parse_unit(text))
    except P.SyntaxIssue as e:
        return "SyntaxIssue", e.message, e.pos.line, e.pos.col


def test_parse_of_corpus_and_generated_trees_is_golden():
    sources = CORPUS_TEXTS + [(f"{name}[:{len(text) * k // 8}]", text[:len(text) * k // 8])
                              for name, text in CORPUS_TEXTS for k in range(1, 8)]
    for work in (gen.wide_tree(1), gen.deep_queries(1)):
        sources += [(f"{work.name}/{name}", work.files[name]) for name in sorted(work.files)]
    digest = hashlib.sha256()
    for name, text in sources:
        digest.update(repr((name, parse_outcome(text))).encode())
    assert digest.hexdigest() == PARSE_GOLDEN


def token_starts(text):
    """The offset of each token of `text`, its `eof` last."""
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    return [line_starts[line - 1] + col - 1 for _, _, line, col in tokenize(text)]


@st.composite
def edited_corpus_file(draw, texts=CORPUS_TEXTS):
    """A corpus file of `texts` cut at a token boundary, or with one token
    deleted or duplicated (with the space or comment after it)."""
    name, text = draw(st.sampled_from(texts))
    starts = token_starts(text)
    i = draw(st.integers(0, len(starts) - 1))
    edit = draw(st.sampled_from(["cut", "delete", "duplicate"]))
    if edit == "cut" or i == len(starts) - 1:
        return name, text[:starts[i]]
    start, end = starts[i], starts[i + 1]
    if edit == "delete":
        return name, text[:start] + " " + text[end:]
    return name, text[:end] + text[start:end] + text[end:]


@settings(max_examples=250, deadline=None)
@given(edited_corpus_file())
def test_cut_or_edited_input_loads_or_is_a_positioned_syntax_error(edit):
    """Whatever the edit leaves, the front end ends in a model or in
    positioned diagnostics, never in an exception: a parser that looks
    past the `eof` would raise here."""
    name, text = edit
    program = load_program([(name, text)])
    lines = text.count("\n") + 1
    for d in program.diagnostics.items:
        assert d.path == name
        assert 1 <= d.line <= lines and d.col >= 1, d.render()
