"""Batch driver behavior: exit codes, flags, config files, output trees."""

import ast
import contextlib
import hashlib
import importlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

import poplar
from poplar.cli import _collect_sources, _solve_tree, main
from poplar.config import SearchConfig, config_from_tree
from poplar import effects
from poplar.effects import check_program
from poplar.model import this_target
from poplar.resolver import load_program
from poplar.synth import splice_program

from conftest import ARMED_TREE, ARMING, CORPUS, SWING_QUERY, TD14, TD15, inferred_summary
from test_frontend import edited_corpus_file


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def c(*parts):
    return str(CORPUS / Path(*parts))


class TestCheck:
    def test_clean_corpus_exits_zero(self, capsys):
        code, out, _ = run(["check", c("socket")], capsys)
        assert code == 0 and out == ""

    def test_narrowed_summary_exits_one_with_code(self, capsys):
        code, out, _ = run(["check", c("bad_summary")], capsys)
        assert code == 1
        assert "E-SUM" in out and "SummaryTooNarrow" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(["check", c("no_such_place")], capsys)
        assert code == 2
        assert "missing input" in err

    def test_syntax_error_is_positioned(self, tmp_path, capsys):
        bad = tmp_path / "bad.pop"
        bad.write_text("class C {\n  int f = ;\n}\n")
        code, out, _ = run(["check", str(bad)], capsys)
        assert code == 1
        assert out.startswith(f"{bad}:2:")
        assert "E-SYN" in out

    def test_cyclic_inheritance_is_a_positioned_error(self, capsys):
        path = c("cyclic", "cycle.pop")
        code, out, _ = run(["check", path], capsys)
        assert code == 1
        assert out.splitlines() == [
            f"{path}:1:1: error: E-RES: cyclic inheritance: A -> B -> C -> A",
            f"{path}:4:1: error: E-RES: cyclic inheritance: B -> C -> A -> B",
            f"{path}:7:1: error: E-RES: cyclic inheritance: C -> A -> B -> C",
            f"{path}:13:1: error: E-RES: cyclic inheritance: I -> J -> I",
            f"{path}:16:1: error: E-RES: cyclic inheritance: J -> I -> J",
        ]

    def test_duplicate_parameter_is_a_positioned_error(self, capsys):
        path = c("duplicate_params", "box.pop")
        code, out, _ = run(["check", path], capsys)
        assert code == 1
        assert out.splitlines() == [
            f"{path}:6:26: error: E-RES: duplicate parameter 'a' in 'fill'"]

    def test_a_duplicate_parameter_is_read_as_the_first_of_its_name(self, tmp_path,
                                                                     capsys):
        # Conditions and `mutates` targets resolve against `Box a`, as every
        # later phase reads a parameter (`MethodSpec.arg_named`), so the
        # duplicate is the only error.
        src = tmp_path / "d.pop"
        src.write_text("class Box {\n    labels full;\n    resources r;\n}\n\n"
                       "class Bag {\n}\n\nclass F {\n"
                       "    void f(Box a, Bag a) mutates a.r:\n        a: +full;\n}\n")
        assert run(["check", str(src)], capsys) == (
            1, f"{src}:10:23: error: E-RES: duplicate parameter 'a' in 'f'\n", "")

    def test_every_resolution_error_is_pinned(self, capsys):
        path = c("resolve_errors", "errors.pop")
        code, out, _ = run(["check", path], capsys)
        assert code == 1
        assert out.splitlines() == [f"{path}:{line}" for line in (
            "5:1: error: E-RES: duplicate type name 'Twice'",
            "8:1: error: E-RES: 'Plain' is not an interface",
            "8:1: error: E-RES: unknown interface 'Ghost'",
            "8:1: error: E-RES: unknown superclass 'Missing'",
            "14:1: error: E-RES: cyclic inheritance: Loop -> Loop",
            "32:5: error: E-RES: managed field 'link' names unknown resource 'nowhere'",
            "33:5: error: E-RES: unresolved label 'missingFieldLabel'",
            "38:5: error: E-RES: unresolved label 'missingResultLabel'",
            "41:12: error: E-RES: label 'Holder.own' does not apply to type 'int' "
            "(carriers: Holder)",
            "42:15: error: E-RES: unresolved label 'unknownLabel'",
            "45:15: error: E-RES: ambiguous label 'seen': Marked.seen, Tagged.seen",
            "48:15: error: E-RES: unresolved protocol 'unknownProtocol'",
            "49:15: error: E-RES: ambiguous protocol 'phase'",
            "51:27: error: E-RES: duplicate parameter 'a' in 'twice'",
            "53:24: error: E-RES: unknown type 'Nowhere' in parameter 'x'",
            "55:19: error: E-RES: unknown resource 'absent' in [!] list",
            "58:15: error: E-RES: unknown residence resource 'absent' on type 'Holder'",
            "61:9: error: E-RES: unknown condition subject 'ghost'",
            "64:16: error: E-RES: unresolved label 'missingGroupLabel'",
            "67:17: error: E-RES: unknown resource 'this.absent'",
            "67:30: error: E-RES: unknown resource 'other.absent'",
            "67:44: error: E-RES: unknown resource 'any(Holder).absent'",
            "67:64: error: E-RES: unknown resource 'absent' on 'Holder'",
            "70:17: error: E-RES: unknown type 'Nowhere' in any(...) target",
            "73:17: error: E-RES: unresolved mutation target 'nothing'",
            "75:33: error: E-RES: unknown type 'Nowhere' in parameter 'q'",
            "76:17: error: E-RES: unknown resource 'this.absent'",
            "77:15: error: E-RES: unresolved label 'externalLabel'",
        )]

    def test_every_overlay_and_query_error_is_pinned(self, capsys):
        path = c("overlay_errors", "overlay.pop")
        code, out, _ = run(["check", path], capsys)
        assert code == 1
        assert out.splitlines() == [f"{path}:{line}" for line in (
            "12:5: error: E-RES: external names unknown type 'Nowhere'",
            "14:5: error: E-RES: dangling external: no method matches 'Conn.missing(int)'",
            "19:9: error: E-RES: unknown type 'Nowhere' in #produce",
            "20:9: error: E-RES: #transform names unknown variable 'ghost'",
            "21:9: error: E-RES: no protocol or label matches goal 'nonsense'",
        )]

    def test_local_alias_of_a_unique_value_breaks_its_span(self, capsys):
        path = c("unique_alias", "alias.pop")
        code, out, _ = run(["check", path], capsys)
        assert code == 1
        assert out.splitlines() == [
            f"{path}:14:13: error: E-SPAN: SpanViolation: statement may mutate "
            f"protected resource 'a.content' (summary hits 'c.content')"]

    def test_non_utf8_source_names_file_and_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.pop"
        bad.write_bytes(b"class A {\n}\n// caf\xe9\n")
        code, out, err = run(["check", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: not UTF-8: byte 0xe9 at offset 18")


B1_TREE = """class Base {{
    labels polished, shiny; resources r;

    Base();
    void buff({sup_args})
        {sup_groups};
}}

class Sub extends Base {{
    void buff({sub_args})
        {sub_groups};
}}
"""


# B1, B1 for optional groups and B2 for residence: each group declared above
# needs a group below that requires no more and establishes no less, and an
# effect keeps its residence. The override's parameters are renamed by
# position to the overridden method's; the overridden method's are not
# renamed, even when the override reuses their names at other positions.
@pytest.mark.parametrize("sup_args, sup_groups, sub_args, sub_groups, want", [
    ("", "(this: +polished)?", "", "(this: +shiny)?",
     (1, "p.pop:10:5: error: E-OVR: B1: Sub.buff vs Base.buff: "
         "optional group 1 has no conforming counterpart\n")),
    ("", "(this: +polished)?", "", "(this: +polished)?,\n        (this: +shiny)?",
     (0, "")),
    ("Base b", "(b: +shiny)?", "Base c", "(c: +shiny)?", (0, "")),
    ("", "(this: polished, +shiny)?", "", "(this: +shiny)?", (0, "")),
    ("", "(this: +polished)?", "", "(this: +polished, +shiny)?", (0, "")),
    ("Base a, Base b", "a: shiny", "Base b, Base a", "b: shiny", (0, "")),
    ("Base a, Base b", "a: shiny", "Base b, Base a", "a: shiny",
     (1, "p.pop:10:5: error: E-OVR: B1: Sub.buff vs Base.buff: "
         "override strengthens preconditions (b: Base.shiny)\n"
         "p.pop:10:5: error: E-OVR: B1: Sub.buff vs Base.buff: "
         "override weakens postconditions (a: Base.shiny)\n")),
    ("Base a, Base b", "a: +shiny", "Base b, Base a", "b: +shiny", (0, "")),
    ("Base a, Base b", "a: +shiny", "Base b, Base a", "a: +shiny",
     (1, "p.pop:10:5: error: E-OVR: B1: Sub.buff vs Base.buff: "
         "override weakens postconditions (a: Base.shiny)\n")),
    ("Base a, Base b", "(a: +shiny)?", "Base b, Base a", "(b: +shiny)?", (0, "")),
    ("Base a, Base b", "(a: +shiny)?", "Base b, Base a", "(a: +shiny)?",
     (1, "p.pop:10:5: error: E-OVR: B1: Sub.buff vs Base.buff: "
         "optional group 1 has no conforming counterpart\n")),
    ("Base a, Base b", "a: +shiny [*r], b: +shiny", "Base b, Base a",
     "b: +shiny [*r], a: +shiny", (0, "")),
    ("Base a, Base b", "a: +shiny [*r], b: +shiny", "Base b, Base a",
     "b: +shiny, a: +shiny [*r]",
     (1, "p.pop:10:5: error: E-OVR: B2: Sub.buff vs Base.buff: effect 'Base.shiny' "
         "gained a residence restriction it did not have above\n")),
], ids=["no-counterpart", "counterpart-among-two", "renamed-parameter",
        "weaker-precondition", "stronger-postcondition", "swapped-names-same-invariant",
        "swapped-names-other-invariant", "swapped-names-same-position",
        "swapped-names-other-position", "swapped-names-same-position-group",
        "swapped-names-other-position-group", "swapped-names-same-residence",
        "swapped-names-other-residence"])
def test_an_override_needs_a_conforming_counterpart_for_each_optional_group(
        sup_args, sup_groups, sub_args, sub_groups, want, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("p.pop").write_text(B1_TREE.format(sup_args=sup_args, sup_groups=sup_groups,
                                            sub_args=sub_args, sub_groups=sub_groups))
    code, out, err = run(["check", "p.pop"], capsys)
    assert (code, out, err) == (*want, "")


# Another version of a member names the same parameter at the same
# position, because calls pass arguments by position: `check` reads an
# override and its inherited summaries so, and `verify-upgrade` the member a
# stored plan assumed.
FILL_TREE = """class Box {
    labels full;
    resources r;

    Box();
}

class Filler {
    Filler();

    void fill(Box b) mutates b.r:
        b: +full;
}

class User {
    void run() {
        Box x = #produce(Box, full);
    }
}
"""

OVERRIDE_TREE = """class Box {{
    labels full;
    resources r;

    Box();
    void poke() mutates r:;
}}

class Base {{
    Base();
    {sup}
}}

class Sub extends Base {{
    Sub();
    {sub}
}}
"""


def upgrade(v1, v2, capsys):
    """`verify-upgrade` of tree `v2` against what `synth` stored for `v1`,
    in the current directory."""
    for tree, text in (("v1", v1), ("v2", v2)):
        Path(tree).mkdir()
        Path(tree, "f.pop").write_text(text)
    assert run(["synth", "v1", "--out", "out"], capsys) == (0, "", "")
    return run(["verify-upgrade", "--assumptions", "out", "v2"], capsys)


@pytest.mark.parametrize("mutates", ["mutates b.r:", ""],
                         ids=["with-mutates", "conditions-only"])
def test_an_upgrade_that_only_renames_a_parameter_is_ok(mutates, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    v1 = FILL_TREE.replace("mutates b.r:", mutates)
    v2 = v1.replace("fill(Box b)", "fill(Box c)").replace("b.r", "c.r") \
        .replace("b: +full", "c: +full")
    assert upgrade(v1, v2, capsys) == (0, "ok v1/f.pop:17\n", "")


def test_an_upgrade_that_swaps_parameter_names_is_refused_as_the_override_is(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    v1 = FILL_TREE.replace("void fill(Box b) mutates b.r:\n        b: +full;",
                           "void put(maintain Box a, Box b)\n        a: +full;")
    v2 = v1.replace("put(maintain Box a, Box b)", "put(Box b, maintain Box a)")
    assert upgrade(v1, v2, capsys) == (
        1, "incompatible v1/f.pop:17: Filler.put: conditions: no variant offers "
           "weaker-or-equal preconditions and stronger-or-equal postconditions\n"
           "incompatible v1/f.pop:17: Filler.put: kind-lattice: argument 'a' kind "
           "normal may not stand in for maintain\n", "")
    Path("o.pop").write_text(OVERRIDE_TREE.format(
        sup="void put(maintain Box a, Box b) a: +full;",
        sub="void put(Box b, maintain Box a) a: +full;"))
    assert run(["check", "o.pop"], capsys) == (
        1, "o.pop:16:5: error: E-OVR: B1: Sub.put vs Base.put: override weakens "
           "postconditions (a: Box.full)\n"
           "o.pop:16:5: error: E-OVR: B4: Sub.put vs Base.put: argument 'a': normal "
           "may not override maintain\n", "")


# A plan that reads a static field: `synth` writes `Conf c = Conf.DEFAULT;`.
CONF_TREE = """class Conf {
    labels ready;
    static Conf DEFAULT +ready;
}

class Client {
    void run() {
        Conf c = #produce(Conf, ready);
    }
}
"""


@pytest.mark.parametrize("v2, verdict", [
    (CONF_TREE.replace("static Conf DEFAULT", "Conf DEFAULT"),
     "member-missing: field is no longer static"),
    (CONF_TREE.replace("static Conf DEFAULT +ready;",
                       "static Sub DEFAULT +ready;\n}\n\nclass Sub extends Conf {"),
     "member-missing: field missing or signature changed"),
    (CONF_TREE.replace("DEFAULT +ready", "DEFAULT"),
     "postcondition-weakened: field lost labels the solution relied on"),
], ids=["no-longer-static", "signature-changed", "lost-a-label"])
def test_an_upgrade_refuses_a_field_read_that_no_longer_holds(v2, verdict, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert upgrade(CONF_TREE, v2, capsys) == (
        1, f"incompatible v1/f.pop:8: Conf.DEFAULT: {verdict}\n", "")


def test_a_field_read_that_verify_upgrade_refuses_fails_check_on_the_new_version(
        tmp_path, capsys):
    """The read `synth` wrote does not check once `DEFAULT` is an instance
    field, which is why `verify-upgrade` refuses its record."""
    src = tmp_path / "g.pop"
    src.write_text(CONF_TREE.replace("static Conf DEFAULT", "Conf DEFAULT")
                   .replace("#produce(Conf, ready)", "Conf.DEFAULT"))
    assert run(["check", str(src)], capsys) == (
        1, f"{src}:8:9: error: E-UNIQ: IllegalFlow: unknown static field "
           "'Conf.DEFAULT'\n", "")


def test_an_upgrade_that_removes_a_planned_class_refuses_each_of_its_steps(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    v2 = FILL_TREE.replace("class Filler {\n    Filler();\n\n    void fill(Box b) "
                           "mutates b.r:\n        b: +full;\n}\n\n", "")
    assert "Filler" not in v2
    assert upgrade(FILL_TREE, v2, capsys) == (
        1, "incompatible v1/f.pop:17: Filler.Filler: member-missing: type 'Filler' "
           "no longer exists\n"
           "incompatible v1/f.pop:17: Filler.fill: member-missing: type 'Filler' "
           "no longer exists\n", "")


def test_an_upgrade_that_weakens_a_return_kind_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    v1 = CONF_TREE.replace("static Conf DEFAULT +ready;",
                           "static unique Conf make()\n        result: +ready;")
    assert upgrade(v1, v1.replace("static unique Conf", "static Conf"), capsys) == (
        1, "incompatible v1/f.pop:9: Conf.make: kind-lattice: return kind normal "
           "may not stand in for unique\n", "")


def test_check_pins_each_field_store_return_and_new_error(tmp_path, capsys):
    """Reads of `this.f` and of another object's field, stores into
    `this.f`, a return, a call through the class name and a `new`, each
    found and refused in one body walk; the good reads pass."""
    src = tmp_path / "t.pop"
    src.write_text("""class Box {
    unique Box held;
    int size;

    Box();
    void poke();

    void fill(maintainr Box m, Box n) {
        Box a = this.nothing;
        Box b = this.held;
        int s = n.size;
        int t = n.missing;
        this.held = m;
        this.held = n;
        Box.poke();
        new Nowhere();
    }

    unique Box give(Box n) {
        return n;
    }
}
""")
    error = f"{src}:{{}}:9: error: E-UNIQ: IllegalFlow: {{}}\n".format
    assert run(["check", str(src)], capsys) == (1, "".join([
        error(9, "unknown field 'this.nothing'"),
        error(12, "type 'Box' has no field 'missing'"),
        error(13, "maintainr value 'm' may be shared; field 'held' requires an "
                  "unshared value"),
        error(14, "normal value 'n' cannot be stored into unique field 'held'"),
        error(15, "instance method 'poke' called without a receiver"),
        error(16, "unknown type 'Nowhere'"),
        error(20, "cannot return normal value as unique"),
    ]), "")


@pytest.mark.parametrize("sup, sub", [
    ("void put(maintain Box a) mutates a.r:;", "void put(maintain Box x) { x.poke(); }"),
    ("void put(Box a, Box b) mutates b.r:;", "void put(Box b, Box a) mutates a.r:;"),
], ids=["inherited-summary-renamed", "summary-at-the-same-position"])
def test_an_override_reads_the_summary_above_by_position(sup, sub, tmp_path, capsys):
    src = tmp_path / "o.pop"
    src.write_text(OVERRIDE_TREE.format(sup=sup, sub=sub))
    assert run(["check", str(src)], capsys) == (0, "", "")


def test_an_overlay_names_the_parameters_of_its_target_by_position(tmp_path,
                                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("f.pop").write_text(FILL_TREE.replace(
        "void fill(Box b) mutates b.r:\n        b: +full;",
        "void fill(Box b);\n}\n\nclass Overlay {\n    external Filler.fill(Box c)\n"
        "        c: +full;"))
    assert run(["synth", "f.pop", "--out", "out"], capsys) == (0, "", "")
    assert "        Filler v1 = new Filler();\n        v1.fill(x);\n" in \
        Path("out", "f.pop").read_text()


def test_an_overlay_types_result_by_its_target(tmp_path, monkeypatch, capsys):
    """`external T.m()` names no return type; its `result` is `m`'s."""
    monkeypatch.chdir(tmp_path)
    Path("a.pop").write_text("""class Box {
    labels full;

    Box();
    Box make();
}

class Annot {
    external Box.make()
        result: +full;
}

class User {
    void run() {
        Box b = #produce(Box, full);
    }
}
""")
    assert run(["check", "a.pop"], capsys) == (0, "", "")
    assert run(["synth", "a.pop", "--out", "out"], capsys) == (0, "", "")
    assert "        Box v1 = new Box();\n        Box b = v1.make();\n" in \
        Path("out", "a.pop").read_text()


def test_a_with_clause_selects_an_action_whose_result_a_value_in_scope_holds(
        tmp_path, monkeypatch, capsys):
    """`b` already holds `full` in `r`, as `make`'s result would, and the
    with-clause names `make`, so the plan calls it. The answer does not
    depend on whether `b` once held a state that resided in `s`."""
    monkeypatch.chdir(tmp_path)
    unarmed = ARMED_TREE.replace(ARMING, "")
    for tree, text in (("armed", ARMED_TREE), ("unarmed", unarmed)):
        Path(tree).mkdir()
        Path(tree, "t.pop").write_text(text)
        assert run(["synth", tree, "--out", f"out/{tree}"], capsys) == (0, "", "")
        assert "        b.fill();\n        Box c = Box.make();\n" in \
            Path("out", tree, "t.pop").read_text()


def test_a_with_clause_ranks_an_action_that_establishes_the_label_as_an_effect(
        tmp_path, monkeypatch, capsys):
    """`stamped` is an effect of `fillB`, not its result, and the with-clause
    names it: `fillB` is tried before `fillA`, so the first plan found is
    the answer."""
    monkeypatch.chdir(tmp_path)
    Path("t.pop").write_text("""class Box {
    labels full, stamped;

    Box();
    void fillA()
        this: +full;
    void fillB()
        this: +full, +stamped;
}

class User {
    User();

    void run() {
        Box b = new Box();
        #transform(b, full) with stamped;
    }
}
""")
    code, out, _ = run(["explain", "t.pop", "--explain", "t.pop:16"], capsys)
    assert code == 0
    assert "  [2] Box.fillB() recv=b args=()\n" in out
    assert "explored plans: 2\n" in out
    assert run(["synth", "t.pop", "--out", "out"], capsys) == (0, "", "")
    assert "        Box b = new Box();\n        b.fillB();\n" in \
        Path("out", "t.pop").read_text()


def test_a_protocols_carriers_bind_in_methods_and_overlays_alike(tmp_path, monkeypatch,
                                                                 capsys):
    """A state, a `+p@s` and a transition on a type outside the protocol's
    carriers are refused in a method as in an `external` overlay."""
    monkeypatch.chdir(tmp_path)
    Path("a.pop").write_text("""class Conn {
    Conn();
    void open();
    void flip()
        this: wire@a->b;
    void hold()
        this: wire@a;
    static Conn make()
        result: +wire@a;
}

class Wire {
    protocols(Wire) wire;

    external Conn.open()
        this: wire@a->b;
}
""")
    refused = "error: E-RES: protocol 'Wire.wire' does not apply to type 'Conn' (carriers: Wire)"
    assert run(["check", "a.pop"], capsys) == (1, "".join(
        f"a.pop:{at}: {refused}\n" for at in ("5:15", "7:15", "9:17", "16:15")), "")


class TestSynth:
    def test_full_tree(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run(["synth", c("common"), c("timedate14"), c("client"),
                          "--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "timeutils.pop").exists()
        assert (out_dir / "timeutils.assume").exists()
        text = (out_dir / "timeutils.pop").read_text()
        assert "Date v1 = new Date();" in text
        assert "int hour = v1.getHour();" in text

    def test_precedence_flag_selects_the_newer_api(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run(["synth", c("common"), c("timedate14"), c("timedate15"),
                          c("client"), "--precedence", "Calendar=10",
                          "--out", str(out_dir)], capsys)
        assert code == 0
        text = (out_dir / "timeutils.pop").read_text()
        assert "new Calendar()" in text and "new Date()" not in text

    def test_unsolvable_query_exits_one(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.pop").write_text("""
class Lonely {
    labels(Lonely) unreachable;
    void want() {
        Lonely x = #produce(Lonely, unreachable);
    }
}
""")
        code, out, _ = run(["synth", str(src), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "E-PLAN" in out and "NoSolution" in out

    def test_with_clause_failure_is_reported(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        for name in ("timeanddate", ):
            (src / f"{name}.pop").write_text((CORPUS / "common/timeanddate.pop").read_text())
        (src / "date.pop").write_text((CORPUS / "timedate14/date.pop").read_text())
        (src / "client.pop").write_text("""
class Asker implements TimeAndDate {
    void ask() {
        int hour = #produce(int, nowHour) with Phantom;
    }
}
""")
        code, out, _ = run(["synth", str(src), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "WithUnsatisfiable" in out

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_that_a_file_is_in_the_way_of_is_a_usage_error(self, tmp_path, capsys,
                                                               below):
        (tmp_path / "taken").write_text("kept\n")
        out_dir = tmp_path / "taken" / "sub" if below else tmp_path / "taken"
        code, out, err = run(["synth", c("witness"), "--out", str(out_dir)], capsys)
        assert (code, out) == (2, "")
        reason = "Not a directory" if below else "File exists"
        assert err == f"error: {out_dir}: cannot make the output directory: {reason}\n"
        assert [(f.name, f.read_text()) for f in tmp_path.iterdir()] == [("taken", "kept\n")]

    @pytest.mark.parametrize("name", ["timeutils.pop", "timeutils.assume"])
    def test_an_output_that_cannot_be_written_is_a_usage_error_and_writes_nothing(
            self, tmp_path, capsys, name):
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        code, out, err = run(["synth", c("common"), c("timedate14"), c("client"),
                              "--out", str(out_dir)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {out_dir / name}: cannot write: Is a directory\n"
        assert [f.name for f in out_dir.iterdir()] == [name]

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        trees = []
        for which in ("one", "two"):
            out_dir = tmp_path / which
            code, _, _ = run(["synth", c("swing", "toolkit.pop"),
                              c("swing", "widgets.pop"),
                              c("swing_query", "frames.pop"),
                              "--out", str(out_dir)], capsys)
            assert code == 0
            trees.append({f.name: f.read_bytes()
                          for f in sorted(out_dir.iterdir())})
        assert trees[0] == trees[1]


class TestVerifyUpgrade:
    @pytest.fixture
    def stored(self, tmp_path, capsys):
        out_dir = tmp_path / "assumptions"
        code, _, _ = run(["synth", c("common"), c("timedate14"), c("client"),
                          "--out", str(out_dir)], capsys)
        assert code == 0
        return out_dir

    def test_identical_corpus_ok(self, stored, capsys):
        code, out, _ = run(["verify-upgrade", "--assumptions", str(stored),
                            c("common"), c("timedate14")], capsys)
        assert code == 0
        assert out.startswith("ok ")

    def test_renamed_member_flagged(self, stored, capsys):
        code, out, _ = run(["verify-upgrade", "--assumptions", str(stored),
                            c("common"), c("upgrade_renamed")], capsys)
        assert code == 1
        assert "incompatible" in out and "member-missing" in out

    def test_strengthened_postcondition_ok(self, stored, capsys):
        code, out, _ = run(["verify-upgrade", "--assumptions", str(stored),
                            c("common"), c("upgrade_stronger")], capsys)
        assert code == 0

    def test_a_directory_named_like_an_assumption_file_is_skipped(self, stored, capsys):
        (stored / "x.assume").mkdir()
        code, out, err = run(["verify-upgrade", "--assumptions", str(stored),
                              c("common"), c("upgrade_stronger")], capsys)
        assert (code, err) == (0, "") and out.startswith("ok ")

    def test_a_non_utf8_assumption_file_is_a_usage_error_naming_it(self, stored, capsys):
        bad = stored / "bad.assume"
        bad.write_bytes(b"\xffquery=")
        code, out, err = run(["verify-upgrade", "--assumptions", str(stored),
                              c("common"), c("upgrade_stronger")], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: not UTF-8: byte 0xff at offset 0 (invalid start byte)\n"


class TestExplain:
    def test_plan_dump(self, capsys):
        code, out, _ = run(["explain", c("common"), c("timedate14"), c("client"),
                            "--explain", "timeutils.pop:3"], capsys)
        assert code == 0
        assert "actions (2):" in out
        assert "new Date()" in out
        assert "causal links:" in out
        assert "orderings:" in out
        assert "lower bound: 2\nexplored plans: 3\nrejected threats: 0" in out

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "plan.dot"
        code, out, _ = run(["explain", c("common"), c("timedate14"), c("client"),
                            "--explain", "timeutils.pop:3",
                            "--dot", str(dot)], capsys)
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "shape=box" in text and "style=rounded" in text
        assert "style=dashed" in text

    @pytest.mark.parametrize("dot, reason", [
        ("plan.dot", "Is a directory"), ("nodir/plan.dot", "No such file or directory"),
    ], ids=["directory", "missing-directory"])
    def test_a_dot_file_that_cannot_be_written_is_a_usage_error(self, dot, reason,
                                                               tmp_path, capsys):
        dot = tmp_path / dot
        if reason == "Is a directory":
            dot.mkdir()
        code, out, err = run(["explain", c("common"), c("timedate14"), c("client"),
                              "--explain", "timeutils.pop:3", "--dot", str(dot)], capsys)
        assert code == 2 and "actions (2):" in out
        assert err == f"error: {dot}: cannot write: {reason}\n"

    def test_unknown_query_id(self, capsys):
        code, _, err = run(["explain", c("common"), c("timedate14"), c("client"),
                            "--explain", "nowhere.pop:99"], capsys)
        assert code == 2
        assert "no query matches" in err

    @pytest.fixture
    def two_clients(self, tmp_path):
        """Two files whose names share a suffix, each with a query on line 3."""
        for part in ("common", "timedate14"):
            for f in (CORPUS / part).glob("*.pop"):
                (tmp_path / "lib").mkdir(exist_ok=True)
                (tmp_path / "lib" / f.name).write_text(f.read_text())
        for d, name, query in (("c1", "timeutils", "int hour = #produce(int, nowHour);"),
                               ("c2", "mytimeutils", "Date d = #produce(Date, currentTime);")):
            (tmp_path / d).mkdir()
            (tmp_path / d / f"{name}.pop").write_text(
                f"class {name.capitalize()} {{\n    void m() {{\n        {query}\n    }}\n}}\n")
        return [str(tmp_path / d) for d in ("lib", "c1", "c2")]

    def test_id_matches_whole_trailing_path_components(self, two_clients, capsys):
        code, out, _ = run(["explain", *two_clients, "--explain", "timeutils.pop:3"],
                           capsys)
        assert (code, out.splitlines()[0]) == (0, "goal: TimeAndDate.nowHour")
        code, out, _ = run(["explain", *two_clients, "--explain", "c2/mytimeutils.pop:3"],
                           capsys)
        assert (code, out.splitlines()[0]) == (0, "goal: Date.currentTime")

    @pytest.mark.parametrize("wanted", ["3", ":3", ".:3", "utils.pop:3"])
    def test_a_line_without_whole_path_components_matches_no_query(self, two_clients,
                                                                  capsys, wanted):
        code, _, err = run(["explain", *two_clients, "--explain", wanted], capsys)
        assert code == 2
        assert f"no query matches id '{wanted}'" in err

    def test_an_id_that_matches_two_queries_names_both(self, two_clients, tmp_path,
                                                       capsys):
        (tmp_path / "c2" / "timeutils.pop").write_text(
            (tmp_path / "c1" / "timeutils.pop").read_text().replace("Timeutils", "Other"))
        code, _, err = run(["explain", *two_clients, "--explain", "timeutils.pop:3"],
                           capsys)
        assert code == 2
        assert err.strip() == (
            "query id 'timeutils.pop:3' matches 2 queries: "
            f"{tmp_path / 'c2' / 'timeutils.pop'}:3, {tmp_path / 'c1' / 'timeutils.pop'}:3")


class TestInputs:
    @pytest.mark.parametrize("command", ["check", "synth"])
    def test_a_directory_named_like_a_source_is_scanned_not_read(self, tmp_path, capsys,
                                                                 command):
        tree = tmp_path / "c1"
        (tree / "odd.pop").mkdir(parents=True)
        (tree / "odd.pop" / "inner.pop").write_text("class Inner { }\n")
        (tree / "a.pop").write_text("class A { Inner i; }\n")
        code, out, err = run([command, str(tree), "--out", str(tmp_path / "out")]
                             if command == "synth" else [command, str(tree)], capsys)
        assert (code, out, err) == (0, "", "")

    @staticmethod
    def edge_tree(root: Path) -> Path:
        """A tree whose names test discovery's order and filters."""
        tree = root / "t"
        for d in ("a", "a-b", "d.pop", "sub/deep"):
            (tree / d).mkdir(parents=True)
        for f in ("a/x.pop", "a-b/x.pop", "d.pop/inner.pop", "sub/deep/y.pop",
                  "sub/b.pop", "m.pop", "z.POP", ".pop", "notes.txt"):
            (tree / f).write_text("class C { }\n")
        (tree / "link.pop").symlink_to(tree / "m.pop")
        (tree / "broken.pop").symlink_to(tree / "nowhere.pop")
        (tree / "dirlink").symlink_to(tree / "sub", target_is_directory=True)
        (tree / "dirlink.pop").symlink_to(tree / "sub", target_is_directory=True)
        return tree

    EDGE_ORDER = [".pop", "a/x.pop", "a-b/x.pop", "d.pop/inner.pop", "link.pop", "m.pop",
                  "sub/b.pop", "sub/deep/y.pop"]

    def test_sources_are_found_in_path_order_through_file_links_only(self, tmp_path):
        """Paths sort by component, so `a/` comes before `a-b/`. A link to a
        file counts; a broken link, a linked directory, a directory named
        `*.pop` and another suffix's case do not."""
        tree = self.edge_tree(tmp_path)
        assert [name for name, _ in _collect_sources([str(tree)])] == \
            [str(tree / f) for f in self.EDGE_ORDER]

    @pytest.mark.parametrize("arg", [".", "./", "t/../t"])
    def test_a_found_source_is_named_as_its_directory_was_spelled(self, tmp_path,
                                                                  monkeypatch, arg):
        """Names reach diagnostics and query ids, so a leading `./` is dropped
        and a `..` kept, as `Path` spells them."""
        tree = self.edge_tree(tmp_path)
        monkeypatch.chdir(tree if arg.startswith(".") else tmp_path)
        assert [name for name, _ in _collect_sources([arg])] == \
            [str(Path(arg) / f) for f in self.EDGE_ORDER]

    def test_an_unlistable_directory_is_a_usage_error_naming_it(self, tmp_path, capsys,
                                                               monkeypatch):
        tree = self.edge_tree(tmp_path)
        listing = os.scandir

        def refuse(path):
            if Path(path) == tree / "sub" / "deep":
                raise PermissionError(13, "Permission denied", path)
            return listing(path)

        monkeypatch.setattr(os, "scandir", refuse)
        code, out, err = run(["check", str(tree)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {tree / 'sub' / 'deep'}: cannot read: Permission denied\n"

    def test_an_unreadable_source_is_a_usage_error_naming_it(self, tmp_path, capsys,
                                                             monkeypatch):
        src = tmp_path / "a.pop"
        src.write_text("class A { }\n")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        code, out, err = run(["check", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {src}: cannot read: Permission denied\n"

    @pytest.mark.parametrize("command", ["check", "synth"])
    def test_a_class_cannot_extend_an_interface(self, tmp_path, capsys, command):
        src = tmp_path / "a.pop"
        src.write_text("interface I { }\n\nclass A extends I { }\n")
        argv = [command, str(src)] + (["--out", str(tmp_path / "out")]
                                      if command == "synth" else [])
        code, out, _ = run(argv, capsys)
        assert code == 1
        assert out.splitlines() == [f"{src}:3:1: error: E-RES: 'I' is not a class"]


class TestConfig:
    def test_config_file_keys(self, tmp_path):
        (tmp_path / "poplar.cfg").write_text(
            "budget = 123\nmax-len = 4  # short plans only\n"
            "rewrite-summaries = true\nprecedence = Calendar=10, Date=1\n")
        cfg = config_from_tree(tmp_path)
        assert cfg.plan_budget == 123
        assert cfg.max_plan_length == 4
        assert cfg.summary_rewrite_policy == "rewrite"
        assert cfg.api_precedence == {"Calendar": 10, "Date": 1}

    @pytest.mark.parametrize("entry", ["Calendar", "Calendar=ten", "=3"])
    def test_malformed_precedence_exits_two_naming_the_entry(self, tmp_path,
                                                            capsys, entry):
        code, _, err = run(["synth", c("socket"), "--precedence", entry,
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2 and f"'{entry}'" in err
        (tmp_path / "poplar.cfg").write_text(f"precedence = Date=1, {entry}\n")
        (tmp_path / "socket.pop").write_text((CORPUS / "socket/socket.pop").read_text())
        code, _, err = run(["synth", str(tmp_path), "--out", str(tmp_path / "o")],
                           capsys)
        assert code == 2 and f"'{entry}'" in err

    @pytest.mark.parametrize("entry", ["Calendar", "Calendar=ten", "=3"])
    def test_check_rejects_a_malformed_config_like_synth(self, tmp_path, capsys,
                                                         entry):
        synth = run(["synth", c("socket"), "--precedence", entry,
                     "--out", str(tmp_path / "o")], capsys)
        assert run(["check", c("socket"), "--precedence", entry], capsys) == synth
        assert synth[0] == 2
        (tmp_path / "poplar.cfg").write_text(f"precedence = Date=1, {entry}\n")
        (tmp_path / "socket.pop").write_text((CORPUS / "socket/socket.pop").read_text())
        code, _, err = run(["check", str(tmp_path)], capsys)
        assert code == 2 and f"'{entry}'" in err

    def test_flags_win_over_file(self, tmp_path):
        (tmp_path / "poplar.cfg").write_text("budget = 123\n")
        cfg = config_from_tree(tmp_path, {"plan_budget": 9})
        assert cfg.plan_budget == 9

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(plan_budget=0)
        with pytest.raises(ValueError):
            SearchConfig(max_plan_length=-1)
        with pytest.raises(ValueError):
            SearchConfig(summary_rewrite_policy="maybe")

    def test_config_file_in_tree_applies(self, tmp_path, capsys):
        src = tmp_path / "tree"
        src.mkdir()
        (src / "timeanddate.pop").write_text((CORPUS / "common/timeanddate.pop").read_text())
        (src / "date.pop").write_text((CORPUS / "timedate14/date.pop").read_text())
        (src / "client.pop").write_text((CORPUS / "client/timeutils.pop").read_text())
        (src / "poplar.cfg").write_text("budget = 1\n")
        code, out, _ = run(["synth", str(src), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "BudgetExhausted" in out
        # The flag overrides the file and planning succeeds.
        code, _, _ = run(["synth", str(src), "--budget", "10000",
                          "--out", str(tmp_path / "o2")], capsys)
        assert code == 0

    @pytest.mark.parametrize("text, message", [
        (b"budget = 5\nmax_len = 1\n",
         ":2: unknown key 'max_len' (keys: budget, max-len, rewrite-summaries, precedence)"),
        (b"rewrite-summaries = ture\n",
         ":1: rewrite-summaries must be one of true, false, yes, no, 1, 0, not 'ture'"),
        (b"budget = abc\n", ":1: budget must be a positive integer, not 'abc'"),
        (b"max-len = 0\n", ":1: max-len must be a positive integer, not '0'"),
        (b"# a comment\n\nnonsense  # trailing\n", ":3: expected 'key = value', not 'nonsense'"),
        (b"budget = 5\xff\n",
         ": not UTF-8: byte 0xff at offset 10 (invalid start byte)"),
    ], ids=["unknown-key", "boolean", "integer", "positive", "no-equals", "not-utf8"])
    def test_a_malformed_config_is_a_usage_error_that_names_the_file(
            self, text, message, tmp_path, capsys):
        (tmp_path / "socket.pop").write_text((CORPUS / "socket/socket.pop").read_text())
        cfg = tmp_path / "poplar.cfg"
        cfg.write_bytes(text)
        for argv in (["check", str(tmp_path)],
                     ["synth", str(tmp_path), "--out", str(tmp_path / "o")]):
            assert run(argv, capsys) == (2, "", f"error: {cfg}{message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("budget = 1\nbudget = 10000\n", ":2: 'budget' is already set on line 1"),
        ("max-len = 4\n# again\nmax-len = 12\n", ":3: 'max-len' is already set on line 1"),
        ("budget = 5\nrewrite-summaries = no\nrewrite-summaries = yes\n",
         ":3: 'rewrite-summaries' is already set on line 2"),
    ], ids=["budget", "max-len", "rewrite-summaries"])
    def test_a_repeated_key_is_a_usage_error_that_names_both_lines(
            self, text, message, tmp_path, capsys):
        (tmp_path / "socket.pop").write_text((CORPUS / "socket/socket.pop").read_text())
        cfg = tmp_path / "poplar.cfg"
        cfg.write_text(text)
        for argv in (["check", str(tmp_path)],
                     ["synth", str(tmp_path), "--out", str(tmp_path / "o")]):
            assert run(argv, capsys) == (2, "", f"error: {cfg}{message}\n")
        assert not (tmp_path / "o").exists()

    def test_repeated_precedence_lines_add_up_as_repeated_flags_do(self, tmp_path, capsys):
        for name in ("common/timeanddate.pop", "timedate14/date.pop",
                     "timedate15/calendar.pop", "client/timeutils.pop"):
            (tmp_path / Path(name).name).write_text((CORPUS / name).read_text())
        (tmp_path / "poplar.cfg").write_text(
            "precedence = Calendar=10, Date=3\nprecedence = Date=1\n")
        assert config_from_tree(tmp_path).api_precedence == {"Calendar": 10, "Date": 1}
        assert run(["check", str(tmp_path)], capsys) == (0, "", "")
        code, _, _ = run(["synth", str(tmp_path), "--out", str(tmp_path / "o")], capsys)
        assert code == 0
        text = (tmp_path / "o" / "timeutils.pop").read_text()
        assert "new Calendar()" in text and "new Date()" not in text

    def test_a_malformed_precedence_line_names_its_line(self, tmp_path):
        (tmp_path / "poplar.cfg").write_text("budget = 5\nprecedence = Date\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'poplar.cfg'}:2: bad precedence entry 'Date'")):
            config_from_tree(tmp_path)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poplar.cli", "check", c("socket")],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poplar.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    @staticmethod
    def with_stdout(argv, stdout, unbuffered, entry=("-m", "poplar.cli")):
        """Run the entry with `stdout`. Buffered, a small output fails at
        `run`'s last flush; unbuffered, at the command's own print."""
        env = dict(os.environ, PYTHONPATH=str(Path(poplar.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, *entry, *argv], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, text=True)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["at-exit", "in-command"])
    def test_a_closed_pipe_for_stdout_is_a_usage_error(self, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.with_stdout(["check", c("bad_summary")], write, unbuffered)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == \
            (2, "error: <stdout>: cannot write: Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["at-exit", "in-command"])
    def test_a_full_device_for_stdout_is_a_usage_error(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.with_stdout(["check", c("bad_summary")], full, unbuffered)
        assert (proc.returncode, proc.stderr) == \
            (2, "error: <stdout>: cannot write: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_the_declared_script_entry_reports_an_unwritable_stdout(self):
        """`[project.scripts]` names the entry the installed `poplar` runs."""
        pyproject = (Path(poplar.__file__).parents[2] / "pyproject.toml").read_text()
        module, func = pyproject.split('\npoplar = "', 1)[1].split('"', 1)[0].split(":")
        assert (module, func) == ("poplar.cli", "run")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        with open("/dev/full", "w") as full:
            proc = self.with_stdout(["check", c("bad_summary")], full, False,
                                    entry=("-c", script))
        assert (proc.returncode, proc.stderr) == \
            (2, "error: <stdout>: cannot write: No space left on device\n")

    def test_main_in_process_returns_and_leaves_the_collector_as_it_was(self, capsys):
        import gc
        before = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
        assert main(["check", c("bad_summary")]) == 1
        assert main(["frobnicate"]) == 2
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before

    def test_only_run_ends_the_process(self):
        """`os._exit` is called once in the package, in `cli.run`."""
        def exits(node):
            return sum(isinstance(n, ast.Attribute) and n.attr == "_exit"
                       for n in ast.walk(node))
        found = {}
        for path in sorted(Path(poplar.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            found[path.name] = exits(tree)
            if path.name == "cli.py":
                (run_def,) = [n for n in tree.body
                              if isinstance(n, ast.FunctionDef) and n.name == "run"]
                assert exits(run_def) == 1
        assert {name: n for name, n in found.items() if n} == {"cli.py": 1}


class TestExplainExamples:
    def test_toolbar_frame_dumps_the_button_chain(self, capsys):
        frames = CORPUS / "swing_query" / "frames.pop"
        lines = frames.read_text().splitlines()
        produce_lines = [i + 1 for i, l in enumerate(lines) if "#produce" in l]
        toolbar_query = produce_lines[-1]
        code, out, _ = run(["explain", c("swing", "toolkit.pop"),
                            c("swing", "widgets.pop"), str(frames),
                            "--explain", f"frames.pop:{toolbar_query}"], capsys)
        assert code == 0
        assert "JButton" in out and "JMenuItem" not in out

    def test_unsolvable_query_reports_explored_count(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.pop").write_text("""
class Lonely {
    labels(Lonely) unreachable;
    void want() {
        Lonely x = #produce(Lonely, unreachable);
    }
}
""")
        code, out, _ = run(["explain", str(src), "--explain", "a.pop:5"], capsys)
        assert code == 1
        assert out == (f"{src / 'a.pop'}:5:9: error: E-PLAN: NoSolution: no solution: "
                       "'Lonely.unreachable' is unreachable (explored 0 plans)\n"
                       "explored plans: 0\nrejected threats: 0\n")

    def test_a_query_longer_than_max_len_fails_before_any_search(self, capsys):
        code, out, _ = run(["explain", c("swing", "toolkit.pop"), c("swing", "widgets.pop"),
                            c("swing_query", "frames.pop"), "--max-len", "4",
                            "--explain", "frames.pop:69"], capsys)
        assert code == 1
        assert out.endswith("E-PLAN: NoSolution: no solution within length 4: needs at "
                            "least 6 new actions (explored 0 plans)\n"
                            "lower bound: 6\nexplored plans: 0\nrejected threats: 0\n")

    def test_a_failed_search_reports_its_counters_and_bound(self, capsys):
        code, out, _ = run(["explain", c("threats"), "--max-len", "4",
                            "--explain", "twin.pop:27"], capsys)
        assert code == 1
        assert out.endswith("E-PLAN: NoSolution: no solution within length 4 "
                            "(explored 6 plans)\n"
                            "lower bound: 4\nexplored plans: 6\nrejected threats: 1\n")


class TestAssignmentQuerySite:
    def test_assigned_query_splices_as_assignment(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run(["synth", c("witness"), "--out", str(out_dir)], capsys)
        assert code == 0
        text = (out_dir / "witness.pop").read_text()
        assert "best = stone.duplicate();" in text
        assert "best.blank();" in text and "best.cut();" in text


# sha256 over the name and bytes of each file `synth` writes, in name order,
# when run from tests/corpus with these relative paths (query ids and the
# corpus fingerprint embed the paths as typed).
SYNTH_GOLDEN = {
    ("common", "timedate14", "client"):
        "1c6de8f6a48cf1133063002233fed09edda55fc2b9cb51fce226aa2dda2e9a46",
    ("socket",):
        "8d2d1d6c2adf4377c4c1f2fa91f41c4e370e5a564049ff1d32c3e697ec919243",
    ("swing/toolkit.pop", "swing/widgets.pop", "swing_query/frames.pop"):
        "61658aa6db7c5ddedac80b9c179c53a48e8cfaa8ac4e6a2c9104a0b4592b3664",
    ("recordset",):
        "c1cae33db812923b9257d20174b3bc1dfe55be6e8856bf4155a0561ec69a3a4e",
    ("witness",):
        "496db580c238fd094b4fd8392a21c34d3b194549b241b24142e920c14f6d9ded",
}


@pytest.mark.parametrize("paths", sorted(SYNTH_GOLDEN), ids="+".join)
def test_synth_output_bytes_are_golden(paths, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(CORPUS)
    out_dir = tmp_path / "out"
    code, _, _ = run(["synth", *paths, "--out", str(out_dir)], capsys)
    assert code == 0
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    assert h.hexdigest() == SYNTH_GOLDEN[paths]


SYNTH_DIGESTS = """import hashlib, sys, tempfile
from pathlib import Path
from poplar.cli import _collect_sources, _solve_tree, main
for arg in sys.argv[1:]:
    with tempfile.TemporaryDirectory() as out:
        assert main(["synth", *arg.split(","), "--out", out]) == 0
        h = hashlib.sha256()
        for f in sorted(Path(out).iterdir()):
            h.update(f.name.encode() + b"\\0" + f.read_bytes() + b"\\0")
        print(h.hexdigest())
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_synth_output_bytes_do_not_depend_on_the_hash_seed(seed):
    """The value classes' hashes order sets; no output byte may follow."""
    scenarios = sorted(SYNTH_GOLDEN)
    src = str(Path(poplar.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SYNTH_DIGESTS, *(",".join(p) for p in scenarios)],
        cwd=CORPUS, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == [SYNTH_GOLDEN[p] for p in scenarios]


# Names the benchmark's `--trace 1` mode wraps, at the module where the
# toolchain looks each one up.
TRACED_NAMES = [
    "poplar.parser.tokenize", "poplar.parser.parse_unit",
    "poplar.resolver.Resolver.resolve", "poplar.resolver.overlay_externals",
    "poplar.cli.check_program", "poplar.cli.query_contexts",
    "poplar.cli.plan_query", "poplar.planner.action_universe",
    "poplar.synth.emit_statements", "poplar.synth.splice_program",
    "poplar.synth.render_plain", "poplar.synth.emit_assumptions",
    "poplar.synth.serialize_assumptions", "poplar.synth.parse_assumptions",
    "poplar.synth.check_compat",
]


@pytest.mark.parametrize("dotted", TRACED_NAMES)
def test_traced_names_exist_at_their_lookup_names(dotted):
    package, module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


NEST_BOX = """class Box {
    labels touched;
    resources content;

    Box()
        result: +touched;

    void touch() [!content]
        this: +touched;

    Box wrap(Box b) {
        return b;
    }
}
"""


class TestNesting:
    """Blocks, argument lists and resource trees nest at most 100 deep,
    counted together; a method body is the first level."""

    def check(self, tmp_path, capsys, text):
        (tmp_path / "box.pop").write_text(NEST_BOX)
        src = tmp_path / "deep.pop"
        src.write_text(text)
        code, out, err = run(["check", str(tmp_path)], capsys)
        assert err == ""
        return code, out.replace(str(src), "deep.pop")

    def test_3000_nested_blocks_are_a_positioned_syntax_error(self, tmp_path, capsys):
        text = "class C {\n    void m() {\n" + "{" * 3000 + "}" * 3000 + "\n    }\n}\n"
        assert self.check(tmp_path, capsys, text) == (
            1, "deep.pop:3:100: error: E-SYN: nesting deeper than 100 levels\n")

    def test_nested_calls_count_with_the_enclosing_blocks(self, tmp_path, capsys):
        text = ("class C {\n    void m(Box a) {\n{" + "a.wrap(" * 99 + "a"
                + ")" * 99 + ";}\n    }\n}\n")
        assert self.check(tmp_path, capsys, text) == (
            1, f"deep.pop:3:{2 + 7 * 98 + 6}: error: E-SYN: nesting deeper than 100 levels\n")

    def test_resource_trees_nest_at_most_100_deep(self, tmp_path, capsys):
        def resources(braces):
            return ("class R {\n    resources " + "r{" * braces + "r"
                    + "}" * braces + ";\n}\n")
        assert self.check(tmp_path, capsys, resources(101)) == (
            1, "deep.pop:2:216: error: E-SYN: nesting deeper than 100 levels\n")
        assert self.check(tmp_path, capsys, resources(100)) == (0, "")

    def test_nesting_at_the_limit_checks_and_synthesizes(self, tmp_path, capsys):
        text = ("class C {\n    void m(Box a) {\n" + "{" * 99
                + "Box x = #produce(Box, touched);" + "}" * 99 + "\n    }\n"
                + "    void n(Box a) {\n        Box y = " + "a.wrap(" * 99 + "a"
                + ")" * 99 + ";\n    }\n}\n")
        assert self.check(tmp_path, capsys, text) == (0, "")
        out_dir = tmp_path / "out"
        code, _, err = run(["synth", str(tmp_path), "--out", str(out_dir)], capsys)
        assert (code, err) == (0, "")
        code, out, err = run(["check", str(out_dir)], capsys)
        assert (code, out, err) == (0, "", "")


def test_backslash_newline_ends_a_string_literal_unterminated(tmp_path, capsys):
    src = tmp_path / "s.pop"
    src.write_text('class C {\n    void m() {\n        String s = "a\\\nb";\n    }\n}\n')
    code, out, err = run(["check", str(src)], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{src}:3:20: error: E-SYN: unterminated string literal"]


def test_unique_field_protected_by_its_own_span(capsys):
    path = c("unique_field_span", "held.pop")
    code, out, _ = run(["check", path], capsys)
    assert code == 1
    assert out.splitlines() == [
        f"{path}:15:13: error: E-SPAN: SpanViolation: statement may mutate "
        f"protected resource 'held.content' (summary hits 'this.held.content')"]


def test_transform_of_an_unmanaged_field_uses_the_field_type_for_its_goal(tmp_path, capsys):
    """`ready` is declared by `Sock` and by `Pipe`; the field's type picks
    `Sock.ready` in every command, as the resolver checked it."""
    path = c("query_sites", "unmanaged_field.pop")
    assert run(["check", path], capsys) == (0, "", "")
    out_dir = tmp_path / "out"
    code, _, err = run(["synth", path, "--out", str(out_dir)], capsys)
    assert (code, err) == (0, "")
    assert "        s.open();\n" in (out_dir / "unmanaged_field.pop").read_text()


def test_transform_binds_its_site_variable_as_the_spliced_copy_does(tmp_path, capsys):
    """`Conn t = #transform(c, ready); t.send();` checks as the spliced
    `c.open(); Conn t = c; t.send();` does, declared and assigned alike."""
    path = c("query_sites", "transform_local.pop")
    assert run(["check", path], capsys) == (0, "", "")
    out_dir = tmp_path / "out"
    code, _, err = run(["synth", path, "--out", str(out_dir)], capsys)
    assert (code, err) == (0, "")
    text = (out_dir / "transform_local.pop").read_text()
    assert "        c.open();\n        Conn t = c;\n" in text
    assert "        d.open();\n        u = d;\n" in text
    assert run(["check", str(out_dir)], capsys) == (0, "", "")


@pytest.mark.parametrize("command", ["check", "synth"])
def test_query_assigned_to_a_field_is_a_syntax_error(tmp_path, capsys, command):
    path = c("query_sites", "field_target.pop")
    extra = ["--out", str(tmp_path)] if command == "synth" else []
    code, out, err = run([command, path, *extra], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{path}:12:9: error: E-SYN: a query's value can only be assigned to a variable"]


@pytest.mark.parametrize("command", ["check", "synth"])
def test_query_assigned_to_an_undeclared_name_is_refused_as_its_splice_is(
        tmp_path, capsys, command):
    """`c = #produce(Clock, ticking);` names neither a local nor a field, so
    the spliced `c = v1;` would not check; neither command accepts the site,
    and `synth` writes nothing."""
    path = c("query_sites", "undeclared_target.pop")
    extra = ["--out", str(tmp_path)] if command == "synth" else []
    code, out, err = run([command, path, *extra], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{path}:10:9: error: E-UNIQ: IllegalFlow: assignment target is neither "
        f"a local nor a field"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["check", "synth"])
def test_query_assigned_to_a_managed_field_needs_it_in_the_summary(
        tmp_path, capsys, command):
    """`s = #produce(Sock, ready);` on a managed field `s` stores into the
    field, as the spliced `s = new Sock();` does; with no `mutates this.s`
    that store is refused, at the query, and `synth` writes nothing."""
    path = c("query_sites", "managed_field.pop")
    extra = ["--out", str(tmp_path)] if command == "synth" else []
    code, out, err = run([command, path, *extra], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{path}:13:9: error: E-SUM: SummaryTooNarrow: 'Server.start' mutates "
        f"'this.s' but does not declare it"]
    assert list(tmp_path.iterdir()) == []


def test_query_assigned_to_a_declared_managed_field_checks_and_synthesizes(
        tmp_path, capsys):
    path = c("query_sites", "managed_field_declared.pop")
    assert run(["check", path], capsys) == (0, "", "")
    out_dir = tmp_path / "out"
    code, _, err = run(["synth", path, "--out", str(out_dir)], capsys)
    assert (code, err) == (0, "")
    assert "        s = new Sock();\n" in (out_dir / "managed_field_declared.pop").read_text()
    assert run(["check", str(out_dir)], capsys) == (0, "", "")
    hand = tmp_path / "hand.pop"
    hand.write_text(Path(path).read_text().replace("#produce(Sock, ready)", "new Sock()"))
    assert run(["check", str(hand)], capsys) == (0, "", "")


@pytest.mark.parametrize("flags", [["--budget", "0"], ["--max-len", "0"],
                                   ["--precedence", "Calendar"]],
                         ids=["budget", "max-len", "precedence"])
def test_verify_upgrade_rejects_a_malformed_config_like_check(tmp_path, capsys,
                                                              flags):
    stored = tmp_path / "assumptions"
    code, _, _ = run(["synth", c("common"), c("timedate14"), c("client"),
                      "--out", str(stored)], capsys)
    assert code == 0
    upgrade = run(["verify-upgrade", "--assumptions", str(stored),
                   c("common"), c("timedate14"), *flags], capsys)
    check = run(["check", c("common"), c("timedate14"), *flags], capsys)
    assert upgrade == check
    assert upgrade[0] == 2 and upgrade[1] == ""


@pytest.mark.parametrize("text,col", [
    ("class C {\n    int f = ²;\n}\n", 13),
    ("class C {\n    precedence ²;\n}\n", 16),
], ids=["literal", "precedence"])
def test_non_decimal_digit_is_a_positioned_syntax_error(tmp_path, capsys, text, col):
    """The lexer reads '²' as a digit run, but it has no integer value."""
    src = tmp_path / "d.pop"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(["check", str(src)], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{src}:2:{col}: error: E-SYN: invalid integer literal '²'"]


def test_summary_cycles_name_the_first_callee_met_twice(capsys):
    """Each method whose unannotated callees reach a cycle is one E-SUM at
    the method. Following the first such callee of each body from the
    method, the callee named is the first one met twice."""
    path = c("summary_cycles", "cycles.pop")
    code, out, err = run(["check", path], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{path}:{line}:5: error: E-SUM: MissingCalleeSummary: callee "
        f"'A.{callee}' has no declared or inferable summary"
        for line, callee in [(2, "y"), (3, "y"), (4, "z"), (5, "y"),
                             (6, "self"), (7, "r"), (9, "p")]]


def call_chain(n):
    """One class of `n` unannotated methods, each calling the next."""
    calls = [f"    void m{i}() {{ m{i + 1}(); }}\n" for i in range(n - 1)]
    return "class C {\n" + "".join(calls) + f"    void m{n - 1}() {{ }}\n}}\n"


class TestCalleeChains:
    """Summary inference follows unannotated callees at any depth. A walk
    that met callees with no walk yet gives way to them and then runs again,
    so no method body is walked more than twice per program."""

    @staticmethod
    def walked_methods(monkeypatch):
        """The name of the method of each body walk made from now on."""
        names = []
        init = effects.BodyAnalyzer.__init__

        def counting_init(self, program, unit, method, *rest):
            names.append(method.name)
            init(self, program, unit, method, *rest)

        monkeypatch.setattr(effects.BodyAnalyzer, "__init__", counting_init)
        return names

    def test_400_chain_checks_clean(self, tmp_path, capsys):
        src = tmp_path / "chain.pop"
        src.write_text(call_chain(400))
        assert run(["check", str(src)], capsys) == (0, "", "")

    def test_400_chain_infers_a_mutation_400_calls_up(self):
        text = call_chain(400).replace(
            "class C {\n", "class C {\n    resources r;\n").replace(
            "void m399() { }", "void m399() [!r];")
        program = load_program([("chain.pop", text)])
        assert not program.diagnostics.has_errors
        unit = program.units["C"]
        assert inferred_summary(program, unit, unit.methods[0]) == \
            frozenset({this_target(("r",))})

    def test_400_chain_walks_each_body_once_plus_one_per_restart(self, monkeypatch):
        program = load_program([("chain.pop", call_chain(400))])
        walked = self.walked_methods(monkeypatch)
        assert check_program(program) == []
        # m0 gives way down to m399, then m398 ... m0 each walk once more.
        assert len(walked) <= 400 + 399

    def test_a_body_calling_400_unwalked_methods_is_walked_twice(self, monkeypatch):
        """The caller gives way to all 400 callees at once, not to each in
        turn, which would walk its body 401 times."""
        text = ("class C {\n    void m0() { "
                + " ".join(f"m{i}();" for i in range(1, 401)) + " }\n"
                + "".join(f"    void m{i}() {{ }}\n" for i in range(1, 401)) + "}\n")
        program = load_program([("fan.pop", text)])
        walked = self.walked_methods(monkeypatch)
        assert check_program(program) == []
        assert walked.count("m0") == 2 and len(walked) == 402

    def test_calls_inside_98_nested_blocks_check_clean(self, tmp_path, capsys):
        """Each walk is as deep as one body's blocks, not as deep as the
        whole chain of callees below it."""
        nest = 98
        methods = [f"    void m{i}() {{ " + "{ " * nest + f"m{i + 1}();"
                   + " }" * nest + " }\n" for i in range(49)]
        src = tmp_path / "nested.pop"
        src.write_text("class C {\n" + "".join(methods) + "    void m49() { }\n}\n")
        assert run(["check", str(src)], capsys) == (0, "", "")


def test_transform_of_a_unique_local_synthesizes_the_handwritten_call(tmp_path, capsys):
    """`#transform(c, touched)` on a local bound to a unique parameter, in a
    method declaring `mutates any(Box).content`, where the hand-written
    `c.touch();` checks clean. The planner names the step's mutation as the
    checker does, so the query is solvable under the default policy."""
    out_dir = tmp_path / "out"
    code, out, err = run(["synth", c("unique_local_transform"), "--out", str(out_dir)],
                         capsys)
    assert (code, out, err) == (0, "", "")
    text = (out_dir / "transform.pop").read_text()
    assert "        Box c = a;\n        c.touch();\n" in text
    assert run(["check", str(out_dir)], capsys) == (0, "", "")


@pytest.mark.parametrize("synth_dirs,upgrade_dirs,assume,old,new,where,message", [
    (("common", "timedate14", "client"), ("common", "upgrade_stronger"),
     "timeutils.assume", "return-uniqueness=normal", "return-uniqueness=bogus",
     "10:19", "unknown uniqueness kind 'bogus'"),
    (("common", "timedate14", "client"), ("common", "upgrade_stronger"),
     "timeutils.assume", "group=-1", "group=zz",
     "9:7", "group 'zz' is not an integer"),
    (("common", "timedate14", "client"), ("common", "upgrade_stronger"),
     "timeutils.assume", "kind=invoke", "kind=call",
     "18:6", "unknown record kind 'call' (expected ctor, invoke or fieldread)"),
    (("socket",), ("socket",),
     "server.assume", "arg-kinds=bindPoint=normal", "arg-kinds=bindPoint=bogus",
     "22:21", "unknown uniqueness kind 'bogus' for argument 'bindPoint'"),
    (("socket",), ("socket",),
     "server.assume", "arg-kinds=bindPoint=normal", "arg-kinds=",
     "22:11", "0 argument kinds for the 1 parameters of 'void bind(SocketAddress)'"),
    (("socket",), ("socket",),
     "server.assume", "arg-kinds=bindPoint=normal", "arg-kinds=bindPoint=normal; c=normal",
     "22:11", "2 argument kinds for the 1 parameters of 'void bind(SocketAddress)'"),
    (("socket",), ("socket",),
     "server.assume", "arg-kinds=bindPoint=normal", "arg-kinds=bindPoint=normal; bindPoint=unique",
     "22:29", "argument 'bindPoint' is named twice"),
], ids=["return-uniqueness", "group", "kind", "arg-kinds", "arg-kinds-missing",
        "arg-kinds-extra", "arg-kinds-twice"])
def test_malformed_assumption_field_is_a_positioned_syntax_error(
        tmp_path, capsys, synth_dirs, upgrade_dirs, assume, old, new, where, message):
    """The first occurrence of `old` in the stored file becomes `new`; the
    upgrade check prints one E-SYN at the field's value and no verdict."""
    stored = tmp_path / "assumptions"
    code, _, _ = run(["synth", *map(c, synth_dirs), "--out", str(stored)], capsys)
    assert code == 0
    path = stored / assume
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    code, out, err = run(["verify-upgrade", "--assumptions", str(stored),
                          *map(c, upgrade_dirs)], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [f"{path}:{where}: error: E-SYN: {message}"]


@pytest.mark.parametrize("edit", [str.upper, lambda d: d[:63], lambda d: "",
                                  lambda d: d[:63] + "g", lambda d: d + "0"],
                         ids=["uppercase", "short", "empty", "not-hex", "long"])
def test_assumption_corpus_that_is_no_sha256_digest_is_a_positioned_syntax_error(
        tmp_path, capsys, edit):
    stored = tmp_path / "assumptions"
    code, _, _ = run(["synth", c("common"), c("timedate14"), c("client"),
                      "--out", str(stored)], capsys)
    assert code == 0
    path = stored / "timeutils.assume"
    text = path.read_text()
    digest = text.split("corpus=", 1)[1].split("\n", 1)[0]
    bad = edit(digest)
    path.write_text(text.replace("corpus=" + digest, "corpus=" + bad, 1))
    code, out, err = run(["verify-upgrade", "--assumptions", str(stored),
                          c("common"), c("upgrade_stronger")], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{path}:3:8: error: E-SYN: corpus '{bad}' is not a sha256 digest "
        f"(64 lowercase hex digits)"]


@pytest.mark.parametrize("edit,where,message", [
    (lambda text: text[:text.index("return-uniqueness=") + 15], "10:1",
     "expected 'return-uniqueness=', found 'return-uniquene'"),
    (lambda text: "", "1:1", "expected 'query=', found ''"),
    (lambda text: "bogus line\n" + text, "1:1", "expected 'query=', found 'bogus line'"),
    (lambda text: text[:text.rindex("post=")], "25:1",
     "record ends before its 'post=' line"),
    (lambda text: text.replace("mutates=\n", "", 1), "12:1",
     "expected 'mutates=', found 'pre='"),
    (lambda text: text + "extra=\n", "26:1",
     "expected a blank line after 'post=', found 'extra='"),
], ids=["cut-in-first-record", "empty", "line-before-query", "last-line-cut",
        "line-deleted", "line-added"])
def test_assumption_file_that_loses_records_is_a_positioned_syntax_error(
        tmp_path, capsys, edit, where, message):
    """The header keys and each record's ten keys must come in order, so a
    stored file that was cut, emptied or edited prints one E-SYN and no `ok`."""
    stored = tmp_path / "assumptions"
    code, _, _ = run(["synth", c("common"), c("timedate14"), c("client"),
                      "--out", str(stored)], capsys)
    assert code == 0
    path = stored / "timeutils.assume"
    path.write_text(edit(path.read_text()))
    code, out, err = run(["verify-upgrade", "--assumptions", str(stored),
                          c("common"), c("upgrade_stronger")], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [f"{path}:{where}: error: E-SYN: {message}"]


# Runs `poplar.cli.main` on the arguments, then prints the poplar modules the
# process imported as its last line.
# What poplar must not load: `dataclasses`, and `inspect` with it, cost each
# cold process more than writing the classes out does; records are copied
# by `poplar.replace`, not by `copy`.
UNWANTED = {"dataclasses", "inspect", "copy"}

LOADED = """import sys
from poplar.cli import _collect_sources, _solve_tree, main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules
                      if m.startswith("poplar.") or m in ("dataclasses", "inspect", "copy"))))
sys.exit(code)
"""


class TestImportLayers:
    """A cold process imports only the layers its command runs."""

    def test_every_module_level_import_is_used(self):
        """Each name a module imports at its top level, or under a top-level
        `if`, is read in that module: as a name in code or inside a string
        annotation. A docstring that mentions it does not count."""
        unused = []
        for path in sorted(Path(poplar.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            imports = [n for top in tree.body
                       for n in (top.body if isinstance(top, ast.If) else [top])
                       if isinstance(n, (ast.Import, ast.ImportFrom))
                       and getattr(n, "module", None) != "__future__"]
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            annotations = [n.annotation for n in ast.walk(tree)
                           if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation] + \
                [n.returns for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.returns]
            for a in annotations:
                for n in ast.walk(a):
                    if isinstance(n, ast.Constant) and isinstance(n.value, str):
                        used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                                    if isinstance(m, ast.Name))
            unused.extend(f"{path.name}:{n.lineno}: {alias.asname or alias.name}"
                          for n in imports for alias in n.names
                          if (alias.asname or alias.name.split(".")[0]) not in used)
        assert unused == []

    def test_no_module_imports_dataclasses(self):
        """Not at module level, and not inside a function either."""
        found = []
        for path in sorted(Path(poplar.__file__).parent.glob("*.py")):
            for n in ast.walk(ast.parse(path.read_text())):
                names = [a.name for a in n.names] if isinstance(n, ast.Import) else \
                    [n.module] if isinstance(n, ast.ImportFrom) else []
                found.extend(f"{path.name}:{n.lineno}" for name in names
                             if name and name.split(".")[0] == "dataclasses")
        assert found == []

    def loaded(self, argv, cwd=None):
        src = str(Path(poplar.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", LOADED, *argv], cwd=cwd,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.stderr == ""
        return proc.returncode, set(proc.stdout.splitlines()[-1].split())

    def test_check_imports_the_check_path_only(self):
        """Nor `dataclasses` or `inspect`."""
        code, modules = self.loaded(["check", c("socket")])
        assert code == 0
        assert modules == {"poplar.cli", "poplar.config", "poplar.diagnostics",
                           "poplar.model", "poplar.lexer", "poplar.parser",
                           "poplar.resolver", "poplar.effects"}

    def test_verify_upgrade_does_not_import_the_planner(self, tmp_path, capsys):
        stored = tmp_path / "assumptions"
        code, _, _ = run(["synth", c("common"), c("timedate14"), c("client"),
                          "--out", str(stored)], capsys)
        assert code == 0
        code, modules = self.loaded(["verify-upgrade", "--assumptions", str(stored),
                                     c("common"), c("upgrade_stronger")])
        assert code == 0
        assert "poplar.synth" in modules
        assert not modules & {"poplar.planner", "poplar.printer", "poplar.effects"}
        assert not modules & UNWANTED

    def test_synth_output_is_unchanged(self, tmp_path):
        out_dir = tmp_path / "out"
        code, modules = self.loaded(["synth", "witness", "--out", str(out_dir)],
                                    cwd=CORPUS)
        assert code == 0 and "poplar.planner" in modules
        assert not modules & UNWANTED
        h = hashlib.sha256()
        for f in sorted(out_dir.iterdir()):
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        assert h.hexdigest() == SYNTH_GOLDEN[("witness",)]


# Corpus trees that check clean and ask queries; a `query_sites` file is
# a tree of its own.
CLEAN_TREES = [TD14, TD15, SWING_QUERY] + [
    sorted(str(f.relative_to(CORPUS)) for f in (CORPUS / d).glob("*.pop"))
    for d in ("protocol_order", "recordset", "shapes", "socket", "threats",
              "unique_local_transform", "witness")] + [
    [f"query_sites/{n}.pop"] for n in ("managed_field_declared", "transform_local",
                                       "unmanaged_field")]
CLEAN_TREE_TEXTS = sorted({(n, (CORPUS / n).read_text()) for t in CLEAN_TREES for n in t})


def edited_tree(name, text):
    """The edited file `name` with the rest of the first clean tree that
    holds it."""
    tree = next(t for t in CLEAN_TREES if name in t)
    return [(n, text if n == name else (CORPUS / n).read_text()) for n in tree]


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


def assert_clean_in_clean_out(sources):
    """When the tree `sources` checks clean, `synth` solves it or reports
    only planning failures, its output checks clean, the annotated tree
    with each query replaced by its statements checks clean, and
    `verify-upgrade` of the same tree against the assumptions it wrote
    finds every one of them holding."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "src"), Path(tmp, "out")
        for name, text in sources:
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_text(text)
        if cli(["check", str(src)])[0] != 0:
            return
        code, printed = cli(["synth", str(src), "--out", str(out)])
        if code == 1:
            assert all(": error: E-PLAN: " in line for line in printed.splitlines()), printed
            return
        assert (code, printed) == (0, "")
        if any(out.glob("*.pop")):  # a tree that declares no class has no output
            assert cli(["check", str(out)]) == (0, "")
        program = load_program(_collect_sources([str(src)]))
        solutions, _, failures = _solve_tree(program, config_from_tree(src, {}))
        assert failures == []
        assert check_program(splice_program(program, solutions)) == []
        code, printed = cli(["verify-upgrade", "--assumptions", str(out), str(src)])
        assert code == 0 and all(line.startswith("ok ") for line in printed.splitlines()), \
            printed


# Derandomized: tier-1 must not pass or fail by chance. Each defect a
# wider random run finds gets a pin of its own, like the one below.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(edited_corpus_file(CLEAN_TREE_TEXTS))
def test_an_edited_tree_that_checks_clean_synthesizes_output_that_checks_clean(edit):
    """Check-clean in, check-clean out, for one-token edits of the corpus."""
    assert_clean_in_clean_out(edited_tree(*edit))


def test_a_second_constructor_of_one_arity_is_refused_where_the_property_test_found_it(
        tmp_path, capsys):
    """Found by the property test above: deleting `twin` from `Circle
    twin()` declares a second `Circle()` constructor, the one that adds
    `tagged`. The planner used the second and `verify-upgrade` matched
    the first; now neither command gets that far."""
    name = "shapes/shapes.pop"
    src = tmp_path / "shapes.pop"
    src.write_text((CORPUS / name).read_text().replace("Circle twin()", "Circle  ()"))
    want = f"{src}:15:5: error: E-RES: duplicate constructor 'Circle/0' in 'Circle'\n"
    assert run(["check", str(src)], capsys) == (1, want, "")
    assert run(["synth", str(src), "--out", str(tmp_path / "out")], capsys) == (1, want, "")
    assert not (tmp_path / "out").exists()


# A class declares each method and constructor once per name and arity,
# and each field once per name.
DUPLICATE_MEMBERS = {
    "field": ("class A {\n    int x;\n    String x;\n}\n",
              "3:5: error: E-RES: duplicate field 'x' in 'A'"),
    "method": ("class A {\n    void put(int x);\n    void put(String s);\n}\n",
               "3:5: error: E-RES: duplicate method 'put/1' in 'A'"),
    "constructor": ("class A {\n    A();\n    A();\n}\n",
                    "3:5: error: E-RES: duplicate constructor 'A/0' in 'A'"),
    "same_signature": ("class A {\n    void f();\n    void f();\n}\n",
                       "3:5: error: E-RES: duplicate method 'f/0' in 'A'"),
    "interface": ("interface I {\n    void f();\n    int f();\n}\n",
                  "3:5: error: E-RES: duplicate method 'f/0' in 'I'"),
}


@pytest.mark.parametrize("case", sorted(DUPLICATE_MEMBERS))
def test_a_second_member_of_one_identity_is_a_resolution_error(case, tmp_path, capsys):
    text, where = DUPLICATE_MEMBERS[case]
    src = tmp_path / "a.pop"
    src.write_text(text)
    want = f"{src}:{where}\n"
    assert run(["check", str(src)], capsys) == (1, want, "")
    assert run(["synth", str(src), "--out", str(tmp_path / "out")], capsys) == (1, want, "")
    assert not (tmp_path / "out").exists()


def test_members_may_overload_by_arity(tmp_path, capsys):
    src = tmp_path / "a.pop"
    src.write_text("class A {\n    A();\n    A(int n);\n    void put(int x);\n"
                   "    void put(int x, int y);\n}\n")
    assert run(["check", str(src)], capsys) == (0, "", "")


def test_new_must_match_the_arity_of_a_declared_constructor(tmp_path, capsys):
    src = tmp_path / "box.pop"
    src.write_text("class Box {\n    Box();\n}\n\nclass User {\n    void use() {\n"
                   "        Box b = new Box(1, 2);\n    }\n}\n")
    assert run(["check", str(src)], capsys) == (
        1, f"{src}:7:9: error: E-UNIQ: IllegalFlow: no constructor 'Box/2'\n", "")
    # A class that declares no constructor takes any arguments, as before.
    src.write_text(src.read_text().replace("    Box();\n", ""))
    assert run(["check", str(src)], capsys) == (0, "", "")


def test_an_external_must_match_the_parameter_types_of_its_target(tmp_path, capsys):
    src = tmp_path / "a.pop"
    src.write_text("class Box {\n    void fill(int n);\n}\n\nclass Filler {\n"
                   "    external Box.fill(String n);\n}\n")
    assert run(["check", str(src)], capsys) == (
        1, f"{src}:6:5: error: E-RES: dangling external: no method matches "
           f"'Box.fill(String)'\n", "")


BOX_TREE = """class Box {
    labels full;

    Box();

    void fill(Box other)
        this: +full;
}

class User {
    void use(Box b) {
        #transform(b, full);
    }
}
"""


def test_verify_upgrade_compares_the_signature_of_the_member_of_that_arity(
        tmp_path, capsys):
    """`verify-upgrade` finds `fill/1` and refuses it, because its
    parameter type changed."""
    v1, v2, out = tmp_path / "v1", tmp_path / "v2", tmp_path / "out"
    v1.mkdir()
    v2.mkdir()
    (v1 / "box.pop").write_text(BOX_TREE)
    (v2 / "box.pop").write_text(BOX_TREE.replace("fill(Box other)", "fill(User other)"))
    assert run(["synth", str(v1), "--out", str(out)], capsys)[0] == 0
    assert run(["verify-upgrade", "--assumptions", str(out), str(v1)], capsys) == (
        0, f"ok {v1 / 'box.pop'}:12\n", "")
    assert run(["verify-upgrade", "--assumptions", str(out), str(v2)], capsys) == (
        1, f"incompatible {v1 / 'box.pop'}:12: Box.fill: member-missing: "
           f"no method matches the assumed signature\n", "")
