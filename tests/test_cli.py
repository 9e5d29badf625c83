"""Batch driver behavior: exit codes, flags, config files, output trees."""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poplar
from poplar.cli import main
from poplar.config import SearchConfig, config_from_tree
from poplar import effects
from poplar.effects import check_program, infer_summary
from poplar.model import this_target
from poplar.resolver import load_program

from conftest import CORPUS


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
            "55:5: error: E-RES: unknown resource 'absent' in [!] list",
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
            "14:5: error: E-RES: external names unknown type 'Nowhere'",
            "16:5: error: E-RES: dangling external: no method matches 'Conn.missing(int)'",
            "18:5: error: E-RES: conflicting overlay: protocol 'wire' cannot be "
            "carried by 'Conn' (carriers: Wire)",
            "24:9: error: E-RES: unknown type 'Nowhere' in #produce",
            "25:9: error: E-RES: #transform names unknown variable 'ghost'",
            "26:9: error: E-RES: no protocol or label matches goal 'nonsense'",
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


class TestExplain:
    def test_plan_dump(self, capsys):
        code, out, _ = run(["explain", c("common"), c("timedate14"), c("client"),
                            "--explain", "timeutils.pop:3"], capsys)
        assert code == 0
        assert "actions (2):" in out
        assert "new Date()" in out
        assert "causal links:" in out
        assert "orderings:" in out
        assert "rejected threats:" in out

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

    def test_unknown_query_id(self, capsys):
        code, _, err = run(["explain", c("common"), c("timedate14"), c("client"),
                            "--explain", "nowhere.pop:99"], capsys)
        assert code == 2
        assert "no query matches" in err


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
        assert "NoSolution" in out and "explored" in out


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
        assert infer_summary(program, unit, unit.methods[0]) == \
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
], ids=["return-uniqueness", "group", "kind", "arg-kinds"])
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
LOADED = """import sys
from poplar.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("poplar."))))
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

    def loaded(self, argv, cwd=None):
        src = str(Path(poplar.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", LOADED, *argv], cwd=cwd,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.stderr == ""
        return proc.returncode, set(proc.stdout.splitlines()[-1].split())

    def test_check_imports_the_check_path_only(self):
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
        assert "poplar.planner" not in modules and "poplar.printer" not in modules

    def test_synth_output_is_unchanged(self, tmp_path):
        out_dir = tmp_path / "out"
        code, modules = self.loaded(["synth", "witness", "--out", str(out_dir)],
                                    cwd=CORPUS)
        assert code == 0 and "poplar.planner" in modules
        h = hashlib.sha256()
        for f in sorted(out_dir.iterdir()):
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        assert h.hexdigest() == SYNTH_GOLDEN[("witness",)]
