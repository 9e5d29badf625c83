"""How sources and assumption files are found and read: the names, order and
text that `check`, `synth` and `verify-upgrade` see, checked against the
`pathlib` reads kept in `reference_sources.py`, and the usage error that a
path which cannot be stat-ed, listed, read or made gives."""

import errno
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poplar
import reference_sources
from conftest import CORPUS
from poplar.cli import _find_sources, _list_assumptions, main
from poplar.config import read_utf8

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def c(*parts):
    return str(CORPUS / Path(*parts))


# Names mix the characters that sort on either side of the separator (`-`
# and `.`), digits and non-ASCII; some end in `.pop`.
NAME = st.builds(lambda stem, pop: stem + ".pop" * pop,
                 st.text(alphabet="a-.1é", min_size=1, max_size=3),
                 st.booleans()).filter(lambda name: name not in (".", ".."))
TREE = st.lists(st.lists(NAME, min_size=1, max_size=3), max_size=12)


def make_tree(root: Path, paths: list[list[str]]) -> None:
    """A file at each path; one that a file or a directory is already in the
    way of is left out."""
    for parts in paths:
        path = root.joinpath(*parts)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("class C { }\n", encoding="utf-8")
        except (FileExistsError, NotADirectoryError, IsADirectoryError):
            pass


@PROPERTY
@given(paths=TREE, top=st.sampled_from([".", "./", "t/../t", "t/", "absolute"]))
def test_sources_are_named_and_ordered_as_pathlib_finds_them(paths, top):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "t")
        tree.mkdir()
        make_tree(tree, paths)
        os.chdir(tree if top.startswith(".") else tmp)
        try:
            arg = str(tree) if top == "absolute" else top
            assert _find_sources(arg) == reference_sources.find_sources(arg)
        finally:
            os.chdir(cwd)


# Pieces whose joins hold line endings of each kind next to each other and
# to bytes that are not UTF-8: a bad start byte, a cut sequence, an
# encoded surrogate and a byte-order mark.
PIECES = [b"a", b"\n", b"\r", b"\r\n", b"\xc3\xa9", b"\xe9", b"\xe2\x82", b"\xac",
          b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\xff", b"\xf0\x9f\x98\x80"]


@PROPERTY
@given(data=st.lists(st.sampled_from(PIECES), max_size=10).map(b"".join))
def test_a_file_reads_as_text_mode_reads_it(data):
    """The same text, or a not-UTF-8 error at the byte and offset of the
    reference's `UnicodeDecodeError`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.pop")
        with open(path, "wb") as f:
            f.write(data)
        try:
            expected = reference_sources.read_text(path)
        except UnicodeDecodeError as e:
            expected = ValueError(f"{path}: not UTF-8: byte 0x{e.object[e.start]:02x} "
                                  f"at offset {e.start} ({e.reason})")
        try:
            got = read_utf8(path)
        except ValueError as e:
            got = e
        assert type(got) is type(expected) and str(got) == str(expected)


@pytest.mark.parametrize("data, message", [
    (b"class A {\r\n}\r\n// caf\xe9\r\n", "byte 0xe9 at offset 20 (invalid continuation byte)"),
    (b"class A {\r}\r// caf\xe9", "byte 0xe9 at offset 18 (unexpected end of data)"),
    (b"\xef\xbb\xbfclass A { }\r\n\xff", "byte 0xff at offset 16 (invalid start byte)"),
], ids=["crlf", "lone-cr", "bom"])
def test_the_not_utf8_message_counts_every_byte_before_the_bad_one(tmp_path, capsys,
                                                                  data, message):
    bad = tmp_path / "bad.pop"
    bad.write_bytes(data)
    assert run(["check", str(tmp_path)], capsys) == \
        (2, "", f"error: {bad}: not UTF-8: {message}\n")


TWIN_TREES = [("common", "timedate14", "client"),
              ("swing/toolkit.pop", "swing/widgets.pop", "swing_query/frames.pop")]


@pytest.mark.parametrize("tree", TWIN_TREES, ids=["timedate14", "swing"])
def test_crlf_and_lone_cr_twins_synthesize_the_bytes_of_the_lf_tree(tmp_path, capsys,
                                                                    monkeypatch, tree):
    """Query ids and the `corpus` digest hold the source names and texts, so
    each twin runs from its own root under the same names."""
    outputs = {}
    for twin, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        for arg in tree:
            source = CORPUS / arg
            for f in sorted(source.glob("*.pop")) if source.is_dir() else [source]:
                text = f.read_text(encoding="utf-8")
                assert "\r" not in text
                target = tmp_path / twin / f.relative_to(CORPUS)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(text.replace("\n", ending).encode())
        monkeypatch.chdir(tmp_path / twin)
        assert run(["synth", *tree, "--out", "out"], capsys) == (0, "", "")
        outputs[twin] = {f.name: f.read_bytes() for f in sorted(Path("out").iterdir())}
    assert {Path(name).suffix for name in outputs["lf"]} == {".pop", ".assume"}
    assert outputs["crlf"] == outputs["lf"] and outputs["cr"] == outputs["lf"]


def test_assumption_files_are_listed_as_pathlib_globbed_them(tmp_path, monkeypatch):
    """Dot-files and links to files count; a directory, a link to one, a
    broken link, another suffix and another case of `.assume` do not."""
    d = tmp_path / "stored"
    d.mkdir()
    for name in ("b.assume", ".hidden.assume", ".assume", "x.ASSUME", "b.assume.txt",
                 "b.pop"):
        (d / name).write_text("")
    (d / "x.assume").mkdir()
    (d / "link.assume").symlink_to(d / "b.assume")
    (d / "broken.assume").symlink_to(d / "nowhere.assume")
    (d / "dirlink.assume").symlink_to(d / "x.assume", target_is_directory=True)
    names = [".assume", ".hidden.assume", "b.assume", "link.assume"]
    assert _list_assumptions(str(d)) == reference_sources.list_assumptions(str(d)) == \
        [str(d / name) for name in names]
    monkeypatch.chdir(d)
    assert _list_assumptions(".") == reference_sources.list_assumptions(".") == names


@pytest.fixture
def stored(tmp_path, capsys):
    out_dir = tmp_path / "assumptions"
    assert run(["synth", c("common"), c("timedate14"), c("client"),
                "--out", str(out_dir)], capsys) == (0, "", "")
    return out_dir


def test_an_unlistable_assumptions_directory_is_a_usage_error_naming_it(stored, capsys,
                                                                       monkeypatch):
    """Not a silent pass with nothing checked."""
    listing = os.scandir

    def refuse(path):
        if str(path) == str(stored):
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return listing(path)

    monkeypatch.setattr(os, "scandir", refuse)
    assert run(["verify-upgrade", "--assumptions", str(stored), c("common"),
                c("upgrade_stronger")], capsys) == \
        (2, "", f"error: {stored}: cannot read: Permission denied\n")


@pytest.mark.parametrize("which", ["directory", "file", "config", "assumptions"])
def test_a_path_that_cannot_be_stat_ed_is_a_usage_error_naming_it(tmp_path, capsys,
                                                                 monkeypatch, which):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.pop").write_text("class A { }\n")
    (tree / "poplar.cfg").write_text("budget = 5\n")
    (tmp_path / "stored").mkdir()
    argv, target = {
        "directory": (["check", str(tree)], tree),
        "file": (["check", str(tree / "a.pop")], tree / "a.pop"),
        "config": (["check", str(tree)], tree / "poplar.cfg"),
        "assumptions": (["verify-upgrade", "--assumptions", str(tmp_path / "stored"),
                         str(tree)], tmp_path / "stored"),
    }[which]
    status = os.stat

    def refuse(path, *args, **kwargs):
        if str(path) == str(target):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return status(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", refuse)
    assert run(argv, capsys) == (2, "", f"error: {target}: cannot read: Permission denied\n")


@pytest.mark.parametrize("code", [errno.EACCES, errno.EROFS], ids=["EACCES", "EROFS"])
def test_an_out_directory_that_cannot_be_made_is_a_usage_error(tmp_path, capsys,
                                                               monkeypatch, code):
    def refuse(self, *args, **kwargs):
        raise OSError(code, os.strerror(code), str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    out_dir = tmp_path / "out"
    assert run(["synth", c("witness"), "--out", str(out_dir)], capsys) == \
        (2, "", f"error: {out_dir}: cannot make the output directory: {os.strerror(code)}\n")
    assert list(tmp_path.iterdir()) == []


def test_synth_writes_utf8_whatever_the_locale(tmp_path):
    """Under the C locale with Python's UTF-8 mode and locale coercion off,
    the default text encoding is ASCII."""
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.pop").write_text("class Café { }\n", encoding="utf-8")
    outputs = []
    for name, locale in (("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
                         ("utf8", {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"})):
        env = dict(os.environ, PYTHONPATH=str(Path(poplar.__file__).parents[1]), **locale)
        env.pop("PYTHONIOENCODING", None)
        out_dir = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "poplar.cli", "synth", str(tree),
                               "--out", str(out_dir)], env=env, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        outputs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    assert b"class Caf\xc3\xa9" in outputs[0]["a.pop"]
    assert outputs[0] == outputs[1]
