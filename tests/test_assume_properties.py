"""Properties of the `.assume` files that `synth` writes for the corpus trees:
parsing one and serializing it again gives its bytes back, and a file that
lost one line, or was cut inside a record, parses to the same records or
fails with a positioned E-SYN, never with a traceback."""

import contextlib
import hashlib
import io
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poplar.cli import main
from poplar.diagnostics import E_SYN
from poplar.synth import MalformedAssumptions, parse_assumptions, serialize_assumptions

from conftest import CORPUS

# Every corpus tree that `synth` writes `.assume` files for, with exit 0.
SCENARIOS = [
    ("common", "timedate14", "client"),
    ("common", "timedate15", "client"),
    ("recordset",),
    ("shapes",),
    ("socket",),
    ("swing/toolkit.pop", "swing/widgets.pop", "swing_query/frames.pop"),
    ("threats",),
    ("unique_local_transform",),
    ("witness",),
]

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


# sha256 over the name and text of every file below, in name order. Query
# ids embed the paths as typed, so `synth` runs from tests/corpus.
ASSUME_GOLDEN = "46429e570d87b9486cbc841122662cb2a691dd4b3d5eda5149451f8c1316706c"


@lru_cache(maxsize=None)
def assume_files() -> dict[str, str]:
    """The text of each `.assume` file of each scenario, by `tree/name`."""
    files = {}
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        for paths in SCENARIOS:
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stdout(io.StringIO()):
                assert main(["synth", *paths, "--out", out]) == 0
                for f in sorted(Path(out).glob("*.assume")):
                    files[f"{'+'.join(paths)}/{f.name}"] = f.read_text()
    finally:
        os.chdir(cwd)
    return files


def outcome(text: str, original: str):
    """"same" when `text` parses to the records of `original`, "E-SYN" when
    it fails with one positioned inside `text` or on the line after its end
    (where a missing line belongs), else what it parsed to."""
    try:
        parsed = parse_assumptions(text, "f.assume")
    except MalformedAssumptions as e:
        d = e.diagnostic
        lines = text.split("\n") + [""]
        if d.code == E_SYN and 1 <= d.line <= len(lines) and \
                1 <= d.col <= len(lines[d.line - 1]) + 1:
            return "E-SYN"
        return d.render()
    again = serialize_assumptions(parsed)
    return "same" if again == original else again


def record_spans(text: str) -> list[tuple[int, int]]:
    """The offsets of each record's first character and of its `post=`
    value, which the record's last line holds."""
    spans, start = [], 0
    while (start := text.find("\ntype=", start) + 1) > 0:
        spans.append((start, text.index("\npost=", start) + len("\npost=")))
    return spans


def test_every_scenario_writes_records():
    files = assume_files()
    for paths in SCENARIOS:
        names = [n for n in files if n.startswith("+".join(paths) + "/")]
        assert names and all(record_spans(files[n]) for n in names), paths


def test_the_files_are_golden():
    """Under any hash seed: a record order that followed set order drifts."""
    digest = hashlib.sha256()
    for name, text in sorted(assume_files().items()):
        digest.update(repr((name, text)).encode())
    assert digest.hexdigest() == ASSUME_GOLDEN


@pytest.mark.parametrize("name", sorted(assume_files()))
def test_serialize_after_parse_is_the_identity(name):
    text = assume_files()[name]
    assert serialize_assumptions(parse_assumptions(text, name)) == text


@PROPERTY
@given(st.data())
def test_deleting_any_one_line_keeps_the_records_or_is_a_positioned_error(data):
    text = assume_files()[data.draw(st.sampled_from(sorted(assume_files())))]
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    assert outcome("\n".join(lines[:i] + lines[i + 1:]), text) in ("same", "E-SYN")


@PROPERTY
@given(st.data())
def test_a_cut_inside_a_record_is_a_positioned_error(data):
    """A cut after a record's first character and before the `=` of its
    `post=` line."""
    text = assume_files()[data.draw(st.sampled_from(sorted(assume_files())))]
    start, post = data.draw(st.sampled_from(record_spans(text)))
    assert outcome(text[:data.draw(st.integers(start + 1, post - 1))], text) == "E-SYN"


def without_its_last_record():
    """`timeutils.assume` of the time/date scenario cut right after its
    first record's `post=` line, and the whole file."""
    text = assume_files()["common+timedate14+client/timeutils.assume"]
    start, _ = record_spans(text)[-1]
    return text[:start], text


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: an .assume file cut right after a record's post= line "
    "still parses; the format does not say how many records a query has"))
def test_a_cut_at_a_record_boundary_is_a_positioned_error():
    cut, text = without_its_last_record()
    assert outcome(cut, text) == "E-SYN"


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: an .assume file cut inside a record's post= value "
    "parses to a shorter value; no line marks where a record ends"))
def test_a_cut_inside_a_post_value_is_a_positioned_error():
    text = assume_files()["common+timedate14+client/timeutils.assume"]
    cut = text[:text.rindex("; this Date.currentTime")]
    assert outcome(cut, text) == "E-SYN"
