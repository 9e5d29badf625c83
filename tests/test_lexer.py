"""The table-driven tokenizer gives the same tokens, or the same error at the
same position, as the character loop it replaced (`reference_lexer`), and
takes time linear in its input."""

import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poplar.lexer import LexError, tokenize

import reference_lexer
from conftest import CORPUS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))

# Pieces that meet at token boundaries in interesting ways: non-ASCII letters
# and digits (`²` is a digit to `str.isdigit` but not to `\d`; `½` is
# numeric only), tabs and carriage returns, array suffixes, comment and
# string delimiters, escapes and lone backslashes.
FRAGMENTS = [
    "a", "Z", "_", "_x1", "é", "ß", "名", "x²", "²", "½", "0", "12", "٣",
    "class", "new", "byte", "byte[]", "[]", "[", "]", "this", "->", "-", ">",
    " ", "  ", "\t", "\r", "\n", "\r\n", "/", "//", "/*", "*/", "*", "/**/",
    '"', '\\', '\\n', '\\"', '\\\\', "\\\n", "€", "\f", "\x00", "(", ")",
    "{", "}", ";", ":", ",", ".", "@", "+", "!", "#", "?", "=",
]


def outcome(lex, text):
    """The `(kind, text, line, col)` tokens of `text`, or its LexError."""
    try:
        return lex(text)
    except LexError as e:
        return ("LexError", e.message, e.pos.line, e.pos.col)


def assert_same(text):
    assert outcome(tokenize, text) == outcome(reference_lexer.tokenize, text)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_matches_reference_on_fragments(text):
    assert_same(text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("".join(FRAGMENTS)),
                                  st.characters()), max_size=60))
def test_matches_reference_on_any_text(text):
    assert_same(text)


def test_matches_reference_on_every_corpus_file():
    files = sorted(CORPUS.rglob("*.pop"))
    assert files
    for f in files:
        assert_same(f.read_text())


def test_matches_reference_on_every_generated_benchmark_file():
    """Both halves of the `wide_tree` tree, doc comments and all, and the
    `deep_queries` tree."""
    for work in (gen.wide_tree(1), gen.deep_queries(1)):
        for name in sorted(work.files):
            assert_same(work.files[name])


def irregular_file():
    """A file where hundreds of tokens start or go on with a character that
    only `str.isdigit`/`isalpha` classifies, between ASCII tokens, doc
    comments and line comments."""
    rng = random.Random(0)
    ascii_tokens = ["class", "A", "x_1", "{", "}", ";", "=", "42", "->", '"s\\t"',
                    "byte[]", "new", "(", ")", ".", "@"]
    irregular = ["éa", "é1", "émile_2", "x²", "1²", "12abc", "٣4", "ß[]", "x²y"]
    gaps = [" ", " ", "\n    ", "\t", "\r\n", "/** doc é² 12abc */\n", "// note x²\n",
            "/* a\n * b */"]
    out = []
    for _ in range(3000):
        out.append(rng.choice(irregular if rng.random() < 0.3 else ascii_tokens))
        out.append(rng.choice(gaps))
    return "".join(out)


def test_matches_reference_on_a_file_of_irregular_tokens():
    text = irregular_file()
    assert sum(not t[1].isascii() for t in tokenize(text)) >= 300
    assert_same(text)
    # The same file ending in an unexpected character: the error's position
    # counts every line and column before it.
    assert_same(text + "x\f")


# Inputs where a scan that gave up on a long alternative and tried again one
# character later would take time quadratic in their length.
LINEAR_INPUTS = {
    "digits then a letter": "1" * 200_000 + "a",
    "digits run into letters": "12abc " * 33_334,
    "superscript twos": "²" * 200_000,
    "accented letters": "é" * 200_000,
    "accented names": "é1 " * 66_667,
    "unterminated string": '"' + "a" * 200_000,
    "unterminated string of escaped quotes": '"' + '\\"' * 100_000,
    "unterminated block comments": "/* " * 66_667,
}


@pytest.mark.parametrize("name", LINEAR_INPUTS)
def test_lexing_takes_linear_time(name):
    text = LINEAR_INPUTS[name]
    start = time.perf_counter()
    got = outcome(tokenize, text)
    assert time.perf_counter() - start < 2.0
    assert got == outcome(reference_lexer.tokenize, text)


def best_time(text):
    """The least of five timings of `tokenize(text)`, in seconds."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        tokenize(text)
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("run", ["é", "²"], ids=["accented letters", "superscript twos"])
def test_a_run_of_non_ascii_word_characters_costs_about_what_an_ascii_run_does(run):
    """A run of word characters is one match of the pattern, whatever its
    characters: one match per character took over 100 times as long."""
    assert best_time(run * 200_000) < 20 * best_time("a" * 200_000)


def test_word_characters_are_exactly_isalnum_and_underscore():
    """The identifier pattern continues with `\\w`; that must be the set the
    character loop used."""
    words = set(re.findall(r"\w", ALL_CHARS))
    assert words == {c for c in ALL_CHARS if c.isalnum() or c == "_"}


def test_every_digit_letter_and_word_character_lexes_as_in_the_reference():
    """Every `isdigit` character alone, after a letter and after a digit;
    every `isalpha` character as the start of an identifier; every word
    character inside one identifier."""
    digits = [c for c in ALL_CHARS if c.isdigit()]
    letters = [c for c in ALL_CHARS if c.isalpha()]
    words = "".join(c for c in ALL_CHARS if c.isalnum() or c == "_")
    for text in (" ".join(digits), " a".join(digits), "1" + "".join(digits),
                 " ".join(letters), "a" + words):
        assert_same(text)
    assert [t[1] for t in tokenize("a" + words)] == ["a" + words, ""]


def test_superscript_two_continues_an_int_and_an_identifier():
    assert [t[:2] for t in tokenize("1² x²")][:2] == [("int", "1²"), ("ident", "x²")]


def test_trailing_line_comment_leaves_the_end_at_its_column():
    assert tokenize("a // tail")[-1] == ("eof", "", 1, 3)
    assert_same("a // tail")


def test_backslash_newline_in_a_string_is_unterminated():
    text = 'class C {\n  String s = "a\\\nb";\n}\n'
    for lex in (tokenize, reference_lexer.tokenize):
        with pytest.raises(LexError) as e:
            lex(text)
        assert (e.value.message, e.value.pos.line, e.value.pos.col) == \
            ("unterminated string literal", 2, 14)
