"""The table-driven tokenizer gives the same tokens, or the same error at the
same position, as the character loop it replaced (`reference_lexer`)."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from poplar.lexer import LexError, tokenize

import reference_lexer
from conftest import CORPUS

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
    try:
        return [(t.kind, t.text, t.pos) for t in lex(text)]
    except LexError as e:
        return ("LexError", e.message, e.pos)


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
    assert [t.text for t in tokenize("a" + words)] == ["a" + words, ""]


def test_superscript_two_continues_an_int_and_an_identifier():
    assert [(t.kind, t.text) for t in tokenize("1² x²")][:2] == \
        [("int", "1²"), ("ident", "x²")]


def test_trailing_line_comment_leaves_the_end_at_its_column():
    end = tokenize("a // tail")[-1]
    assert (end.kind, end.pos.line, end.pos.col) == ("eof", 1, 3)
    assert_same("a // tail")


def test_backslash_newline_in_a_string_is_unterminated():
    text = 'class C {\n  String s = "a\\\nb";\n}\n'
    for lex in (tokenize, reference_lexer.tokenize):
        with pytest.raises(LexError) as e:
            lex(text)
        assert (e.value.message, e.value.pos.line, e.value.pos.col) == \
            ("unterminated string literal", 2, 14)
