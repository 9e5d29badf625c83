"""Tokenizer for .pop source files.

One compiled pattern finds each token together with the whitespace and
comments in front of it, so a doc comment costs one match. Line and column
come from newline offsets. The ASCII cases have their own alternatives; any
other text falls to `_irregular`, which applies the character-class rules
with `str.isdigit`/`isalpha` exactly.
"""

from __future__ import annotations

import re

from .model import Pos

KEYWORDS = frozenset({
    "class", "interface", "extends", "implements", "labels", "protocols",
    "resources", "managed", "external", "mutates", "new", "this", "result",
    "super", "return", "with", "protect", "any", "static", "final",
    "abstract", "precedence", "null", "true", "false",
    "maintain", "maintainr", "unique", "uniquer",
})

PUNCT = (
    "->", "(", ")", "{", "}", "[", "]", ";", ":", ",", ".", "@", "+", "!",
    "*", "#", "?", "=",
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Whitespace, line comments and block comments; the `lc` group keeps the
# start of the last line comment, which matters only at the end of the text.
_SKIP = r"(?:[ \t\r\n]+|(?P<lc>//)[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
# `\w` is exactly `str.isalnum()` plus `_`, as identifiers continue. An
# array suffix makes an opaque type name ("byte[]"). A string ends on its
# line: not even a backslash carries it over a newline.
_TOKEN = re.compile(_SKIP + "(?:" + "|".join((
    r"(?P<ident>[A-Za-z_]\w*(?:\[\])?)",
    "(?P<punct>" + "|".join(re.escape(p) for p in PUNCT) + ")",
    r"(?P<int>[0-9]+)(?!\w)",
    r'"(?P<string>(?:[^"\\\n]|\\.)*)"',
    r"(?P<eof>\Z)",
    r"(?P<other>)",
)) + ")")
_ESCAPE = re.compile(r"\\(.)")


class LexError(Exception):
    def __init__(self, message: str, pos: Pos):
        super().__init__(message)
        self.message = message
        self.pos = pos


class Token:
    """One token; a file has thousands, so it has slots."""

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str,  # "ident" | "keyword" | "int" | "string" | punctuation | "eof"
                 text: str, pos: Pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    count = text.count
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    i = 0
    while True:
        m = match(text, i)
        kind = m.lastgroup
        start = m.start(kind)
        if start != i:
            newlines = count("\n", i, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", i, start) + 1
        i = m.end()
        if kind == "ident":
            word = m.group(kind)
            append(Token("keyword" if word in KEYWORDS else "ident", word,
                         Pos(line, start - line_start + 1)))
        elif kind == "punct":
            p = m.group(kind)
            append(Token(p, p, Pos(line, start - line_start + 1)))
        elif kind == "string":
            body = m.group(kind)
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e.group(1), e.group(1)), body)
            append(Token("string", body, Pos(line, start - line_start)))
        elif kind == "int":
            append(Token("int", m.group(kind), Pos(line, start - line_start + 1)))
        elif kind == "eof":
            lc = m.start("lc")
            if lc >= 0 and text.find("\n", lc) < 0:
                start = lc  # a trailing line comment leaves the column at its start
            append(Token("eof", "", Pos(line, start - line_start + 1)))
            return tokens
        else:
            token, i = _irregular(text, start, Pos(line, start - line_start + 1))
            append(token)


def _irregular(text: str, i: int, pos: Pos) -> tuple[Token, int]:
    """The token at `i` that no ASCII alternative matched, and its end."""
    c = text[i]
    if c.isdigit():
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        return Token("int", text[i:j], pos), j
    if c.isalpha():
        j = i + 1
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        if text.startswith("[]", j):
            j += 2
        word = text[i:j]
        return Token("keyword" if word in KEYWORDS else "ident", word, pos), j
    if c == '"':
        raise LexError("unterminated string literal", pos)
    if text.startswith("/*", i):
        raise LexError("unterminated block comment", pos)
    raise LexError(f"unexpected character {c!r}", pos)
