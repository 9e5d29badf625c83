"""Tokenizer for .pop source files.

One compiled pattern finds each token together with the whitespace and
comments in front of it, so a doc comment costs one match. Line and column
come from newline offsets. A token keeps them as two plain ints, and its
`pos` builds a `Pos` only when read, so a token whose position no node or
diagnostic keeps never builds one. The ASCII cases have their own
alternatives; any other text falls to `_irregular`, which applies the
character-class rules with `str.isdigit`/`isalpha` exactly.
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
    """One token; a file has thousands, so it has slots. It keeps its line
    and column as two ints, and `pos` builds a `Pos` from them on each read:
    the parser reads it only for a position that a node or a diagnostic
    keeps."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str,  # "ident" | "keyword" | "int" | "string" | punctuation | "eof"
                 text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)


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
        start, end = m.span(kind)
        if start != i:
            newlines = count("\n", i, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", i, start) + 1
        i = end
        if kind == "ident":
            word = text[start:end]
            append(Token("keyword" if word in KEYWORDS else "ident", word,
                         line, start - line_start + 1))
        elif kind == "punct":
            p = text[start:end]
            append(Token(p, p, line, start - line_start + 1))
        elif kind == "string":
            body = text[start:end]
            i += 1  # the closing quote
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e.group(1), e.group(1)), body)
            append(Token("string", body, line, start - line_start))
        elif kind == "int":
            append(Token("int", text[start:end], line, start - line_start + 1))
        elif kind == "eof":
            lc = m.start("lc")
            if lc >= 0 and text.find("\n", lc) < 0:
                start = lc  # a trailing line comment leaves the column at its start
            append(Token("eof", "", line, start - line_start + 1))
            return tokens
        else:
            token, i = _irregular(text, start, line, start - line_start + 1)
            append(token)


def _irregular(text: str, i: int, line: int, col: int) -> tuple[Token, int]:
    """The token at `i` that no ASCII alternative matched, and its end."""
    c = text[i]
    if c.isdigit():
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        return Token("int", text[i:j], line, col), j
    if c.isalpha():
        j = i + 1
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        if text.startswith("[]", j):
            j += 2
        word = text[i:j]
        return Token("keyword" if word in KEYWORDS else "ident", word, line, col), j
    pos = Pos(line, col)
    if c == '"':
        raise LexError("unterminated string literal", pos)
    if text.startswith("/*", i):
        raise LexError("unterminated block comment", pos)
    raise LexError(f"unexpected character {c!r}", pos)
