"""Tokenizer for .pop source files.

One compiled pattern, scanned over the whole file by a single `findall`,
splits the text into matches of three groups: the whitespace and comments
in front of a token (so a doc comment costs no match of its own), the token,
and any other text. Each match starts where the last one ended, so one loop
keeps the offset, the line and the column from the lengths of the matches
and the newlines of each skipped stretch. A token is a plain tuple
`(kind, text, line, col)`: a file has thousands, and the parser reads them
by index. The ASCII cases have their own alternatives; any other text falls
to `_irregular`, which applies the character-class rules with
`str.isdigit`/`isalpha` exactly.
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

# (kind, text, line, col); kind is "ident", "keyword", "int", "string",
# "eof" or the punctuation itself.
Token = tuple[str, str, int, int]

# The kind of each token whose text decides it.
_KINDS = {**{p: p for p in PUNCT}, **{k: "keyword" for k in KEYWORDS}}
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Whitespace, block comments and the line comments that a newline ends. A
# line comment at the end of the text is left to `_END`, so that the `eof`
# keeps the column where it starts.
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*(?=\n)|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
# `\w` is exactly `str.isalnum()` plus `_`, as identifiers continue. An
# array suffix makes an opaque type name ("byte[]"). A string ends on its
# line: not even a backslash carries it over a newline.
_TOKEN_TEXT = "|".join((
    r"[A-Za-z_]\w*(?:\[\])?",
    "|".join(re.escape(p) for p in PUNCT),
    r"[0-9]+(?!\w)",
    r'"(?:[^"\\\n]|\\.)*"',
))
_END = r"(?://[^\n]*)?\Z"
# Anything else, for `_irregular`: a run of word characters that no token
# alternative took (it starts outside ASCII, or is a digit run that a word
# goes on from), an unterminated string or block comment, or one character.
# The first three take their whole run, so that the scan, which goes on right
# after this group, never fails the same long alternative again one character
# later, and a run of non-ASCII letters is one match: the lexer stays linear
# in its input.
_OTHER = "|".join((r"\w+", r'"(?:[^"\\\n]|\\.)*', r"/\*[\s\S]*", r"[\s\S]"))
_TOKEN = re.compile(f"({_SKIP})(?:({_TOKEN_TEXT})|{_END}|({_OTHER}))")
_ESCAPE = re.compile(r"\\(.)")
_DECIMALS = re.compile(r"\d*")


class LexError(Exception):
    def __init__(self, message: str, pos: Pos):
        super().__init__(message)
        self.message = message
        self.pos = pos


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS.get
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    i = 0
    matches = iter(_TOKEN.findall(text))
    for skip, token, other in matches:
        if skip:
            if "\n" in skip:
                line += skip.count("\n")
                line_start = i + skip.rindex("\n") + 1
            i += len(skip)
        if token:
            col = i - line_start + 1
            i += len(token)
            kind = kinds(token)
            if kind is None:
                c = token[0]  # '"' sorts before the digits, and they before a word's start
                if c > "9":
                    kind = "ident"
                elif c != '"':
                    kind = "int"
                else:
                    kind, token = "string", _string_value(token)
            append((kind, token, line, col))
        elif other:
            # A run of word characters holds one token, or two: an int and
            # the word that goes on from it.
            stop = i + len(other)
            while i < stop:
                tok, i = _irregular(text, i, stop, line, i - line_start + 1)
                append(tok)
            # The scan went on right after `other`. Skip the matches of an
            # array type name's "[]".
            while stop < i:
                _, token, other = next(matches)
                stop += len(token) + len(other)
        else:  # the end of the text
            break
    append(("eof", "", line, i - line_start + 1))
    return tokens


def _string_value(token: str) -> str:
    body = token[1:-1]
    if "\\" in body:
        body = _ESCAPE.sub(lambda e: _ESCAPES.get(e.group(1), e.group(1)), body)
    return body


def _irregular(text: str, i: int, stop: int, line: int, col: int) -> tuple[Token, int]:
    """The token at `i`, where the pattern's `other` group ends at `stop`,
    and its end."""
    c = text[i]
    if c.isdigit():
        j = stop
        if not text[i:stop].isdigit():  # a word goes on from the digits
            j = _DECIMALS.match(text, i).end()  # `\d` is not every digit: `²`
            while text[j].isdigit():
                j += 1
        return ("int", text[i:j], line, col), j
    if c.isalpha() or c == "_":  # `\w` is exactly how a word goes on
        j = stop + 2 if text.startswith("[]", stop) else stop
        word = text[i:j]
        return ("keyword" if word in KEYWORDS else "ident", word, line, col), j
    pos = Pos(line, col)
    if c == '"':
        raise LexError("unterminated string literal", pos)
    if text.startswith("/*", i):
        raise LexError("unterminated block comment", pos)
    raise LexError(f"unexpected character {c!r}", pos)
