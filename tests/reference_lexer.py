"""The character-at-a-time tokenizer that `poplar.lexer.tokenize` replaced,
kept as the reference for the equivalence tests. It builds the same
`(kind, text, line, col)` tuples and LexError values, and must not be used
outside the tests."""

from poplar.lexer import KEYWORDS, PUNCT, LexError, Token
from poplar.model import Pos


def token(kind: str, text: str, pos: Pos) -> Token:
    return (kind, text, pos.line, pos.col)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def pos() -> Pos:
        return Pos(line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            start = pos()
            i += 2
            col += 2
            while i < n and not text.startswith("*/", i):
                if text[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if i >= n:
                raise LexError("unterminated block comment", start)
            i += 2
            col += 2
            continue
        if c == '"':
            start = pos()
            i += 1
            col += 1
            out = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise LexError("unterminated string literal", start)
                if text[i] == "\\" and i + 1 < n:
                    esc = text[i + 1]
                    if esc == "\n":
                        raise LexError("unterminated string literal", start)
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    i += 2
                    col += 2
                    continue
                out.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise LexError("unterminated string literal", start)
            i += 1
            col += 1
            tokens.append(token("string", "".join(out), start))
            continue
        if c.isdigit():
            start = pos()
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(token("int", text[i:j], start))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            start = pos()
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            # Array suffix makes an opaque type name ("byte[]").
            if text.startswith("[]", i):
                word += "[]"
                i += 2
                col += 2
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(token(kind, word, start))
            continue
        matched = None
        for p in PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched is None:
            raise LexError(f"unexpected character {c!r}", pos())
        tokens.append(token(matched, matched, pos()))
        i += len(matched)
        col += len(matched)
    tokens.append(token("eof", "", pos()))
    return tokens
