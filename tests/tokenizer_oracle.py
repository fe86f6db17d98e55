"""The parser's first tokenizer, kept as the reference for the current one.

It walks the source one character at a time.  It differs from
``lintscore.microlang.parser._tokenize`` only where it fails badly: a digit
that is not a decimal digit (``²``) starts a number that ``int`` cannot
read, so parsing it raised ``ValueError`` rather than ``ParseError``.
"""
from __future__ import annotations

from dataclasses import dataclass

from lintscore.microlang import ParseError


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "number", or the punctuation character itself
    text: str
    line: int
    col: int


_PUNCT = set("(){}.,;")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
        elif ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token("number", source[start:i], line, col))
            col += i - start
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("name", source[start:i], line, col))
            col += i - start
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
