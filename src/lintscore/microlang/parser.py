"""Recursive-descent parser for the policy microlanguage.

Accepted surface syntax:

* ``for(Unit u) { ... }`` (``unit`` also accepted for the keyword)
* ``if(<guard>) then { ... }`` with optional ``then`` and optional
  ``else { ... }``
* ``u.<command>(<args>)`` with an optional trailing ``;``
* ``e`` as an explicit empty statement
* ``//`` line comments

The printer in :mod:`lintscore.microlang.printer` emits one canonical form of
this syntax, and ``parse(print_program(p)) == p`` for every valid program.
"""
from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .ast import (
    BOOL_FUNCTIONS,
    COMMANDS,
    CRITERIA,
    DIRECTIONS,
    NUMBERS,
    PLAYER_TARGETS,
    UNIT_TYPES,
    BoolCall,
    Command,
    Empty,
    ForLoop,
    If,
    Program,
    Statement,
)


class ParseError(Exception):
    """Malformed program text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class UnknownIdentifier(ParseError):
    """A name or literal outside the language's terminal vocabularies."""


class ArityError(ParseError):
    """A call with the wrong number of arguments."""


class Token(NamedTuple):
    kind: str  # "name", "number", or the punctuation character itself
    text: str
    line: int
    col: int


# One alternative per lexical class, tried in order; ``other`` takes any
# character no other one does, so the matches tile the source.  ``\d`` is
# exactly ``str.isdecimal``, so every number token is a valid ``int``.
# ``\w`` is ``str.isalnum`` or ``_``: a name must still start with a letter or
# ``_``, which ``[^\W\d]`` alone would not ensure (it admits ``²``).
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)"
    r"|(?P<punct>[(){}.,;])|(?P<number>\d+)|(?P<name>[^\W\d]\w*)|(?P<other>.)"
)


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    intern = sys.intern
    line, start = 1, 0  # start: the index where the current line begins
    match = None
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            start = match.end()
            continue
        if kind == "space" or kind == "comment":
            continue
        col = match.start() - start + 1
        text = match.group()
        if kind == "punct":
            kind = text
        elif kind != "number":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line, col)
            # the trees of every parse share one string per distinct name
            text = intern(text)
        append(Token(kind, text, line, col))
    # the end of input stands after the last character, or at the start of a
    # comment that ends the source
    end = len(source)
    if match is not None and match.lastgroup == "comment":
        end = match.start()
    tokens.append(Token("eof", "", line, end - start + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"{kind!r}"
            got = tok.text or "end of input"
            raise ParseError(f"expected {want}, found {got!r}", tok.line, tok.col)
        return self.advance()

    def expect_name(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text != text:
            got = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, found {got!r}", tok.line, tok.col)
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> Program:
        body = []
        while self.peek().kind != "eof":
            body.append(self.parse_statement())
        return Program(tuple(body))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "for":
            return self.parse_for()
        if tok.kind == "name" and tok.text == "if":
            return self.parse_if()
        if tok.kind == "name" and tok.text == "e":
            self.advance()
            return Empty()
        if tok.kind == "name" and tok.text == "u":
            return self.parse_command()
        got = tok.text or "end of input"
        raise ParseError(f"expected a statement, found {got!r}", tok.line, tok.col)

    def parse_for(self) -> ForLoop:
        self.expect_name("for")
        self.expect("(")
        tok = self.peek()
        if tok.kind != "name" or tok.text not in ("Unit", "unit"):
            raise ParseError(
                f"expected 'Unit', found {tok.text!r}", tok.line, tok.col
            )
        self.advance()
        tok = self.peek()
        if tok.kind != "name" or tok.text != "u":
            raise ParseError(
                f"loop variable must be 'u', found {tok.text!r}", tok.line, tok.col
            )
        self.advance()
        self.expect(")")
        return ForLoop(self.parse_block())

    def parse_if(self) -> If:
        self.expect_name("if")
        self.expect("(")
        cond = self.parse_bool_call()
        self.expect(")")
        tok = self.peek()
        if tok.kind == "name" and tok.text == "then":
            self.advance()
        then = self.parse_block()
        orelse = None
        tok = self.peek()
        if tok.kind == "name" and tok.text == "else":
            self.advance()
            orelse = self.parse_block()
        return If(cond, then, orelse)

    def parse_block(self) -> tuple[Statement, ...]:
        self.expect("{", "'{'")
        body = []
        while self.peek().kind != "}":
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError("unterminated block, expected '}'", tok.line, tok.col)
            body.append(self.parse_statement())
        self.advance()
        return tuple(body)

    def parse_command(self) -> Command:
        self.expect_name("u")
        self.expect(".")
        name_tok = self.expect("name", "a command name")
        name = name_tok.text
        if name not in COMMANDS:
            raise UnknownIdentifier(
                f"unknown command {name!r}", name_tok.line, name_tok.col
            )
        args = self.parse_args(name, COMMANDS[name], name_tok)
        if self.peek().kind == ";":
            self.advance()
        return Command(name, args)

    def parse_bool_call(self) -> BoolCall:
        self.expect_name("u")
        self.expect(".")
        name_tok = self.expect("name", "a boolean function name")
        name = name_tok.text
        if name not in BOOL_FUNCTIONS:
            raise UnknownIdentifier(
                f"unknown boolean function {name!r}", name_tok.line, name_tok.col
            )
        args = self.parse_args(name, BOOL_FUNCTIONS[name], name_tok)
        return BoolCall(name, args)

    def parse_args(
        self, name: str, signature: tuple[str, ...], name_tok: Token
    ) -> tuple[str | int, ...]:
        self.expect("(")
        raw: list[Token] = []
        if self.peek().kind != ")":
            raw.append(self.parse_arg_token())
            while self.peek().kind == ",":
                self.advance()
                raw.append(self.parse_arg_token())
        self.expect(")")
        if len(raw) != len(signature):
            raise ArityError(
                f"{name} takes {len(signature)} argument(s), got {len(raw)}",
                name_tok.line,
                name_tok.col,
            )
        return tuple(
            self.check_arg(name, slot, tok) for slot, tok in zip(signature, raw)
        )

    def parse_arg_token(self) -> Token:
        tok = self.peek()
        if tok.kind not in ("name", "number"):
            got = tok.text or "end of input"
            raise ParseError(f"expected an argument, found {got!r}", tok.line, tok.col)
        return self.advance()

    def check_arg(self, name: str, slot: str, tok: Token) -> str | int:
        if slot == "N":
            if tok.kind != "number":
                raise UnknownIdentifier(
                    f"{name} expects a number, found {tok.text!r}", tok.line, tok.col
                )
            value = int(tok.text)
            if value not in NUMBERS:
                allowed = ", ".join(str(v) for v in NUMBERS)
                raise UnknownIdentifier(
                    f"number {value} not in the allowed set {{{allowed}}}",
                    tok.line,
                    tok.col,
                )
            return value
        domains = {"T": UNIT_TYPES, "D": DIRECTIONS, "O": CRITERIA, "P": PLAYER_TARGETS}
        domain = domains[slot]
        if tok.kind != "name" or tok.text not in domain:
            allowed = ", ".join(domain)
            raise UnknownIdentifier(
                f"{name} expects one of {{{allowed}}}, found {tok.text!r}",
                tok.line,
                tok.col,
            )
        return tok.text


def parse(source: str) -> Program:
    """Parse program text, raising :class:`ParseError` on malformed input."""
    return _Parser(source).parse_program()
