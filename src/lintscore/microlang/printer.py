"""Canonical pretty-printer for microlanguage programs.

The canonical form uses braces, four-space indentation, ``then`` after every
guard, no spaces inside argument lists, and no trailing semicolons:

    for(Unit u){
        u.idle()
    }

An empty program prints as the empty string, and there is no trailing newline.
"""
from __future__ import annotations

from .ast import Command, Empty, ForLoop, If, Program, Statement

_INDENT = "    "


def _call_text(name: str, args: tuple[str | int, ...]) -> str:
    return f"u.{name}({','.join(str(a) for a in args)})"


def _emit(stmt: Statement, depth: int, out: list[str]) -> None:
    pad = _INDENT * depth
    if isinstance(stmt, Command):
        out.append(pad + _call_text(stmt.name, stmt.args))
    elif isinstance(stmt, Empty):
        out.append(pad + "e")
    elif isinstance(stmt, ForLoop):
        out.append(pad + "for(Unit u){")
        for inner in stmt.body:
            _emit(inner, depth + 1, out)
        out.append(pad + "}")
    elif isinstance(stmt, If):
        out.append(pad + f"if({_call_text(stmt.cond.name, stmt.cond.args)}) then {{")
        for inner in stmt.then:
            _emit(inner, depth + 1, out)
        if stmt.orelse is None:
            out.append(pad + "}")
        else:
            out.append(pad + "} else {")
            for inner in stmt.orelse:
                _emit(inner, depth + 1, out)
            out.append(pad + "}")
    else:
        raise TypeError(f"not a statement: {stmt!r}")


def print_program(program: Program) -> str:
    out: list[str] = []
    for stmt in program.body:
        _emit(stmt, 0, out)
    return "\n".join(out)
