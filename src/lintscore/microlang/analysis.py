"""Source-level program measures."""
from __future__ import annotations

import re

_PUNCT_SPACING = re.compile(r"\s*([(),.;])\s*")
_WS_RUN = re.compile(r"\s+")


def normalize_line(line: str) -> str:
    """Normalize one source line for set membership and line counting.

    Brace characters are dropped, whitespace runs collapse, spaces around
    punctuation are removed, and trailing semicolons are stripped, so that
    ``u.train(Worker, Up, 2);`` and ``u.train(Worker,Up,2)`` compare equal
    and a ``} else {`` line reduces to ``else``.
    """
    text = line.replace("{", " ").replace("}", " ")
    text = _WS_RUN.sub(" ", text).strip()
    text = _PUNCT_SPACING.sub(r"\1", text)
    text = text.rstrip(";").strip()
    return text


def normalized_lines(source: str) -> list[str]:
    """Normalized, non-empty lines of program text, duplicates preserved."""
    lines = (normalize_line(line) for line in source.splitlines())
    return [line for line in lines if line]


def line_count(source: str) -> int:
    return len(normalized_lines(source))


def syntax_set(source: str) -> frozenset[str]:
    """The set of distinct normalized lines of a program's text."""
    return frozenset(normalized_lines(source))
