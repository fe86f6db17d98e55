"""Policy microlanguage: AST, parser, canonical printer, and measures."""
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
    to_dict,
    walk,
)
from .analysis import line_count, normalized_lines, syntax_set
from .generate import random_program
from .parser import ArityError, ParseError, UnknownIdentifier, parse
from .printer import print_program

__all__ = [
    "BOOL_FUNCTIONS",
    "COMMANDS",
    "CRITERIA",
    "DIRECTIONS",
    "NUMBERS",
    "PLAYER_TARGETS",
    "UNIT_TYPES",
    "ArityError",
    "BoolCall",
    "Command",
    "Empty",
    "ForLoop",
    "If",
    "ParseError",
    "Program",
    "Statement",
    "UnknownIdentifier",
    "line_count",
    "normalized_lines",
    "parse",
    "print_program",
    "random_program",
    "syntax_set",
    "to_dict",
    "walk",
]
