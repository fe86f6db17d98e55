"""Parser, canonical printer, and AST serialization."""

import random

import pytest

import tokenizer_oracle
from lintscore.microlang import (
    ArityError,
    BoolCall,
    Command,
    Empty,
    ForLoop,
    If,
    ParseError,
    Program,
    UnknownIdentifier,
    parse,
    print_program,
    random_program,
    to_dict,
    walk,
)
from lintscore.microlang.parser import _tokenize
from lintscore.obfuscate import LEVELS, obfuscate
from lintscore.resources import data_path


def roundtrip(source):
    return print_program(parse(source))


class TestParse:
    def test_empty_source_is_empty_program(self):
        assert parse("") == Program(())
        assert parse("   \n\t\n") == Program(())

    def test_single_command(self):
        program = parse("u.idle()")
        assert program == Program((Command("idle", ()),))

    def test_command_arguments_are_typed(self):
        program = parse("u.train(Worker,Up,2)")
        command = program.body[0]
        assert command.args == ("Worker", "Up", 2)
        assert isinstance(command.args[2], int)

    def test_for_loop(self):
        program = parse("for(Unit u){ u.idle() }")
        assert program == Program((ForLoop((Command("idle", ()),)),))

    def test_lowercase_unit_keyword_accepted(self):
        assert parse("for(unit u){}") == parse("for(Unit u){}")

    def test_if_with_then_and_else(self):
        program = parse(
            "if(u.canAttack()) then { u.attack(Closest) } else { u.idle() }"
        )
        node = program.body[0]
        assert node == If(
            BoolCall("canAttack", ()),
            (Command("attack", ("Closest",)),),
            (Command("idle", ()),),
        )

    def test_then_keyword_optional(self):
        with_then = parse("if(u.canAttack()) then { u.idle() }")
        without = parse("if(u.canAttack()) { u.idle() }")
        assert with_then == without

    def test_empty_statement(self):
        assert parse("e") == Program((Empty(),))

    def test_trailing_semicolon_accepted(self):
        assert parse("u.idle();") == parse("u.idle()")

    def test_line_comments_ignored(self):
        source = "// strategy\nu.idle() // hold\n// end"
        assert parse(source) == Program((Command("idle", ()),))

    def test_whitespace_insensitive(self):
        compact = "for(Unit u){u.train(Worker,Up,2)u.idle()}"
        spaced = "for( Unit u ) {\n  u.train( Worker , Up , 2 )\n  u.idle()\n}"
        assert parse(compact) == parse(spaced)

    def test_nested_loops(self):
        program = parse("for(Unit u){ for(Unit u){ u.idle() } }")
        assert program == Program((ForLoop((ForLoop((Command("idle", ()),)),)),))

    def test_attack_if_in_range_alias(self):
        program = parse("u.attack_if_in_range()")
        assert program.body[0] == Command("attack_if_in_range", ())

    def test_parses_share_name_strings(self):
        """Two parses of one source hold one string object per name."""

        def names(program):
            for node in walk(program):
                calls = [node] if isinstance(node, Command) else []
                if isinstance(node, If):
                    calls.append(node.cond)
                for call in calls:
                    yield call.name
                    yield from (arg for arg in call.args if isinstance(arg, str))

        path = data_path("policies", "examples", "tiered_rush.mrl")
        # two reads, so the sources share no string
        first, second = (parse(path.read_text(encoding="utf-8")) for _ in range(2))
        pairs = list(zip(names(first), names(second), strict=True))
        assert len(pairs) > 10
        assert all(a is b for a, b in pairs)
        # and one object per distinct name within a parse
        distinct = {}
        assert all(distinct.setdefault(a, a) is a for a, _ in pairs)


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "for(Unit u){",  # unterminated block
            "u.idle(",  # unterminated arguments
            "for(Unit v){}",  # wrong loop variable
            "for(Worker u){}",  # wrong keyword
            "if(u.canAttack())",  # missing block
            "banana",  # not a statement
            "u.idle() }",  # stray brace
            "u.@",  # bad character
        ],
    )
    def test_malformed_source(self, source):
        with pytest.raises(ParseError):
            parse(source)

    def test_unknown_command(self):
        with pytest.raises(UnknownIdentifier):
            parse("u.dance()")

    def test_unknown_boolean_function(self):
        with pytest.raises(UnknownIdentifier):
            parse("if(u.isHappy()) then {}")

    def test_unknown_unit_type(self):
        with pytest.raises(UnknownIdentifier):
            parse("u.train(Dragon,Up,2)")

    def test_number_outside_vocabulary(self):
        with pytest.raises(UnknownIdentifier):
            parse("u.harvest(13)")

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            parse("u.train(Worker,Up)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("u.idle()\nu.dance()")
        assert excinfo.value.line == 2
        assert "line 2" in str(excinfo.value)

    def test_error_subclasses(self):
        assert issubclass(UnknownIdentifier, ParseError)
        assert issubclass(ArityError, ParseError)

    @pytest.mark.parametrize(
        "source, col",
        [
            ("for(Unit u){ u.harvest(²) }", 24),  # str.isdigit, not a decimal
            ("u.harvest(1²)", 12),
            ("u.harvest(½)", 11),
        ],
    )
    def test_non_decimal_digit_is_a_parse_error(self, source, col):
        with pytest.raises(ParseError) as excinfo:
            parse(source)
        error = excinfo.value
        assert (error.message, error.line, error.col) == (
            f"unexpected character {source[col - 1]!r}",
            1,
            col,
        )

    def test_other_decimal_digits_are_numbers(self):
        # "٣" is a decimal digit (ARABIC-INDIC THREE), as int() reads it
        assert parse("u.harvest(٣)") == parse("u.harvest(3)")


def _bundled_sources():
    return sorted(
        (str(path.relative_to(data_path("policies"))), path.read_text(encoding="utf-8"))
        for path in data_path("policies").rglob("*.mrl")
    )


# Defects one edit away from valid text: stray and non-ASCII characters,
# digits that are not decimal, a lone slash, comments, other whitespace.
_EDITS = list("(){}.,;/ \t\r\n_0123456789uaZ@#²³½٣éß\u00a0\u2028\f") + [
    "//", "// note", "\n//", "Worker", "for", "if", "else",
]
_MALFORMED = [
    "",
    "//",
    "u.idle() // done",
    "u.idle()\n// done\n",
    "u.idle() /",
    "\r\n\tu.idle()\t\r",
    "u.harvest(007)",
    "u.harvest(12abc)",
    "_x9 é ß",
    "u.idle()\u00a0",
    "for(Unit u){\n    u.harvest(²)\n}",
    "u.harvest(٣٣)",
]


def _tokens_or_error(tokenize, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]
    except ParseError as exc:
        return (exc.message, exc.line, exc.col)


class TestTokenizer:
    """``_tokenize`` against the character-walking tokenizer it replaced:
    equal tokens, or an equal ``ParseError`` message, line and column.  The
    one difference: where the old one made a number token that ``int``
    cannot read (a non-decimal digit such as ``²``), the new one raises
    ``unexpected character`` at that digit."""

    def _check(self, source):
        """Compare on ``source``; true where the difference above applies."""
        expected = _tokens_or_error(tokenizer_oracle.tokenize, source)
        if isinstance(expected, tuple):
            # the old tokens up to the character it rejected
            _, line, col = expected
            head = sum(len(text) + 1 for text in source.split("\n")[: line - 1])
            tokens = _tokens_or_error(
                tokenizer_oracle.tokenize, source[: head + col - 1]
            )
        else:
            tokens = expected
        bad = next(
            (
                (f"unexpected character {char!r}", line, col + offset)
                for kind, text, line, col in tokens
                if kind == "number"
                for offset, char in enumerate(text)
                if not char.isdecimal()
            ),
            None,
        )
        assert _tokens_or_error(_tokenize, source) == (bad or expected), source
        return bad is not None

    def test_bundled_policies(self):
        sources = _bundled_sources()
        assert len(sources) == 41
        for _, source in sources:
            self._check(source)

    def test_obfuscated_pool(self, pool16):
        for _, program in pool16:
            for level in LEVELS:
                self._check(print_program(obfuscate(program, level)))

    @pytest.mark.parametrize("source", _MALFORMED)
    def test_malformed(self, source):
        self._check(source)

    def test_one_edit_from_bundled_policies(self):
        rng = random.Random(21)
        sources = [source for _, source in _bundled_sources()]
        non_decimal = 0
        for _ in range(2000):
            source = rng.choice(sources)
            at = rng.randrange(len(source) + 1)
            cut = rng.choice((0, 0, 1, 2))
            source = source[:at] + rng.choice(_EDITS) + source[at + cut:]
            non_decimal += self._check(source)
        assert non_decimal


class TestPrinter:
    def test_empty_program_prints_empty(self):
        assert print_program(Program(())) == ""

    def test_canonical_loop_form(self):
        assert roundtrip("for ( Unit u ) { u.idle ( ) ; }") == (
            "for(Unit u){\n    u.idle()\n}"
        )

    def test_then_always_emitted(self):
        printed = roundtrip("if(u.canAttack()) { u.idle() }")
        assert printed == "if(u.canAttack()) then {\n    u.idle()\n}"

    def test_else_shares_line_with_closing_brace(self):
        printed = roundtrip(
            "if(u.canAttack()) then { u.idle() } else { e }"
        )
        assert printed == (
            "if(u.canAttack()) then {\n    u.idle()\n} else {\n    e\n}"
        )

    def test_four_space_indent_per_level(self):
        printed = roundtrip("for(Unit u){for(Unit u){u.idle()}}")
        assert "\n        u.idle()" in printed

    def test_no_spaces_in_argument_lists(self):
        assert roundtrip("u.train( Worker , Up , 2 )") == "u.train(Worker,Up,2)"

    def test_no_trailing_newline(self):
        assert not roundtrip("u.idle()").endswith("\n")

    def test_idempotent(self):
        source = "for(Unit u){ if(u.canHarvest()) { u.harvest(25) } e }"
        once = roundtrip(source)
        assert roundtrip(once) == once


class TestRoundTrip:
    def test_random_programs_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            program = random_program(rng)
            assert parse(print_program(program)) == program

    def test_fixture_pools_round_trip(self, pool16, pool8, tiered):
        for _, program in pool16 + pool8 + [("tiered", tiered)]:
            assert parse(print_program(program)) == program


class TestWalkAndToDict:
    def test_walk_yields_all_statements(self):
        program = parse(
            "for(Unit u){ if(u.canAttack()) then { u.idle() } else { e } }"
        )
        kinds = [type(node).__name__ for node in walk(program)]
        assert kinds == ["ForLoop", "If", "Command", "Empty"]

    def test_to_dict_shapes(self):
        program = parse("if(u.is_Type(Worker)) then { u.harvest(25) }")
        data = to_dict(program)
        assert data == {
            "type": "Program",
            "body": [
                {
                    "type": "If",
                    "cond": {
                        "type": "BoolCall",
                        "name": "is_Type",
                        "args": ["Worker"],
                    },
                    "then": [
                        {
                            "type": "Command",
                            "name": "harvest",
                            "args": [25],
                        }
                    ],
                    "orelse": None,
                }
            ],
        }
