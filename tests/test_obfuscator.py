"""Obfuscation padding: insertion shape, line growth, and neutrality."""
import pytest

from lintscore.metrics import compare
from lintscore.microlang import ForLoop, Program, line_count, parse, print_program
from lintscore.obfuscate import (
    LEVELS,
    Divergence,
    added_lines,
    obfuscate,
    snippet_program,
    verify_neutral,
)
from lintscore.obfuscate.snippets import SNIPPETS

SIMPLE = "for(Unit u){\n    u.attack(Closest)\n}"


class TestSnippets:
    def test_levels_enumerated(self):
        assert LEVELS == (1, 2)
        assert set(SNIPPETS) == {1, 2}

    def test_snippet_programs_round_trip(self):
        for level in LEVELS:
            block = snippet_program(level)
            assert parse(print_program(block)) == block

    def test_head_and_tail_shapes(self):
        for level in LEVELS:
            head, tail = SNIPPETS[level]
            assert head and tail
            assert len(tail) == 1
            assert isinstance(tail[0], ForLoop)


class TestObfuscate:
    def test_head_merges_into_first_loop(self):
        program = parse(SIMPLE)
        head, tail = SNIPPETS[1]
        padded = obfuscate(program, 1)
        assert len(padded.body) == len(program.body) + 1
        first = padded.body[0]
        assert isinstance(first, ForLoop)
        assert first.body == head + program.body[0].body
        assert padded.body[-1] == tail[0]

    def test_head_targets_first_loop_not_first_statement(self):
        source = (
            "if(u.canAttack()) then {\n"
            "    u.attack(Closest)\n"
            "}\n"
            "for(Unit u){\n"
            "    u.harvest(5)\n"
            "}"
        )
        program = parse(source)
        head, _ = SNIPPETS[2]
        padded = obfuscate(program, 2)
        assert padded.body[0] == program.body[0]
        assert isinstance(padded.body[1], ForLoop)
        assert padded.body[1].body[: len(head)] == head

    def test_empty_program_gets_fresh_loop(self, empty_program):
        head, tail = SNIPPETS[1]
        padded = obfuscate(empty_program, 1)
        assert padded.body == (ForLoop(head), tail[0])

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            obfuscate(parse(SIMPLE), 3)

    def test_deterministic(self, tiered):
        assert obfuscate(tiered, 1) == obfuscate(tiered, 1)
        assert print_program(obfuscate(tiered, 2)) == print_program(
            obfuscate(tiered, 2)
        )

    def test_result_round_trips_through_text(self, tiered, pool16):
        programs = [tiered] + [program for _, program in pool16[:3]]
        for program in programs:
            for level in LEVELS:
                padded = obfuscate(program, level)
                assert parse(print_program(padded)) == padded

    def test_padding_carries_marker_line(self, tiered):
        for level in LEVELS:
            assert "u.harvest(50)" in print_program(obfuscate(tiered, level))


class TestAddedLines:
    def test_exact_growth_with_existing_loop(self, tiered):
        assert added_lines(tiered, 1) == 11
        assert added_lines(tiered, 2) == 23

    def test_exact_growth_without_loop(self, empty_program):
        assert added_lines(empty_program, 1) == 12
        assert added_lines(empty_program, 2) == 24

    def test_growth_over_pool(self, pool16):
        for _, program in pool16:
            has_loop = any(isinstance(s, ForLoop) for s in program.body)
            expected_one = 11 if has_loop else 12
            assert added_lines(program, 1) == expected_one
            assert added_lines(program, 2) == expected_one + 12

    def test_matches_line_count_delta(self, tiered):
        before = line_count(print_program(tiered))
        after = line_count(print_program(obfuscate(tiered, 1)))
        assert added_lines(tiered, 1) == after - before


class TestNeutrality:
    def test_identity_is_neutral(self, tiered, oset8):
        report = verify_neutral(tiered, tiered, oset8)
        assert report.equal
        assert report.divergences == []

    def test_padding_is_neutral_on_fixtures(self, tiered, pool8, oset8):
        programs = [tiered] + [program for _, program in pool8[:2]]
        for program in programs:
            for level in LEVELS:
                report = verify_neutral(program, obfuscate(program, level), oset8)
                assert report.equal, report.divergences

    def test_padded_policy_compares_identical(self, tiered, oset8):
        report = compare([(tiered, obfuscate(tiered, 2))], oset8)[0]
        assert (report.action, report.outcome, report.feature) == (1.0, 1.0, 0.0)

    def test_real_divergence_reported_per_opponent(
        self, tiered, empty_program, oset8
    ):
        report = verify_neutral(tiered, empty_program, oset8)
        assert not report.equal
        assert len(report.divergences) == len(oset8)
        for divergence in report.divergences:
            assert divergence.kind == "actions"
            assert divergence.decision_index == 0
            assert "units" in divergence.detail

    def test_divergence_record_fields(self):
        divergence = Divergence("opp1", "outcome", detail="1 vs 0")
        assert divergence.opponent == "opp1"
        assert divergence.decision_index is None
        assert divergence.detail == "1 vs 0"
