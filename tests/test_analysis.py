"""Source normalization and line measures."""

from lintscore.microlang import line_count, normalized_lines, syntax_set
from lintscore.microlang.analysis import normalize_line


class TestNormalizeLine:
    def test_strips_braces_and_whitespace(self):
        assert normalize_line("    for(Unit u){") == "for(Unit u)"
        assert normalize_line("}") == ""

    def test_else_brace_line_reduces_to_else(self):
        assert normalize_line("} else {") == "else"

    def test_spacing_and_semicolons_ignored(self):
        assert (
            normalize_line("u.train( Worker , Up , 2 ) ;")
            == normalize_line("u.train(Worker,Up,2)")
            == "u.train(Worker,Up,2)"
        )


class TestLineMeasures:
    def test_normalized_lines_keep_duplicates(self):
        source = "u.idle()\nu.idle()"
        assert normalized_lines(source) == ["u.idle()", "u.idle()"]

    def test_line_count_ignores_bare_braces(self):
        source = "for(Unit u){\n    u.idle()\n}"
        assert line_count(source) == 2

    def test_line_count_empty(self):
        assert line_count("") == 0

    def test_syntax_set_is_a_set(self):
        source = "u.idle()\nu.idle()\nu.harvest(25)"
        assert syntax_set(source) == frozenset({"u.idle()", "u.harvest(25)"})

    def test_syntax_set_invariant_to_formatting(self):
        a = syntax_set("u.train(Worker,Up,2)")
        b = syntax_set("  u.train( Worker ,Up, 2 ) ;")
        assert a == b
