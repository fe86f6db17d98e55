"""Prompt bundles: template loading, literal rendering, tag extraction."""
import pytest

from lintscore.pipeline import extract_tag, load_bundle, load_map_description

PROGRAM = "for(Unit u){\n    u.train(Worker,Up,2)\n    u.attack(Closest)\n}"


class TestLoadBundle:
    def test_default_track_is_microrts(self, bundle):
        assert load_bundle() == bundle == load_bundle("microrts")

    def test_unknown_track_rejected(self):
        for track in ("java", "c-problems"):
            with pytest.raises(ValueError, match="unknown track"):
                load_bundle(track)

    def test_microrts_bundle_complete(self, bundle):
        assert bundle.dsl_description
        assert "{PROGRAM}" in bundle.explainer_template
        assert "{EXPLANATION}" in bundle.reconstructor_template
        assert "{PROGRAM}" in bundle.verifier_template
        assert "{EXPLANATION}" in bundle.verifier_template
        assert "{MAP_DESCRIPTION}" in bundle.kshot_template


class TestRendering:
    def test_explainer_substitutes_program_and_dsl(self, bundle):
        rendered = bundle.render_explainer(PROGRAM)
        assert PROGRAM in rendered
        assert bundle.dsl_description in rendered
        assert "{PROGRAM}" not in rendered
        assert "{DSL_DESCRIPTION}" not in rendered

    def test_braces_in_program_survive(self, bundle):
        # Literal substitution must not treat the program's braces as
        # format fields.
        tricky = "for(Unit u){\n    u.idle()\n}"
        rendered = bundle.render_explainer(tricky)
        assert tricky in rendered

    def test_explainer_constraint_sentences(self, bundle):
        rendered = bundle.render_explainer(PROGRAM)
        assert "You must not use programming language jargon" in rendered
        assert "DON'T USE any quotation marks in writing the explanation." in rendered
        assert (
            "Write the explanation inside '<explanation></explanation>' tag."
            in rendered
        )

    def test_reconstructor_substitutes_explanation(self, bundle):
        explanation = "Gather food first, then send the big fighters."
        rendered = bundle.render_reconstructor(explanation)
        assert explanation in rendered
        assert "{EXPLANATION}" not in rendered
        assert "'<strategy></strategy>' tag" in rendered

    def test_verifier_substitutes_both(self, bundle):
        rendered = bundle.render_verifier(PROGRAM, "Some explanation.")
        assert PROGRAM in rendered
        assert "Some explanation." in rendered
        assert "Answer with yes or no first" in rendered

    def test_kshot_substitutes_map_description(self, bundle):
        rendered = bundle.render_kshot("A tiny map.")
        assert "A tiny map." in rendered
        assert "{MAP_DESCRIPTION}" not in rendered
        assert bundle.dsl_description in rendered

    def test_dsl_preamble_describes_language(self, bundle):
        assert "MicroRTS" in bundle.dsl_description
        assert "Worker" in bundle.dsl_description


class TestMapDescriptions:
    def test_bundled_map_descriptions_load(self):
        for name in ("BaseWorkers-16x16A", "BaseWorkers-8x8"):
            text = load_map_description(name)
            assert text.strip()

    def test_sixteen_description_mentions_grid(self):
        assert "16 by 16" in load_map_description("BaseWorkers-16x16A")

    def test_missing_map_raises(self):
        with pytest.raises(FileNotFoundError):
            load_map_description("no-such-map")


class TestExtractTag:
    def test_simple_extraction(self):
        assert extract_tag("<explanation>hi there</explanation>", "explanation") == (
            "hi there"
        )

    def test_multiline_body(self):
        text = "preamble\n<strategy>\nfor(Unit u){\n    u.idle()\n}\n</strategy>\n"
        assert extract_tag(text, "strategy") == "for(Unit u){\n    u.idle()\n}"

    def test_first_match_wins(self):
        text = "<x>one</x> <x>two</x>"
        assert extract_tag(text, "x") == "one"

    def test_missing_tag_is_none(self):
        assert extract_tag("no tags here", "explanation") is None

    def test_unclosed_tag_is_none(self):
        assert extract_tag("<strategy>half open", "strategy") is None

    def test_body_is_stripped(self):
        assert extract_tag("<t>  padded  </t>", "t") == "padded"
