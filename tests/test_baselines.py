"""Baseline selection: spread sampling, random draws, nearest neighbors."""
import random

import pytest

from lintscore.metrics import (
    closest_feature,
    closest_syntax,
    mean_feature_vector,
    rand_index,
    select_policy_indices,
)
from lintscore.microlang import parse, print_program, syntax_set


def nearest_syntax(target: str, pool: list[str]) -> int:
    return closest_syntax(syntax_set(target), [syntax_set(s) for s in pool])


def nearest_feature(target, pool, oset) -> int:
    return closest_feature(
        mean_feature_vector(target, oset),
        [mean_feature_vector(p, oset) for p in pool],
    )


class TestSelectPolicyIndices:
    def test_thousand_pool_twenty_picks(self):
        indices = select_policy_indices(1000, 20)
        assert len(indices) == 20
        assert indices[0] == 0
        assert indices[-1] == 999
        assert indices[7] == 368

    def test_identity_when_count_equals_pool(self):
        assert select_policy_indices(20, 20) == list(range(20))

    def test_single_pick_is_first(self):
        assert select_policy_indices(1000, 1) == [0]

    def test_non_decreasing_and_in_range(self):
        indices = select_policy_indices(37, 9)
        assert indices == sorted(indices)
        assert all(0 <= i < 37 for i in indices)
        assert indices[0] == 0 and indices[-1] == 36

    def test_rejects_non_positive_arguments(self):
        with pytest.raises(ValueError):
            select_policy_indices(0, 5)
        with pytest.raises(ValueError):
            select_policy_indices(5, 0)


class TestRandIndex:
    def test_never_returns_excluded(self):
        rng = random.Random(0)
        for _ in range(200):
            assert rand_index(rng, 5, exclude=3) != 3

    def test_covers_remaining_indices(self):
        rng = random.Random(1)
        seen = {rand_index(rng, 4, exclude=0) for _ in range(100)}
        assert seen == {1, 2, 3}

    def test_without_exclusion_covers_all(self):
        rng = random.Random(2)
        seen = {rand_index(rng, 3) for _ in range(100)}
        assert seen == {0, 1, 2}

    def test_seed_deterministic(self):
        draws_a = [rand_index(random.Random(7), 10) for _ in range(5)]
        draws_b = [rand_index(random.Random(7), 10) for _ in range(5)]
        assert draws_a == draws_b


class TestClosestSyntax:
    def test_matches_manual_argmax(self, pool8):
        sources = [print_program(program) for _, program in pool8]
        for source in sources:
            target = syntax_set(source)
            overlaps = [len(target & syntax_set(s)) for s in sources]
            assert nearest_syntax(source, sources) == overlaps.index(
                max(overlaps)
            )

    def test_unique_copy_wins(self, pool8):
        # A target with a line no other pool program has must select its
        # own copy.
        sources = [print_program(program) for _, program in pool8]
        for index, source in enumerate(sources):
            others = set().union(
                *(syntax_set(s) for i, s in enumerate(sources) if i != index)
            )
            if syntax_set(source) - others:
                assert nearest_syntax(source, sources) == index

    def test_modified_copy_still_closest(self):
        target = "for(Unit u){\n    u.train(Light,Up,4)\n    u.attack(Closest)\n}"
        near = "for(Unit u){\n    u.train(Light,Up,4)\n    u.attack(Weakest)\n}"
        far = "for(Unit u){\n    u.harvest(10)\n}"
        assert nearest_syntax(target, [far, near]) == 1

    def test_tie_goes_to_lowest_index(self):
        target = "for(Unit u){\n    u.idle()\n}"
        pool = ["for(Unit u){\n    u.idle()\n}", "for(Unit u){\n    u.idle()\n}"]
        assert nearest_syntax(target, pool) == 0

    def test_indent_and_semicolon_noise_ignored(self):
        # Normalized-line overlap sees through formatting differences.
        target = "for(Unit u){\n  u.attack(Closest);\n}"
        pool = [
            "for(Unit u){\n    u.harvest(10)\n}",
            "for(Unit u){\n    u.attack(Closest)\n}",
        ]
        assert nearest_syntax(target, pool) == 1


class TestClosestFeature:
    def test_pool_clone_is_nearest(self, tiered, pool8, oset8):
        programs = [program for _, program in pool8]
        clone_pool = programs + [tiered]
        assert nearest_feature(tiered, clone_pool, oset8) == len(clone_pool) - 1

    def test_tie_goes_to_lowest_index(self, oset8):
        # Two textual variants of one behavior are equidistant from any
        # target; the first must win.
        variant_a = parse("for(Unit u){ u.attack(Closest) }")
        variant_b = parse("for(Unit u){ u.attack(Closest); }")
        target = parse("for(Unit u){ u.harvest(10) }")
        assert nearest_feature(target, [variant_a, variant_b], oset8) == 0

    def test_matches_manual_argmin(self, pool8, oset8):
        import math

        programs = [program for _, program in pool8]
        target = programs[3]
        anchor = mean_feature_vector(target, oset8)
        dists = [
            math.dist(anchor, mean_feature_vector(p, oset8)) for p in programs
        ]
        expected = dists.index(min(dists))
        assert nearest_feature(target, programs, oset8) == expected
