"""Reference-point policy selection: random draws, nearest neighbors, and
evenly spread pool sampling."""
from __future__ import annotations

import math
import random


def select_policy_indices(pool_size: int, count: int) -> list[int]:
    """``count`` indices evenly spread over ``range(pool_size)``, endpoints
    included."""
    if count < 1 or pool_size < 1:
        raise ValueError("pool_size and count must be positive")
    if count == 1:
        return [0]
    return [i * (pool_size - 1) // (count - 1) for i in range(count)]


def rand_index(rng: random.Random, pool_size: int, exclude: int | None = None) -> int:
    """A random pool index, optionally excluding the policy's own slot."""
    choices = [i for i in range(pool_size) if i != exclude]
    return rng.choice(choices)


def closest_syntax(target: frozenset[str], pool: list[frozenset[str]]) -> int:
    """Index of the pool syntax set (:func:`~lintscore.microlang.syntax_set`)
    sharing the most distinct normalized lines with the target's; ties go to
    the lowest index."""
    best, best_overlap = 0, -1
    for index, lines in enumerate(pool):
        overlap = len(target & lines)
        if overlap > best_overlap:
            best, best_overlap = index, overlap
    return best


def closest_feature(
    anchor: tuple[float, ...], pool: list[tuple[float, ...]]
) -> int:
    """Index of the pool mean feature vector
    (:func:`~.behavior.mean_feature_vector`) nearest the anchor (Euclidean);
    ties go to the lowest index."""
    best, best_dist = 0, math.inf
    for index, vec in enumerate(pool):
        dist = math.dist(anchor, vec)
        if dist < best_dist:
            best, best_dist = index, dist
    return best
