"""Shared fixtures: bundled pools, opponent sets, and reference programs.

Session scope matters here: ``load_opponent_set`` returns a new set with
empty caches on every call, so the session fixtures ``oset8`` and ``oset16``
are the only warm sets.  A test that passes one of them in reuses earlier
simulations of the same policy instead of re-running them; a test that goes
through ``run_experiment`` or the CLI loads a cold set of its own.
"""

import pytest

from lintscore.harness import load_opponent_set, load_program_set
from lintscore.metrics import OpponentSet
from lintscore.microlang import Program, parse
from lintscore.pipeline import load_bundle
from lintscore.resources import data_path


@pytest.fixture(scope="session")
def bundle():
    return load_bundle("microrts")


@pytest.fixture(scope="session")
def oset16():
    return load_opponent_set("standard-16")


@pytest.fixture(scope="session")
def oset8():
    return load_opponent_set("standard-8")


@pytest.fixture(scope="session")
def pool16():
    return load_program_set("pool16")


@pytest.fixture(scope="session")
def pool8():
    return load_program_set("pool8")


@pytest.fixture(scope="session")
def tiered():
    source = data_path("policies", "examples", "tiered_rush.mrl").read_text()
    return parse(source)


@pytest.fixture(scope="session")
def empty_program():
    return Program(())


@pytest.fixture()
def keyed_pairs(monkeypatch):
    """Every (π, other) that ``OpponentSet.pair_key`` keys, in call order."""
    keyed = []
    pair_key = OpponentSet.pair_key

    def recording(self, pi, other, per_unit):
        keyed.append((pi, other))
        return pair_key(self, pi, other, per_unit)

    monkeypatch.setattr(OpponentSet, "pair_key", recording)
    return keyed
