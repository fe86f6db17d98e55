"""What a ``compare`` batch keeps: the records of its πs only.

A program that a batch only compares against a π (a reconstruction, a k-shot
sample) has its records followed and replayed while its opponent's work
lasts; then they are dropped, in the calling process and in every child
shard, whose messages carry only the πs' records.
"""
import weakref

import pytest

from lintscore import harness
from lintscore.harness import ExperimentConfig, load_program_set, run_experiment
from lintscore.metrics import OpponentSet, behavior, opponents
from lintscore.pipeline import LineDropProvider, lint_score
from lintscore.resources import data_path

OPPONENTS = data_path("opponents8.json")


def pretend_cpus(monkeypatch, count):
    monkeypatch.setattr(behavior, "_cpu_count", lambda: count)


def count_matches(monkeypatch, after=None):
    """Count the matches this process plays; ``after(program, record)``
    sees each one."""
    calls = []
    original = opponents.play_match

    def counting(program, *args, **kwargs):
        record = original(program, *args, **kwargs)
        calls.append(1)
        if after is not None:
            after(program, record)
        return record

    monkeypatch.setattr(opponents, "play_match", counting)
    return calls


def line_drop_score(oset, bundle, pool8):
    return lint_score(pool8, oset, bundle, LineDropProvider(q=0.3, seed=4), k=3)


@pytest.mark.parametrize("count", [1, 3])
def test_sample_records_die_with_their_opponent_work(
    monkeypatch, bundle, pool8, count
):
    """At three CPUs this process works opponents 0, 3, 6 and 9, and the
    children the others."""
    pretend_cpus(monkeypatch, count)
    oset = OpponentSet.from_file(OPPONENTS)
    played: list[tuple[str, weakref.ref]] = []
    count_matches(
        monkeypatch,
        lambda program, record: played.append(
            (oset._key_text(program), weakref.ref(record))
        ),
    )
    line_drop_score(oset, bundle, pool8)
    pi_texts = {oset._key_text(program) for _, program in pool8}
    kept = {id(record) for record in oset._cache.values()}
    samples = [ref for text, ref in played if text not in pi_texts]
    # a sample may end up with a π's record, which the π keeps
    assert any(ref() is None for ref in samples)
    assert all(ref() is None or id(ref()) in kept for ref in samples)
    assert {text for text, _ in oset._cache} == pi_texts


def test_closest_feature_plays_no_match(monkeypatch, tmp_path):
    """Closest-Feature's second batch pairs originals, which the first
    batch kept as πs, and obfuscated copies share their originals' keys."""
    pretend_cpus(monkeypatch, 1)
    calls = count_matches(monkeypatch)
    second = []
    select = harness._select_baseline

    def selecting(key, programs, pool_other, oset, seed):
        if key == "closest-feature":
            second.append((oset, len(calls)))
        return select(key, programs, pool_other, oset, seed)

    monkeypatch.setattr(harness, "_select_baseline", selecting)
    run_experiment(
        ExperimentConfig(
            programs="pool8",
            opponents=str(OPPONENTS),
            provider={"kind": "mock", "mock": "line-drop", "q": 0.3, "seed": 4},
            k=2,
            obfuscation_levels=[1, 2],
            baselines=["rand", "closest-feature", "kshot"],
            map_description="BaseWorkers-8x8",
            out=str(tmp_path / "out"),
        )
    )
    [(oset, first_batch)] = second
    assert first_batch > 0
    assert len(calls) == first_batch
    assert {text for text, _ in oset._cache} == {
        oset._key_text(program) for _, program in load_program_set("pool8")
    }


def test_child_messages_carry_only_the_pis_records(monkeypatch, bundle, pool8):
    pretend_cpus(monkeypatch, 2)
    received = []
    unpack = OpponentSet.unpack

    def recording(self, index, packed):
        received.append((index, packed[0]))
        return unpack(self, index, packed)

    monkeypatch.setattr(OpponentSet, "unpack", recording)
    oset = OpponentSet.from_file(OPPONENTS)
    line_drop_score(oset, bundle, pool8)
    assert [index for index, _ in received] == list(range(1, len(oset), 2))
    for index, new in received:
        kept = {id(oset._cache[(oset._key_text(pi), index)]) for _, pi in pool8}
        assert new
        assert all(id(record) in kept for record in new), index
