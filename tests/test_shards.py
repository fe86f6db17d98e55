"""The shards of ``compare``: identical results at any CPU count, and no
process left behind when a shard fails.

``behavior._cpu_count`` is patched to pretend to a CPU count; 16 exceeds the
ten opponents of standard-8, so it also checks the cap.  Each run starts
from a fresh opponent set, so every count measures everything itself.
"""
import gc
import json
import os
import threading
import time

import pytest

from lintscore.harness import ExperimentConfig, run_experiment
from lintscore.metrics import (
    BehaviorReport,
    OpponentSet,
    ShardError,
    action_metric,
    behavior,
    compare,
    feature_metric,
    outcome_metric,
)
from lintscore.pipeline import LineDropProvider, lint_score
from lintscore.resources import data_path

OPPONENTS = data_path("opponents8.json")
CPU_COUNTS = (1, 2, 3, 16)


def fresh_set():
    return OpponentSet.from_file(OPPONENTS)


def pretend_cpus(monkeypatch, count):
    monkeypatch.setattr(behavior, "_cpu_count", lambda: count)


def kept(oset):
    """What the set keeps: reports and match keys in insertion order, the
    record each key names, and per opponent its records, their JSON and
    which entries they share."""
    played = []
    for records in oset._played:
        ids = {}
        sharing = [
            [ids.setdefault(id(entry), len(ids)) for entry in record.entries]
            for record in records
        ]
        played.append((records, [r.to_json() for r in records], sharing))
    cache = [
        (key, [id(r) for r in oset._played[key[1]]].index(id(record)))
        for key, record in oset._cache.items()
    ]
    return list(oset.reports.items()), cache, played


@pytest.mark.parametrize("per_unit", [False, True])
def test_batches_equal_one_pair_at_a_time(monkeypatch, pool8, per_unit):
    """Two batches at every CPU count against the three metrics computed
    pair by pair in one process, which play each π and then its other and
    keep every match: the same reports.  The batches keep the matches of
    their πs only, in the order each batch first uses them, each equal to
    the pair-by-pair one; what they keep, entry sharing included, is the
    same at every count."""
    programs = [program for _, program in pool8]
    pairs = [(programs[i], programs[(3 * i + j) % 10]) for i in range(10) for j in (1, 2)]
    pairs += pairs[:3] + [(programs[0], programs[0])]
    batches = [pairs[:9], pairs[9:]]
    serial = fresh_set()
    expected = [
        BehaviorReport(
            action_metric(pi, other, serial, per_unit),
            outcome_metric(pi, other, serial),
            feature_metric(pi, other, serial),
        )
        for pi, other in pairs
    ]
    # after each batch, its πs' keys and those of the batches before it,
    # in first-use order
    pi_texts: list[str] = []
    expected_keys = []
    for batch in batches:
        texts = {serial._key_text(pi) for pi, _ in batch}
        for pair in batch:
            for program in pair:
                text = serial._key_text(program)
                if text in texts and text not in pi_texts:
                    pi_texts.append(text)
        expected_keys.append(
            [(text, index) for text in pi_texts for index in range(len(serial))]
        )
    # some of the first batch's others are no π of it
    used = {serial._key_text(program) for pair in batches[0] for program in pair}
    assert len(expected_keys[0]) < len(used) * len(serial)
    outputs = {}
    for count in CPU_COUNTS:
        pretend_cpus(monkeypatch, count)
        oset = fresh_set()
        reports = []
        for batch, keys in zip(batches, expected_keys):
            reports += compare(batch, oset, per_unit)
            assert list(oset._cache) == keys, count
        assert reports == expected, count
        for key, record in oset._cache.items():
            assert record.to_json() == serial._cache[key].to_json(), (count, key)
        assert {id(r) for played in oset._played for r in played} == {
            id(r) for r in oset._cache.values()
        }, count
        outputs[count] = kept(oset)
    for count in CPU_COUNTS[1:]:
        assert outputs[count] == outputs[1], count


@pytest.mark.parametrize("per_unit", [False, True])
def test_lint_score_identical_at_any_cpu_count(monkeypatch, bundle, pool8, per_unit):
    outputs = {}
    for count in CPU_COUNTS:
        pretend_cpus(monkeypatch, count)
        oset = fresh_set()
        score, runs = lint_score(
            pool8, oset, bundle, LineDropProvider(q=0.3, seed=4), k=3,
            per_unit=per_unit,
        )
        outputs[count] = (
            score,
            [json.dumps(run.to_json(), sort_keys=True) for run in runs],
            kept(oset),
        )
    for count in CPU_COUNTS[1:]:
        assert outputs[count] == outputs[1], count
    assert len(outputs[1][2][0]) > len(pool8)  # the runs measured pairs


def test_run_experiment_identical_at_any_cpu_count(monkeypatch, tmp_path):
    out = tmp_path / "out"
    files = {}
    for count in CPU_COUNTS:
        pretend_cpus(monkeypatch, count)
        run_experiment(
            ExperimentConfig(
                programs="pool8",
                opponents=str(OPPONENTS),
                pool_other="pool8",
                provider={"kind": "mock", "mock": "line-drop", "q": 0.3, "seed": 4},
                k=2,
                obfuscation_levels=[1],
                map_description="BaseWorkers-8x8",
                out=str(out),
            )
        )
        files[count] = {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    assert "summary.json" in files[1] and "baselines.json" in files[1]
    for count in CPU_COUNTS[1:]:
        assert files[count] == files[1], count


def some_pairs(pool8):
    programs = [program for _, program in pool8[:3]]
    return [(pi, other) for pi in programs for other in programs if pi is not other]


def fail_in_children(monkeypatch, failure):
    """Make ``_opponent`` call ``failure`` in the child shards."""
    parent = os.getpid()
    original = behavior._opponent

    def opponent(*args):
        if os.getpid() != parent:
            failure()
        return original(*args)

    monkeypatch.setattr(behavior, "_opponent", opponent)


def raise_error():
    raise RuntimeError("shard failure under test")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_untouched(oset):
    assert oset.reports == {}
    assert all(played == [] for played in oset._played)


def test_child_failure_raises_with_its_traceback(monkeypatch, pool8):
    pretend_cpus(monkeypatch, 3)
    fail_in_children(monkeypatch, raise_error)
    oset = fresh_set()
    with pytest.raises(ShardError) as excinfo:
        compare(some_pairs(pool8), oset)
    assert "RuntimeError: shard failure under test" in excinfo.value.child_traceback
    assert_no_child_left()
    assert_untouched(oset)


def test_child_that_dies_silently_raises(monkeypatch, pool8):
    pretend_cpus(monkeypatch, 2)
    fail_in_children(monkeypatch, lambda: os._exit(3))
    oset = fresh_set()
    with pytest.raises(ShardError, match="sent no result"):
        compare(some_pairs(pool8), oset)
    assert_no_child_left()
    assert_untouched(oset)


def test_own_shard_failure_kills_and_reaps_the_children(monkeypatch, pool8):
    """The children would sleep for a minute: they are killed, not waited
    for."""
    pretend_cpus(monkeypatch, 3)
    parent = os.getpid()

    def opponent(*args):
        if os.getpid() == parent:
            raise_error()
        time.sleep(60)

    monkeypatch.setattr(behavior, "_opponent", opponent)
    oset = fresh_set()
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="shard failure under test"):
        compare(some_pairs(pool8), oset)
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert_untouched(oset)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here"
)
def test_shards_follow_the_cpu_affinity():
    # under ``taskset -c 0`` this is the one-shard count
    assert behavior._cpu_count() == len(os.sched_getaffinity(0))


def forbid_fork():
    raise AssertionError("no process may be started here")


def test_one_cpu_starts_no_process(monkeypatch, pool8):
    pretend_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", forbid_fork)
    oset = fresh_set()
    reports = compare(some_pairs(pool8), oset)
    assert len(reports) == len(some_pairs(pool8))


def test_other_threads_start_no_process(monkeypatch, pool8):
    pretend_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", forbid_fork)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        reports = compare(some_pairs(pool8), fresh_set())
    finally:
        release.set()
        waiting.join(timeout=60)
    assert not waiting.is_alive()
    assert len(reports) == len(some_pairs(pool8))


@pytest.mark.parametrize("collecting", [True, False])
def test_receiving_keeps_the_collector_state(monkeypatch, pool8, collecting):
    """``_receive`` pauses the cyclic collector while it loads a message and
    leaves it as it found it, also when the child sent nothing."""
    pretend_cpus(monkeypatch, 2)
    enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        compare(some_pairs(pool8), fresh_set())
        assert gc.isenabled() == collecting
        fail_in_children(monkeypatch, lambda: os._exit(3))
        with pytest.raises(ShardError):
            compare(some_pairs(pool8), fresh_set())
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False])
def test_opponent_work_keeps_the_collector_state(monkeypatch, pool8, collecting):
    """``_opponent`` pauses the cyclic collector while it works and leaves
    it as it found it, also when the work raises."""
    paused = []
    parts = behavior._parts

    def recording(*args):
        paused.append(not gc.isenabled())
        return parts(*args)

    def failing(*args):
        raise_error()

    pi, other = some_pairs(pool8)[0]
    # (text, program) pairs, kept positions and jobs as ``_measure`` passes
    # them; a fresh set has no match cached under either text
    programs = [("pi", pi), ("other", other)]
    keep = [0]
    jobs = [(0, 1, other)]
    enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        monkeypatch.setattr(behavior, "_parts", recording)
        behavior._opponent(fresh_set(), 0, programs, keep, jobs, False)
        assert paused == [True]
        assert gc.isenabled() == collecting
        monkeypatch.setattr(behavior, "_parts", failing)
        with pytest.raises(RuntimeError, match="shard failure under test"):
            behavior._opponent(fresh_set(), 0, programs, keep, jobs, False)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if enabled else gc.disable)()


def test_measured_pairs_start_no_process(monkeypatch, pool8):
    pretend_cpus(monkeypatch, 2)
    oset = fresh_set()
    first = compare(some_pairs(pool8), oset)
    monkeypatch.setattr(os, "fork", forbid_fork)
    assert compare(some_pairs(pool8), oset) == first
    assert_no_child_left()
