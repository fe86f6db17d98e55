"""Acceptance gate: one test per release criterion, in order.

These checks are heavier than the per-module suites — full pool sweeps over
both gauntlets and end-to-end mock pipelines — and together they certify a
build.  A handful of oracle values pinned by the unit tests are deliberately
re-asserted here so this file stands alone.
"""

import json
import os
import random
import time

import pytest

from lintscore.harness import ExperimentConfig, run_experiment
from lintscore.metrics.baselines import select_policy_indices
from lintscore.metrics.behavior import compare
from lintscore.microlang import Program, parse, print_program, random_program
from lintscore.obfuscate import LEVELS, added_lines, obfuscate, verify_neutral
from lintscore.pipeline import make_provider
from lintscore.pipeline.mocks import EchoProvider, EmptyProvider, LineDropProvider
from lintscore.pipeline.runner import Trial, aggregate_trials, lint_score
from lintscore.resources import data_path
from lintscore.sim import Action, state_from_map_dict
from lintscore.sim.evaluator import resolve_joint

PERFECT = {"action": 1.0, "outcome": 1.0, "feature": 0.0}


def test_criterion_01_parser_round_trip():
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(1000):
        program = random_program(rng)
        assert parse(print_program(program)) == program
    assert time.perf_counter() - start < 10.0


def test_criterion_02_training_priority(tiered):
    map_data = json.loads(
        data_path("maps", "BaseWorkers-16x16A.json").read_text(encoding="utf-8")
    )
    state = state_from_map_dict(map_data, seed=0)
    joint = resolve_joint(tiered, state, 0)
    # The Base (uid 5) trains a Worker on the very first decision, ahead of
    # every other resource-consuming rule in the policy; the lone Worker
    # (uid 4) goes to the mineral patch.
    assert joint == {
        4: Action(op="harvest", target=0, source="harvest"),
        5: Action(op="spawn", cell=(2, 1), unit_type="Worker", source="train"),
    }
    base_action = joint[5]
    assert base_action.source == "train"
    assert base_action.unit_type == "Worker"


def test_criterion_03_metric_reflexivity(pool16, oset16):
    start = time.perf_counter()
    for ident, program in pool16:
        report = compare([(program, program)], oset16)[0]
        assert (report.action, report.outcome, report.feature) == (1.0, 1.0, 0.0), ident
    assert len(pool16) == 20
    assert time.perf_counter() - start < 120.0


def test_criterion_04_obfuscation_neutrality(pool16, oset16, oset8):
    for level in LEVELS:
        expected_delta = 10 if level == 1 else 23
        for ident, program in pool16:
            padded = obfuscate(program, level)
            delta = added_lines(program, level)
            assert abs(delta - expected_delta) <= 2, (ident, level, delta)
            for oset in (oset16, oset8):
                report = verify_neutral(program, padded, oset)
                assert report.equal, (ident, level, oset.name, report.divergences)


def test_criterion_05_mock_score_identities(pool16, oset16, bundle, empty_program):
    score, runs = lint_score(pool16, oset16, bundle, EchoProvider(), k=1)
    assert score == PERFECT
    assert all(run.error is None for run in runs)

    _, empty_runs = lint_score(pool16, oset16, bundle, EmptyProvider(), k=1)
    for (ident, program), run in zip(pool16, empty_runs):
        oracle = compare([(program, empty_program)], oset16)[0].as_dict()
        assert run.aggregated == oracle, ident


def test_criterion_06_line_drop_degradation(pool16, oset8, bundle):
    start = time.perf_counter()
    scores = {}
    for q in (0.0, 0.2, 0.5):
        score, runs = lint_score(
            pool16, oset8, bundle, LineDropProvider(q=q, seed=11), k=5
        )
        assert all(run.error is None for run in runs)
        scores[q] = score
    assert scores[0.0] == PERFECT
    assert scores[0.0]["action"] >= scores[0.2]["action"] >= scores[0.5]["action"]
    assert scores[0.0]["feature"] <= scores[0.2]["feature"] <= scores[0.5]["feature"]
    repeat, _ = lint_score(
        pool16, oset8, bundle, LineDropProvider(q=0.5, seed=11), k=5
    )
    assert repeat == scores[0.5]
    assert time.perf_counter() - start < 300.0


def test_criterion_07_trial_aggregation():
    trials = [
        Trial(trial=0, source="a", action=0.9, outcome=0.6, feature=0.1),
        Trial(trial=1, source="b", action=0.7, outcome=0.8, feature=0.4),
    ]
    assert aggregate_trials(trials) == {"action": 0.7, "outcome": 0.6, "feature": 0.4}
    assert aggregate_trials(trials, literal_min=True) == {
        "action": 0.7,
        "outcome": 0.6,
        "feature": 0.1,
    }
    failed = Trial(
        trial=2, source=None, action=0.0, outcome=0.0, feature=1.0,
        error="provider error: boom",
    )
    assert aggregate_trials(trials + [failed]) == {
        "action": 0.0,
        "outcome": 0.0,
        "feature": 1.0,
    }


def test_criterion_08_policy_index_selection():
    indices = select_policy_indices(1000, 20)
    assert indices[0] == 0
    assert indices[-1] == 999
    assert indices[7] == 368
    assert indices == [i * 999 // 19 for i in range(20)]


def test_criterion_10_replay_reproducibility(tmp_path):
    cache = tmp_path / "cache"

    def config(provider):
        return ExperimentConfig(
            programs="pool8",
            opponents="standard-8",
            pool_other="pool16",
            provider=provider,
            k=2,
            seed=0,
            baselines=["rand", "closest-feature", "kshot"],
        )

    recorded = run_experiment(
        config({"kind": "mock", "mock": "echo", "cache": str(cache)})
    )
    assert not recorded.errors

    replay = {"kind": "replay-cache", "directory": str(cache), "model": "mock-echo"}
    dirs = (tmp_path / "a", tmp_path / "b")
    for out in dirs:
        result = run_experiment(config(replay))
        assert not result.errors
        result.write(out)
    for name in ("summary.json", "summary.md", "summary.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.skipif(
    not os.environ.get("LINT_SMOKE_ENDPOINT"),
    reason="set LINT_SMOKE_ENDPOINT to run the live provider smoke test",
)
def test_criterion_11_live_provider_smoke(tiered, oset8, bundle):
    provider = make_provider(
        {
            "kind": "http",
            "endpoint": os.environ["LINT_SMOKE_ENDPOINT"],
            "model": os.environ.get("LINT_SMOKE_MODEL", "gpt-4"),
        }
    )
    _, [run] = lint_score(
        [("smoke", tiered)], oset8, bundle, provider, k=1, max_retries=1
    )
    payload = run.to_json()
    assert set(payload) == {
        "program_id",
        "source",
        "explanation",
        "verdicts",
        "trials",
        "aggregated",
        "error",
        "provenance",
    }
    assert payload["program_id"] == "smoke"
    for name in ("action", "outcome", "feature"):
        assert 0.0 <= payload["aggregated"][name] <= 1.0
    json.dumps(payload)
