"""Experiment harness: config handling, summary tables, and full sweeps."""
import hashlib
import json
import math
import statistics

import pytest

from lintscore.harness import (
    BASELINE_KEYS,
    Cell,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    RowSummary,
    SummaryTable,
    load_opponent_set,
    load_program_set,
    resolve_map_description,
    run_experiment,
)
from lintscore.harness import _program_rng
from lintscore.microlang import print_program
from lintscore.pipeline import MockProvider
from lintscore.resources import data_path


TINY_MAP = {
    "name": "t",
    "width": 4,
    "height": 4,
    "player_resources": [0, 0],
    "cells": [
        {"pos": [1, 1], "kind": "Worker", "owner": "P0"},
        {"pos": [2, 2], "kind": "Worker", "owner": "P1"},
    ],
}


def tiny_descriptor(directory, map_path="m.json"):
    """A one-opponent descriptor named ``tiny`` in ``directory``, on
    ``map_path`` (by default the unbundled map ``t``)."""
    (directory / "m.json").write_text(json.dumps(TINY_MAP))
    (directory / "a.mrl").write_text("for(Unit u){ u.idle() }")
    descriptor = directory / "set.json"
    descriptor.write_text(
        json.dumps(
            {
                "name": "tiny",
                "map": str(map_path),
                "programs": ["a.mrl"],
                "seed": 5,
                "max_ticks": 10,
            }
        )
    )
    return str(descriptor)


def counted_requests(monkeypatch):
    """Every request a mock provider answers, in call order."""
    requests = []
    complete = MockProvider.complete

    def counting(self, request):
        requests.append(request)
        return complete(self, request)

    monkeypatch.setattr(MockProvider, "complete", counting)
    return requests


def small_config(**overrides):
    """An echo-mock config sized for fast tests."""
    base = dict(
        programs="pool8",
        opponents="standard-8",
        pool_other="pool16",
        provider={"kind": "mock", "mock": "echo"},
        k=2,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.programs == "pool16"
        assert cfg.opponents == "standard-16"
        assert cfg.pool_other == "pool8"
        assert cfg.provider == {"kind": "mock", "mock": "echo"}
        assert cfg.k == 5
        assert cfg.seed == 0
        assert cfg.max_retries == 3
        assert cfg.literal_min is False
        assert cfg.per_unit is False
        assert cfg.workers == 1
        assert cfg.track == "microrts"
        assert cfg.obfuscation_levels == []
        assert cfg.baselines == list(BASELINE_KEYS)
        assert cfg.map_description is None
        assert cfg.out is None

    def test_round_trip_through_dict(self):
        cfg = small_config(obfuscation_levels=[1, 2], baselines=["rand"])
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*typo"):
            ExperimentConfig.from_dict({"typo": 1})

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ConfigError, match="unknown baselines"):
            ExperimentConfig(baselines=["rand", "psychic"])

    @pytest.mark.parametrize("track", ["c-problems", "python"])
    def test_unscorable_track_rejected(self, track):
        with pytest.raises(ConfigError, match=f"track '{track}'"):
            ExperimentConfig(track=track)

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError, match="k must be"):
            ExperimentConfig(k=0)

    def test_bad_obfuscation_level_rejected(self):
        with pytest.raises(ConfigError, match="levels must be 1 or 2"):
            ExperimentConfig(obfuscation_levels=[3])

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"programs": "pool8", "k": 2}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.programs == "pool8"
        assert cfg.k == 2

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_file(bad)


class TestLoaders:
    def test_builtin_pools(self):
        pool16 = load_program_set("pool16")
        pool8 = load_program_set("pool8")
        assert len(pool16) == 20
        assert len(pool8) == 10
        idents = [ident for ident, _ in pool16]
        assert idents == sorted(idents)

    def test_directory_pool(self, tmp_path):
        (tmp_path / "b.mrl").write_text("for(Unit u){ u.idle() }")
        (tmp_path / "a.mrl").write_text("for(Unit u){ u.attack(Closest) }")
        (tmp_path / "notes.txt").write_text("ignored")
        loaded = load_program_set(str(tmp_path))
        assert [ident for ident, _ in loaded] == ["a", "b"]

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not a directory"):
            load_program_set(str(tmp_path / "nope"))

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no .mrl programs"):
            load_program_set(str(tmp_path))

    def test_standard_opponents_resolved(self):
        # one process-wide object per bundled set, so its match cache
        # accumulates across runs
        for name in ("standard-16", "standard-8"):
            oset = load_opponent_set(name)
            assert oset.name == name
            assert load_opponent_set(name) is oset
        assert load_opponent_set("standard-16") is not load_opponent_set("standard-8")

    def test_descriptor_path(self, tmp_path):
        oset = load_opponent_set(tiny_descriptor(tmp_path))
        assert oset.name == "tiny"
        assert len(oset) == 1
        assert oset.seed == 5
        assert oset.max_ticks == 10

    def test_missing_opponent_set_rejected(self):
        with pytest.raises(ConfigError, match="cannot read nonexistent.json"):
            load_opponent_set("nonexistent.json")


class TestResolveMapDescription:
    def test_default_for_standard_sets(self, oset16, oset8):
        assert "16 by 16" in resolve_map_description(None, oset16)
        assert "8 by 8" in resolve_map_description(None, oset8)

    def test_bundled_name_resolves_to_text(self, oset8):
        assert "16 by 16" in resolve_map_description("BaseWorkers-16x16A", oset8)

    def test_literal_text_passes_through(self, oset8):
        text = "A flat plain with no cover."
        assert resolve_map_description(text, oset8) == text

    def test_long_literal_text_passes_through(self, oset8):
        # longer than a file name may be
        text = "A flat plain with no cover. " * 20
        assert resolve_map_description(text, oset8) == text

    def test_custom_opponents_require_description(self, tmp_path):
        oset = load_opponent_set(tiny_descriptor(tmp_path))
        with pytest.raises(ConfigError, match="map_description is required") as info:
            resolve_map_description(None, oset)
        assert "'tiny'" in str(info.value)
        assert "'t'" in str(info.value)

    def test_descriptor_on_a_bundled_map_needs_none(self, tmp_path):
        bundled = data_path("maps", "BaseWorkers-8x8.json")
        oset = load_opponent_set(tiny_descriptor(tmp_path, bundled))
        assert "8 by 8" in resolve_map_description(None, oset)


class TestSetupBeforeProviderCalls:
    """``run_experiment`` loads every input its config names before the
    first provider call, so a bad config costs no provider call."""

    def test_kshot_map_without_description(self, tmp_path, monkeypatch):
        requests = counted_requests(monkeypatch)
        cfg = small_config(
            opponents=tiny_descriptor(tmp_path),
            obfuscation_levels=[1, 2],
            baselines=["kshot"],
        )
        with pytest.raises(ConfigError, match="map_description is required"):
            run_experiment(cfg)
        assert requests == []

    def test_missing_pool_other(self, tmp_path, monkeypatch):
        requests = counted_requests(monkeypatch)
        cfg = small_config(
            pool_other=str(tmp_path / "missing"),
            obfuscation_levels=[1, 2],
            baselines=["rand-other"],
        )
        with pytest.raises(ConfigError, match="not a directory"):
            run_experiment(cfg)
        assert requests == []

    def test_out_that_is_a_file(self, tmp_path, monkeypatch):
        requests = counted_requests(monkeypatch)
        out = tmp_path / "out"
        out.write_text("")
        cfg = small_config(obfuscation_levels=[1, 2], out=str(out))
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg)
        assert f"cannot write to {out}" in str(info.value)
        assert requests == []

    def test_other_baselines_run_on_one_program(self, tmp_path):
        # only the same-pool rows need a second program (tests/test_cli.py)
        (tmp_path / "only.mrl").write_text("for(Unit u){ u.idle() }")
        result = run_experiment(
            small_config(programs=str(tmp_path), k=1, baselines=["rand-other", "kshot"])
        )
        labels = [row.label for row in result.table.rows]
        assert labels == ["LINT", "Rand-Other", "k-Shot"]
        assert result.errors == []

    def test_descriptor_on_a_bundled_map_prompts_like_standard(
        self, tmp_path, monkeypatch
    ):
        requests = counted_requests(monkeypatch)
        bundled = data_path("maps", "BaseWorkers-8x8.json")
        for opponents in (tiny_descriptor(tmp_path, bundled), "standard-8"):
            run_experiment(small_config(opponents=opponents, baselines=["kshot"]))
        kshot = [r.prompt for r in requests if r.role == "kshot"]
        assert len(kshot) == 2 * 10 * 2
        assert kshot[:20] == kshot[20:]


class TestSummaryTable:
    def test_from_values_confidence(self):
        table = SummaryTable.from_values(
            {
                "Only": {
                    "action": [1.0, 2.0, 3.0],
                    "outcome": [0.5, 0.5, 0.5],
                    "feature": [0.0, 0.0, 0.3],
                }
            },
            ["Only"],
        )
        row = table.rows[0]
        assert row.n == 3
        expected_ci = 1.96 * statistics.stdev([1.0, 2.0, 3.0]) / math.sqrt(3)
        assert row.cells["action"].mean == pytest.approx(2.0)
        assert row.cells["action"].ci == pytest.approx(expected_ci)
        assert row.cells["outcome"].ci == 0.0

    def test_single_sample_has_zero_ci(self):
        table = SummaryTable.from_values(
            {"One": {"action": [0.4], "outcome": [0.4], "feature": [0.4]}},
            ["One"],
        )
        assert table.rows[0].cells["action"] == Cell(0.4, 0.0)

    def test_ragged_lists_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            SummaryTable.from_values(
                {"Bad": {"action": [1.0], "outcome": [1.0, 1.0], "feature": [1.0]}},
                ["Bad"],
            )

    def test_row_order_follows_argument(self):
        metrics = {"action": [1.0], "outcome": [1.0], "feature": [0.0]}
        table = SummaryTable.from_values(
            {"B": metrics, "A": metrics}, ["B", "A"]
        )
        assert [row.label for row in table.rows] == ["B", "A"]

    def test_json_round_trip(self):
        table = SummaryTable(
            [
                RowSummary(
                    "LINT",
                    2,
                    {
                        "action": Cell(0.9, 0.05),
                        "outcome": Cell(0.8, 0.1),
                        "feature": Cell(0.1, 0.02),
                    },
                )
            ]
        )
        data = table.to_json()
        assert data["columns"] == ["action", "outcome", "feature"]
        assert data["direction"] == {
            "action": "up",
            "outcome": "up",
            "feature": "down",
        }
        restored = SummaryTable.from_json(data)
        assert restored.rows == table.rows

    def test_markdown_format(self):
        table = SummaryTable(
            [
                RowSummary(
                    "LINT",
                    1,
                    {
                        "action": Cell(1.0, 0.0),
                        "outcome": Cell(0.5, 0.123456),
                        "feature": Cell(0.0, 0.0),
                    },
                )
            ]
        )
        text = table.markdown()
        lines = text.splitlines()
        assert lines[0] == "| Condition | Action ↑ | Outcome ↑ | Feature ↓ |"
        assert lines[1] == "| --- | --- | --- | --- |"
        assert lines[2] == "| LINT | 1.000 ± 0.000 | 0.500 ± 0.123 | 0.000 ± 0.000 |"
        assert text.endswith("\n")

    def test_csv_format(self):
        table = SummaryTable(
            [
                RowSummary(
                    "Rand",
                    4,
                    {
                        "action": Cell(0.25, 0.5),
                        "outcome": Cell(1.0, 0.0),
                        "feature": Cell(0.125, 0.0625),
                    },
                )
            ]
        )
        text = table.csv()
        lines = text.splitlines()
        assert lines[0] == (
            "condition,n,action_mean,action_ci,outcome_mean,outcome_ci,"
            "feature_mean,feature_ci"
        )
        assert lines[1] == "Rand,4,0.25,0.5,1.0,0.0,0.125,0.0625"
        assert text.endswith("\n")


class TestProgramRng:
    def test_deterministic_per_key(self):
        assert _program_rng(0, "rand", "q01").random() == _program_rng(
            0, "rand", "q01"
        ).random()

    def test_distinct_keys_distinct_streams(self):
        draws = {
            _program_rng(0, "rand", "q01").random(),
            _program_rng(0, "rand", "q02").random(),
            _program_rng(0, "rand-other", "q01").random(),
            _program_rng(1, "rand", "q01").random(),
        }
        assert len(draws) == 4


class TestRunExperiment:
    def test_echo_table_rows_and_lint_score(self):
        result = run_experiment(small_config())
        labels = [row.label for row in result.table.rows]
        assert labels == [
            "LINT",
            "Rand",
            "Rand-Other",
            "Closest-Syntax",
            "Closest-Feature",
            "k-Shot",
        ]
        lint = result.table.rows[0]
        assert lint.n == 10
        assert lint.cells["action"] == Cell(1.0, 0.0)
        assert lint.cells["outcome"] == Cell(1.0, 0.0)
        assert lint.cells["feature"] == Cell(0.0, 0.0)
        assert result.errors == []
        assert not result.total_failure

    def test_obfuscation_level_rows(self):
        result = run_experiment(
            small_config(obfuscation_levels=[1], baselines=["rand"])
        )
        labels = [row.label for row in result.table.rows]
        assert labels == ["LINT", "LINT-L1", "Rand"]
        assert set(result.runs) == {"LINT", "LINT-L1"}
        # The echo oracle reconstructs padded programs perfectly too.
        level_row = result.table.rows[1]
        assert level_row.cells["action"] == Cell(1.0, 0.0)
        assert level_row.cells["feature"] == Cell(0.0, 0.0)

    def test_baseline_details_shape(self):
        result = run_experiment(small_config())
        assert set(result.baseline_details) == {
            "Rand",
            "Rand-Other",
            "Closest-Syntax",
            "Closest-Feature",
            "k-Shot",
        }
        pool8_ids = {ident for ident, _ in load_program_set("pool8")}
        pool16_ids = {ident for ident, _ in load_program_set("pool16")}
        for entry in result.baseline_details["Rand"]:
            assert entry["selected"] != entry["program_id"]
            assert entry["selected"] in pool8_ids
        for entry in result.baseline_details["Rand-Other"]:
            assert entry["selected"] in pool16_ids
        for entry in result.baseline_details["k-Shot"]:
            assert entry["selected"] == "trial-0"
        for details in result.baseline_details.values():
            assert len(details) == 10
            for entry in details:
                assert set(entry) == {
                    "program_id",
                    "selected",
                    "action",
                    "outcome",
                    "feature",
                }

    def test_pick_row_keys_each_pair_once(self, keyed_pairs):
        """The echo LINT row keys (π, π) pairs; the Rand row's one
        ``compare`` call keys each (π, pick) pair once, in program order."""
        result = run_experiment(small_config(baselines=["rand"], k=1))
        texts = {
            ident: print_program(program)
            for ident, program in load_program_set("pool8")
        }
        picks = [
            (texts[entry["program_id"]], texts[entry["selected"]])
            for entry in result.baseline_details["Rand"]
        ]
        keyed = [(print_program(pi), print_program(other)) for pi, other in keyed_pairs]
        assert [pair for pair in keyed if pair[0] != pair[1]] == picks

    def test_kshot_echo_is_perfect(self):
        result = run_experiment(small_config(baselines=["kshot"]))
        kshot_row = result.table.rows[-1]
        assert kshot_row.label == "k-Shot"
        assert kshot_row.cells["action"] == Cell(1.0, 0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="every program's k-shot requests share their cache keys "
        "(model, prompt, trial), but the echo and line-drop mocks answer "
        "k-shot from request.program_source, which the key does not cover: "
        "through a cache every program gets the first program's samples",
    )
    def test_kshot_row_equal_with_and_without_cache(self, tmp_path):
        uncached = run_experiment(small_config(baselines=["kshot"]))
        provider = {"kind": "mock", "mock": "echo", "cache": str(tmp_path)}
        cached = run_experiment(small_config(baselines=["kshot"], provider=provider))
        assert cached.table.rows[-1] == uncached.table.rows[-1]

    def test_deterministic_summary(self):
        first = run_experiment(small_config())
        second = run_experiment(small_config())
        assert json.dumps(first.summary_json(), sort_keys=True) == json.dumps(
            second.summary_json(), sort_keys=True
        )

    def test_seed_changes_random_baselines(self):
        picks_zero = [
            entry["selected"]
            for entry in run_experiment(
                small_config(baselines=["rand", "rand-other"])
            ).baseline_details["Rand"]
        ]
        picks_one = [
            entry["selected"]
            for entry in run_experiment(
                small_config(baselines=["rand", "rand-other"], seed=1)
            ).baseline_details["Rand"]
        ]
        assert picks_zero != picks_one

    def test_total_failure_when_every_program_errors(self):
        cfg = small_config(
            provider={
                "kind": "mock",
                "mock": "scripted",
                "responses": {"explainer": "never a tag"},
            },
            baselines=["rand"],
            k=1,
        )
        result = run_experiment(cfg)
        assert result.total_failure
        assert len(result.errors) == 10
        lint = result.table.rows[0]
        assert lint.cells["action"] == Cell(0.0, 0.0)
        assert lint.cells["feature"] == Cell(1.0, 0.0)

    def test_total_failure_false_without_runs(self):
        result = ExperimentResult(
            small_config(), SummaryTable([]), {}, {}, []
        )
        assert not result.total_failure


class TestExperimentResultWrite:
    def test_writes_expected_tree(self, tmp_path):
        cfg = small_config(baselines=["rand"], k=1)
        result = run_experiment(cfg)
        paths = result.write(tmp_path / "out")
        out = tmp_path / "out"
        assert paths["summary_json"] == out / "summary.json"
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"config", "table", "errors"}
        assert summary["config"] == cfg.to_dict()
        assert summary["table"] == result.table.to_json()
        assert (out / "summary.md").read_text() == result.table.markdown()
        assert (out / "summary.csv").read_text() == result.table.csv()
        assert json.loads((out / "config.json").read_text()) == cfg.to_dict()
        run_files = sorted(p.name for p in (out / "runs" / "LINT").iterdir())
        assert run_files == [f"q{i:02d}.json" for i in range(1, 11)]
        baselines = json.loads((out / "baselines.json").read_text())
        assert set(baselines) == {"Rand"}

    def test_json_files_deterministic(self, tmp_path):
        cfg = small_config(baselines=["rand"], k=1)
        result = run_experiment(cfg)
        result.write(tmp_path / "a")
        result.write(tmp_path / "b")
        for name in ("summary.json", "summary.md", "summary.csv", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_out_config_triggers_write(self, tmp_path):
        cfg = small_config(
            baselines=["rand"], k=1, out=str(tmp_path / "auto")
        )
        run_experiment(cfg)
        assert (tmp_path / "auto" / "summary.json").exists()

    def test_json_ends_with_newline(self, tmp_path):
        cfg = small_config(baselines=["rand"], k=1)
        run_experiment(cfg).write(tmp_path)
        for path in (tmp_path / "summary.json", tmp_path / "config.json"):
            assert path.read_text().endswith("\n")


# SHA-256 of each summary file for SUMMARY_PIN_CONFIG, computed before match
# records were shared between matches; any change to a score, to the table
# format or to the config serialisation changes them.
SUMMARY_PIN_CONFIG = dict(
    provider={"kind": "mock", "mock": "line-drop", "q": 0.2, "seed": 3},
    obfuscation_levels=[1],
)
SUMMARY_PINS = {
    "summary.json": "67cb44b8b5ede29ad07ac3734bbd5bf3146a80d79edcfc0152daac399053a9b1",
    "summary.md": "1e435c8f2b1a515815ef4cb49c4130cd7b7f2dae33ceda24d24af7da8a7f5595",
    "summary.csv": "69b626f8d7e721eaa4e7e7e9059c55ec2e8613b2a070acb73adc9980f38b73c1",
}


def test_summary_bytes_pinned(tmp_path):
    """Line-drop reconstructions, one obfuscation level and every baseline on
    pool8 against standard-8; no cache directory, so no path enters the
    bytes."""
    run_experiment(small_config(**SUMMARY_PIN_CONFIG)).write(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SUMMARY_PINS
    }
    assert digests == SUMMARY_PINS
