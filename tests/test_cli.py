"""End-to-end CLI coverage through click's in-process runner.

Exit-code contract: 0 success, 1 failed work (parse errors, lost runs),
2 usage/configuration errors.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from lintscore import __version__
from lintscore.cli import main
from lintscore.microlang import parse, print_program, to_dict
from lintscore.obfuscate import obfuscate
from lintscore.pipeline import LineDropProvider, lint_score
from lintscore.resources import data_path
from test_harness import counted_requests

SIMPLE = "for(Unit u){\n    u.attack(Closest)\n}"
TIERED_PATH = str(data_path("policies", "examples", "tiered_rush.mrl"))

# SHA-256 of files the CLI writes, computed before the JSON serializers were
# derived from the dataclasses; the bytes must not change.
RECORD_PIN = "12fce693d7ea584d286cba9b00de095c79345bbbca558a14b3742c7334cb3d5d"
SCORE_OUT_PINS = {
    "q01.json": "c1dfdb08ed171921431cc213ccebb5b72b35b2c0bb6d0fbbbefd6fed6994c9fb",
    "q02.json": "215fc5a294f30a096141d1c0460b5f1dcd877671f03e8a57109f037bdb2e7fd5",
    "q03.json": "c36fa2878a9665b835c81beb292fc75e73b7be615c37da6f17a94e9f855ff795",
    "q04.json": "d62a3bcfc2e50f748531f385b6a27ab17fc2ba00910cb91f92ddf91c0104f792",
    "q05.json": "ffa22a1400cc9f36cdce00cd1b6548e1cab4bbb69f584088e31b2601f7920599",
    "q06.json": "56c3952ead6a71ea560c2561d6230fb694daefd590ea706b19bed16d4e136edc",
    "q07.json": "329223ffa6dd31d7d33aa61a7bd75b41c133b71d937a0213b9ccb9f3f0a59cf0",
    "q08.json": "dd0b8d0535748dfb8a45ad5d4bcfd01582d95370336f4f04572905ea9a085108",
    "q09.json": "9882ec5a976ee2313b22b52cad446194ec026cd4dae15c359a8affcfb7898166",
    "q10.json": "9402eebba1ce270f574dbd55a3c74d8af4766f88efff0fe805cedc2911500ea5",
    "score.json": "ae0310d4cf0a4446a2b5cb264e932bd27e4d8209cbfb336b2bb2347785ecd854",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()

DUEL_MAP = {
    "name": "duel",
    "width": 4,
    "height": 4,
    "player_resources": [0, 0],
    "cells": [
        {"pos": [1, 1], "kind": "Heavy", "owner": "P0"},
        {"pos": [2, 2], "kind": "Worker", "owner": "P1"},
    ],
}


def make_defective(path, defect):
    """Put an input file at ``path`` that cannot be used for ``defect``:
    ``missing`` leaves nothing there."""
    if defect == "directory":
        path.mkdir()
    elif defect == "not-utf8":
        path.write_bytes(b'{"name": "\xff"}')
    elif defect == "not-json":
        path.write_text("{not json")
    elif defect == "not-object":
        path.write_text("[]")


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def simple_file(tmp_path):
    path = tmp_path / "simple.mrl"
    path.write_text(SIMPLE)
    return str(path)


class TestParseCmd:
    def test_canonical_output(self, runner, simple_file):
        result = runner.invoke(main, ["parse", simple_file])
        assert result.exit_code == 0
        assert result.output == SIMPLE + "\n"

    def test_stdin_dash(self, runner):
        result = runner.invoke(
            main, ["parse", "-"], input="for(Unit u){ u.idle() ; }"
        )
        assert result.exit_code == 0
        assert result.output == "for(Unit u){\n    u.idle()\n}\n"

    def test_ast_json(self, runner, simple_file):
        result = runner.invoke(main, ["parse", simple_file, "--ast-json"])
        assert result.exit_code == 0
        assert json.loads(result.output) == to_dict(parse(SIMPLE))

    def test_parse_error_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.mrl"
        bad.write_text("for(Unit u){ u.fly() }")
        result = runner.invoke(main, ["parse", str(bad)])
        assert result.exit_code == 1
        assert "line" in result.stderr

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["parse", str(tmp_path / "ghost.mrl")])
        assert result.exit_code == 2

    def test_non_utf8_file_exits_two(self, runner, tmp_path):
        latin = tmp_path / "latin.mrl"
        latin.write_bytes(b"for(Unit u){ u.idle() } \xff")
        result = runner.invoke(main, ["parse", str(latin)])
        assert result.exit_code == 2, result.output
        assert f"cannot read {latin}" in result.output


class TestSimulateCmd:
    @pytest.fixture()
    def duel_files(self, tmp_path):
        map_path = tmp_path / "duel.json"
        map_path.write_text(json.dumps(DUEL_MAP))
        p0 = tmp_path / "p0.mrl"
        p0.write_text(SIMPLE)
        p1 = tmp_path / "p1.mrl"
        p1.write_text("")
        return str(map_path), str(p0), str(p1)

    def test_match_summary(self, runner, duel_files):
        map_path, p0, p1 = duel_files
        result = runner.invoke(
            main,
            [
                "simulate",
                "--p0", p0,
                "--p1", p1,
                "--map", map_path,
                "--max-ticks", "40",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["outcome"] == 1
        assert payload["ticks"] == 1
        assert set(payload) == {
            "outcome",
            "ticks",
            "fixed_point",
            "features",
            "decisions",
        }

    def test_record_file(self, runner, duel_files, tmp_path):
        map_path, p0, p1 = duel_files
        record_path = tmp_path / "match.json"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--p0", p0,
                "--p1", p1,
                "--map", map_path,
                "--record", str(record_path),
            ],
        )
        assert result.exit_code == 0
        record = json.loads(record_path.read_text())
        assert set(record) == {
            "outcome",
            "ticks",
            "fixed_point",
            "features",
            "dropped_actions",
            "decisions",
        }
        assert record["outcome"] == 1

    def test_record_bytes_pinned(self, runner, tmp_path):
        record_path = tmp_path / "match.json"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--p0", TIERED_PATH,
                "--p1", str(data_path("policies", "pool8", "q01.mrl")),
                "--map", "BaseWorkers-8x8",
                "--max-ticks", "120",
                "--record", str(record_path),
            ],
        )
        assert result.exit_code == 0
        assert _sha256(record_path) == RECORD_PIN

    def test_record_into_missing_directory_exits_two(
        self, runner, duel_files, tmp_path
    ):
        map_path, p0, p1 = duel_files
        record_path = tmp_path / "missing" / "match.json"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--p0", p0,
                "--p1", p1,
                "--map", map_path,
                "--record", str(record_path),
            ],
        )
        assert result.exit_code == 2, result.output
        assert f"cannot write {record_path}" in result.output

    def test_bundled_map_name(self, runner, duel_files):
        _, p0, p1 = duel_files
        result = runner.invoke(
            main,
            [
                "simulate",
                "--p0", p0,
                "--p1", p1,
                "--map", "BaseWorkers-8x8",
                "--max-ticks", "50",
            ],
        )
        assert result.exit_code == 0

    def test_unknown_map_exits_two(self, runner, duel_files):
        _, p0, p1 = duel_files
        result = runner.invoke(
            main, ["simulate", "--p0", p0, "--p1", p1, "--map", "Atlantis"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text, message", [("{not json", "Expecting"), ("{}", "not a map")]
    )
    def test_malformed_map_exits_two(self, runner, duel_files, text, message):
        map_path, p0, p1 = duel_files
        Path(map_path).write_text(text)
        result = runner.invoke(
            main, ["simulate", "--p0", p0, "--p1", p1, "--map", map_path]
        )
        assert result.exit_code == 2, result.output
        assert f"map {map_path}" in result.output
        assert message in result.output


def write_descriptor(directory, **changes):
    """An opponent-set descriptor in ``directory`` over a bundled-style map
    and one policy, both in subdirectories; ``changes`` set keys, and a
    value of None removes one."""
    (directory / "maps").mkdir()
    (directory / "maps" / "duel.json").write_text(json.dumps(DUEL_MAP))
    (directory / "maps" / "empty.json").write_text("{}")
    (directory / "policies").mkdir()
    (directory / "policies" / "a.mrl").write_text(SIMPLE)
    (directory / "policies" / "bad.mrl").write_text("for(Unit u){ u.fly() }")
    (directory / "policies" / "latin.mrl").write_bytes(b"for(Unit u){ u.idle() } \xff")
    data = {
        "name": "duel",
        "map": "maps/duel.json",
        "programs": ["policies/a.mrl"],
        "seed": 3,
        "max_ticks": 10,
    }
    data.update(changes)
    path = directory / "duel-set.json"
    path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
    return path


# descriptor defect -> (changes, or the descriptor's raw text; message)
BAD_DESCRIPTORS = {
    "not-json": ("{not json", "is not JSON"),
    "not-object": ("[]", "not a JSON object"),
    "no-map": ({"map": None}, "missing 'map'"),
    "no-programs": ({"programs": None}, "missing 'programs'"),
    "no-policy-file": ({"programs": ["policies/b.mrl"]}, "cannot read policies/b.mrl"),
    "no-map-file": ({"map": "maps/b.json"}, "cannot read maps/b.json"),
    "empty-map": ({"map": "maps/empty.json"}, "maps/empty.json: not a map"),
    "unparseable-opponent": ({"programs": ["policies/bad.mrl"]}, "policies/bad.mrl"),
    "non-utf8-opponent": (
        {"programs": ["policies/latin.mrl"]},
        "cannot read policies/latin.mrl: not UTF-8",
    ),
    "unknown-key": ({"max_tick": 40}, "unknown keys ['max_tick']"),
    "decision-period": ({"decision_period": 1}, "unknown keys ['decision_period']"),
    "mistyped-seed": ({"seed": "3"}, "'seed' must be int"),
    "no-programs-listed": ({"programs": []}, "'programs' must list"),
}


def bad_descriptor(directory, defect):
    changes, message = BAD_DESCRIPTORS[defect]
    if isinstance(changes, str):
        path = write_descriptor(directory)
        path.write_text(changes)
    else:
        path = write_descriptor(directory, **changes)
    return str(path), message


class TestMetricCmd:
    def test_descriptor_paths_are_relative_to_it(self, runner, tmp_path):
        descriptor = write_descriptor(tmp_path)
        result = runner.invoke(
            main,
            [
                "metric",
                "--pi", TIERED_PATH,
                "--other", TIERED_PATH,
                "--opponents", str(descriptor),
            ],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["action"] == 1.0

    @pytest.mark.parametrize("defect", sorted(BAD_DESCRIPTORS))
    def test_malformed_descriptor_exits_two(self, runner, tmp_path, defect):
        path, message = bad_descriptor(tmp_path, defect)
        result = runner.invoke(
            main,
            ["metric", "--pi", TIERED_PATH, "--other", TIERED_PATH, "--opponents", path],
        )
        assert result.exit_code == 2, result.output
        assert f"opponent set {path}" in result.output
        assert message in result.output

    def test_reflexive(self, runner):
        result = runner.invoke(
            main,
            [
                "metric",
                "--pi", TIERED_PATH,
                "--other", TIERED_PATH,
                "--opponents", "standard-8",
            ],
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "action": 1.0,
            "outcome": 1.0,
            "feature": 0.0,
        }

    def test_per_unit_flag(self, runner, simple_file):
        result = runner.invoke(
            main,
            [
                "metric",
                "--pi", simple_file,
                "--other", simple_file,
                "--opponents", "standard-8",
                "--per-unit",
            ],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["action"] == 1.0


class TestIoMetricCmd:
    SUCC = f'{sys.executable} -c "n = int(input()); print(n + 1)"'

    def test_self_match(self, runner):
        result = runner.invoke(
            main,
            [
                "io-metric",
                "--reference", self.SUCC,
                "--candidate", self.SUCC,
                "--count", "3",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["value"] == 1.0
        assert payload["total"] == 3

    def test_reference_failure_exits_one(self, runner):
        bad = f'{sys.executable} -c "raise SystemExit(2)"'
        result = runner.invoke(
            main,
            [
                "io-metric",
                "--reference", bad,
                "--candidate", self.SUCC,
                "--count", "1",
            ],
        )
        assert result.exit_code == 1

    def test_suite_directory(self, runner, tmp_path):
        (tmp_path / "case0.txt").write_text("4\n")
        (tmp_path / "case1.txt").write_text("9\n")
        result = runner.invoke(
            main,
            [
                "io-metric",
                "--reference", self.SUCC,
                "--candidate", self.SUCC,
                "--suite", str(tmp_path),
            ],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["total"] == 2

    def test_missing_suite_exits_two(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "io-metric",
                "--reference", self.SUCC,
                "--candidate", self.SUCC,
                "--suite", str(tmp_path),
            ],
        )
        assert result.exit_code == 2

    def test_suite_that_is_a_file_exits_two(self, runner, tmp_path):
        suite = tmp_path / "case0.txt"
        suite.write_text("4\n")
        result = runner.invoke(
            main,
            [
                "io-metric",
                "--reference", self.SUCC,
                "--candidate", self.SUCC,
                "--suite", str(suite),
            ],
        )
        assert result.exit_code == 2, result.output
        assert f"suite {suite} is not a directory" in result.output

    def test_reference_that_cannot_run_exits_one(self, runner, tmp_path):
        missing = tmp_path / "no-such-program"
        result = runner.invoke(
            main,
            [
                "io-metric",
                "--reference", str(missing),
                "--candidate", self.SUCC,
                "--count", "1",
            ],
        )
        assert result.exit_code == 1, result.output
        assert "reference failed on input 0: cannot run" in result.output
        assert str(missing) in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_candidate_that_cannot_run_is_a_mismatch(self, runner, tmp_path):
        missing = tmp_path / "no-such-program"
        result = runner.invoke(
            main,
            [
                "io-metric",
                "--reference", self.SUCC,
                "--candidate", str(missing),
                "--count", "2",
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["value"] == 0.0
        assert payload["mismatched"] == [0, 1]
        for failure in payload["failures"]:
            assert failure["reason"].startswith("cannot run: ")
            assert str(missing) in failure["reason"]


class TestObfuscateCmd:
    def test_prints_padded_program(self, runner, simple_file):
        result = runner.invoke(main, ["obfuscate", simple_file])
        assert result.exit_code == 0
        expected = print_program(obfuscate(parse(SIMPLE), 1))
        assert result.output == expected + "\n"

    def test_level_two(self, runner, simple_file):
        result = runner.invoke(main, ["obfuscate", simple_file, "--level", "2"])
        assert result.exit_code == 0
        expected = print_program(obfuscate(parse(SIMPLE), 2))
        assert result.output == expected + "\n"

    def test_verify_reports_neutrality(self, runner, simple_file):
        result = runner.invoke(
            main,
            ["obfuscate", simple_file, "--verify", "--opponents", "standard-8"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.stderr)
        assert payload["equal"] is True
        assert payload["added_lines"] == 11
        assert payload["divergences"] == []

    def test_invalid_level_exits_two(self, runner, simple_file):
        result = runner.invoke(main, ["obfuscate", simple_file, "--level", "3"])
        assert result.exit_code == 2


class TestScoreCmd:
    SCORE_ARGS = [
        "score",
        "--programs", "pool8",
        "--opponents", "standard-8",
        "--k", "1",
    ]

    def test_echo_perfect_score(self, runner):
        result = runner.invoke(main, self.SCORE_ARGS)
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "action": 1.0,
            "outcome": 1.0,
            "feature": 0.0,
        }

    def test_out_directory(self, runner, tmp_path):
        out = tmp_path / "runs"
        result = runner.invoke(main, self.SCORE_ARGS + ["--out", str(out)])
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"q{i:02d}.json" for i in range(1, 11)] + ["score.json"]
        assert json.loads((out / "score.json").read_text()) == json.loads(
            result.output
        )
        run = json.loads((out / "q01.json").read_text())
        assert run["aggregated"] == {
            "action": 1.0,
            "outcome": 1.0,
            "feature": 0.0,
        }

    def test_line_drop_mock_at_zero_is_perfect(self, runner):
        result = runner.invoke(
            main, self.SCORE_ARGS + ["--mock", "line-drop", "--q", "0.0"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["action"] == 1.0

    def test_global_provider_override(self, runner):
        result = runner.invoke(main, ["--provider", "mock"] + self.SCORE_ARGS)
        assert result.exit_code == 0

    @pytest.mark.parametrize("defect", ["not-utf8", "directory"])
    def test_unreadable_program_file_exits_two(self, runner, tmp_path, defect):
        (tmp_path / "a.mrl").write_text(SIMPLE)
        unreadable = tmp_path / "x.mrl"
        if defect == "directory":
            unreadable.mkdir()
        else:
            unreadable.write_bytes(b"for(Unit u){ u.idle() } \xff")
        result = runner.invoke(
            main, ["score", "--programs", str(tmp_path), "--opponents", "standard-8"]
        )
        assert result.exit_code == 2, result.output
        assert f"cannot read {unreadable}" in result.output

    def test_out_that_is_a_file_exits_two(self, runner, tmp_path, monkeypatch):
        requests = counted_requests(monkeypatch)
        out = tmp_path / "out"
        out.write_text("")
        result = runner.invoke(main, self.SCORE_ARGS + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"cannot write to {out}" in result.output
        assert requests == []

    @pytest.mark.parametrize("provider", ["mock", "replay"])
    def test_cache_dir_that_is_a_file_exits_two(
        self, runner, tmp_path, monkeypatch, provider
    ):
        requests = counted_requests(monkeypatch)
        cache = tmp_path / "cache"
        cache.write_text("")
        result = runner.invoke(
            main,
            self.SCORE_ARGS + ["--provider", provider, "--cache-dir", str(cache)],
        )
        assert result.exit_code == 2, result.output
        assert f"cache directory {cache} is not a directory" in result.output
        assert requests == []
        assert cache.read_text() == ""

    @pytest.mark.parametrize("defect", ["not-utf8", "directory"])
    def test_unreadable_cached_response_is_the_run_error(
        self, runner, tmp_path, defect
    ):
        (tmp_path / "pool").mkdir()
        (tmp_path / "pool" / "a.mrl").write_text(SIMPLE)
        args = [
            "score", "--programs", str(tmp_path / "pool"),
            "--opponents", "standard-8", "--k", "1",
        ]
        cache = tmp_path / "cache"
        recorded = runner.invoke(main, args + ["--cache-dir", str(cache)])
        assert recorded.exit_code == 0, recorded.output
        responses = sorted(cache.glob("*.txt"))
        for path in responses:
            path.unlink()
            make_defective(path, defect)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            args
            + ["--provider", "replay", "--cache-dir", str(cache), "--out", str(out)],
        )
        assert result.exit_code == 1, result.output
        assert "every program failed" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        error = json.loads((out / "a.json").read_text())["error"]
        assert error.startswith("provider error: cannot read cached response ")
        assert any(str(path) in error for path in responses)

    def test_replay_requires_cache_dir(self, runner):
        result = runner.invoke(main, self.SCORE_ARGS + ["--provider", "replay"])
        assert result.exit_code == 2

    def test_http_requires_provider_config(self, runner):
        result = runner.invoke(main, self.SCORE_ARGS + ["--provider", "http"])
        assert result.exit_code == 2

    def test_empty_replay_cache_total_failure(self, runner, tmp_path):
        result = runner.invoke(
            main,
            self.SCORE_ARGS
            + ["--provider", "replay", "--cache-dir", str(tmp_path)],
        )
        assert result.exit_code == 1
        assert "every program failed" in result.stderr
        # The worst-case score is still printed before the failure exit.
        assert json.loads(result.stdout) == {
            "action": 0.0,
            "outcome": 0.0,
            "feature": 1.0,
        }

    def test_replay_rejects_non_object_provider_config(self, runner, tmp_path):
        config = tmp_path / "provider.json"
        config.write_text('["mock-echo"]')
        result = runner.invoke(
            main,
            self.SCORE_ARGS
            + [
                "--provider", "replay",
                "--provider-config", str(config),
                "--cache-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 2
        assert "not a JSON object" in result.output

    def test_mock_records_into_cache_dir(self, runner, tmp_path):
        cache = tmp_path / "cache"
        result = runner.invoke(
            main, self.SCORE_ARGS + ["--cache-dir", str(cache)]
        )
        assert result.exit_code == 0
        assert list(cache.glob("*.txt"))

    def test_replay_reads_model_from_provider_config(self, runner, tmp_path):
        cache = tmp_path / "cache"
        recorded = runner.invoke(
            main, self.SCORE_ARGS + ["--cache-dir", str(cache)]
        )
        assert recorded.exit_code == 0
        # the same file a live run would pass; replay reads only its model
        config = tmp_path / "provider.json"
        config.write_text(
            json.dumps({"endpoint": "http://127.0.0.1:1/", "model": "mock-echo"})
        )
        replayed = runner.invoke(
            main,
            self.SCORE_ARGS
            + [
                "--provider", "replay",
                "--provider-config", str(config),
                "--cache-dir", str(cache),
            ],
        )
        assert replayed.exit_code == 0
        assert json.loads(replayed.output) == json.loads(recorded.output)

    def test_replay_rejects_unreadable_manifest(self, runner, tmp_path):
        (tmp_path / "manifest.json").write_text("[1]")
        result = runner.invoke(
            main,
            self.SCORE_ARGS + ["--provider", "replay", "--cache-dir", str(tmp_path)],
        )
        assert result.exit_code == 2
        assert "manifest" in result.output

    def test_cache_at_other_temperature_exits_two(self, runner, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "manifest.json").write_text(
            '{"model": "m", "temperature": 0.7}\n'
        )
        config = tmp_path / "provider.json"
        config.write_text(
            json.dumps(
                {"endpoint": "http://127.0.0.1:1/", "model": "m", "temperature": 0.2}
            )
        )
        result = runner.invoke(
            main,
            self.SCORE_ARGS
            + [
                "--provider", "http",
                "--provider-config", str(config),
                "--cache-dir", str(cache),
            ],
        )
        assert result.exit_code == 2
        assert "temperature 0.7" in result.output
        assert list(cache.iterdir()) == [cache / "manifest.json"]

    def test_replay_at_other_temperature_exits_two(self, runner, tmp_path):
        cache = tmp_path / "cache"
        recorded = runner.invoke(
            main, self.SCORE_ARGS + ["--cache-dir", str(cache)]
        )
        assert recorded.exit_code == 0
        # as if the echo responses had been recorded at temperature 0.7
        (cache / "manifest.json").write_text(
            '{"model": "mock-echo", "temperature": 0.7}\n'
        )
        replay = ["--provider", "replay", "--cache-dir", str(cache)]
        config = tmp_path / "provider.json"
        config.write_text(json.dumps({"model": "mock-echo", "temperature": 0.2}))
        refused = runner.invoke(
            main,
            self.SCORE_ARGS + replay + ["--provider-config", str(config)],
        )
        assert refused.exit_code == 2
        assert "temperature 0.7, not 0.2" in refused.output
        # without a provider config the manifest supplies model and temperature
        replayed = runner.invoke(main, self.SCORE_ARGS + replay)
        assert replayed.exit_code == 0
        assert json.loads(replayed.output) == json.loads(recorded.output)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"model": "m"}, "http provider config needs 'endpoint'"),
            ({"endpoint": "http://127.0.0.1:1/"}, "http provider config needs 'model'"),
            (
                {"endpoint": "http://127.0.0.1:1/", "model": "m", "temperature": "hot"},
                "temperature must be a number, not 'hot'",
            ),
            (
                {"endpoint": "http://127.0.0.1:1/", "model": "m", "timeout": "soon"},
                "timeout must be a number, not 'soon'",
            ),
        ],
    )
    def test_malformed_http_config_exits_two(self, runner, tmp_path, settings, message):
        config = tmp_path / "provider.json"
        config.write_text(json.dumps(settings))
        result = runner.invoke(
            main,
            self.SCORE_ARGS
            + ["--provider", "http", "--provider-config", str(config)],
        )
        assert result.exit_code == 2
        assert message in result.output

    def test_replay_non_numeric_temperature_exits_two(self, runner, tmp_path):
        config = tmp_path / "provider.json"
        config.write_text(json.dumps({"temperature": "hot"}))
        result = runner.invoke(
            main,
            self.SCORE_ARGS
            + [
                "--provider", "replay",
                "--provider-config", str(config),
                "--cache-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 2
        assert "temperature must be a number, not 'hot'" in result.output

    @pytest.mark.parametrize(
        "option, value",
        [("--max-retries", "0"), ("--max-retries", "-1"), ("--workers", "0")],
    )
    def test_count_below_one_exits_two(self, runner, option, value):
        result = runner.invoke(main, self.SCORE_ARGS + [option, value])
        assert result.exit_code == 2
        field = option[2:].replace("-", "_")
        assert f"{field} must be >= 1" in result.output

    @pytest.mark.parametrize("q", ["1.5", "-0.5"])
    def test_line_drop_q_out_of_range_exits_two(self, runner, q):
        result = runner.invoke(
            main, self.SCORE_ARGS + ["--mock", "line-drop", "--q", q]
        )
        assert result.exit_code == 2
        assert "q must be in [0, 1]" in result.output

    def test_replay_reads_model_from_cache_manifest(self, runner, tmp_path):
        cache = tmp_path / "cache"
        recorded = runner.invoke(
            main,
            self.SCORE_ARGS
            + ["--provider", "mock", "--mock", "line-drop", "--q", "0.3",
               "--cache-dir", str(cache)],
        )
        assert recorded.exit_code == 0
        replayed = runner.invoke(
            main,
            self.SCORE_ARGS + ["--provider", "replay", "--cache-dir", str(cache)],
        )
        assert replayed.exit_code == 0
        assert json.loads(replayed.output) == json.loads(recorded.output)

    def test_out_matches_lint_score(self, runner, tmp_path, bundle, pool8, oset8):
        """``lint score`` is ``run_experiment`` with no baselines: its score
        and per-program files are those of ``lint_score`` itself."""
        out = tmp_path / "runs"
        result = runner.invoke(
            main,
            [
                "score", "--programs", "pool8", "--opponents", "standard-8",
                "--mock", "line-drop", "--q", "0.3", "--k", "3",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        score, runs = lint_score(
            pool8, oset8, bundle, LineDropProvider(q=0.3, seed=0), k=3
        )
        assert json.loads(result.output) == score
        assert json.loads((out / "score.json").read_text()) == score
        assert len(list(out.iterdir())) == len(runs) + 1
        for run in runs:
            expected = json.dumps(run.to_json(), indent=2, sort_keys=True) + "\n"
            assert (out / f"{run.program_id}.json").read_text() == expected

    def test_out_bytes_pinned(self, runner, tmp_path):
        out = tmp_path / "runs"
        result = runner.invoke(
            main,
            [
                "score", "--programs", "pool8", "--opponents", "standard-8",
                "--mock", "line-drop", "--q", "0.3", "--k", "2",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        assert {p.name: _sha256(p) for p in out.iterdir()} == SCORE_OUT_PINS

    def test_parse_error_names_the_file(self, runner, tmp_path):
        (tmp_path / "a.mrl").write_text(SIMPLE)
        (tmp_path / "b.mrl").write_text("for(Unit u){\n    u.fly()\n}\n")
        result = runner.invoke(
            main, ["score", "--programs", str(tmp_path), "--k", "1"]
        )
        assert result.exit_code == 1
        assert f"{tmp_path / 'b.mrl'}: unknown command 'fly'" in result.stderr


class TestBaselineCmd:
    def test_rand_baseline(self, runner):
        result = runner.invoke(
            main,
            [
                "baseline",
                "--programs", "pool8",
                "--opponents", "standard-8",
                "--baseline", "rand",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["baseline"] == "Rand"
        assert payload["summary"]["n"] == 10
        assert len(payload["details"]) == 10
        for entry in payload["details"]:
            assert entry["selected"] != entry["program_id"]

    def test_rand_other_pool(self, runner):
        result = runner.invoke(
            main,
            [
                "baseline",
                "--programs", "pool8",
                "--opponents", "standard-8",
                "--baseline", "rand-other",
                "--pool", "pool16",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["baseline"] == "Rand-Other"

    def test_kshot_echo(self, runner):
        result = runner.invoke(
            main,
            [
                "baseline",
                "--programs", "pool8",
                "--opponents", "standard-8",
                "--baseline", "kshot",
                "--k", "1",
                "--map-description", "A small flat map.",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["baseline"] == "k-Shot"
        assert payload["summary"]["metrics"]["action"]["mean"] == 1.0

    def test_unknown_baseline_exits_two(self, runner):
        result = runner.invoke(main, ["baseline", "--baseline", "psychic"])
        assert result.exit_code == 2


class TestReportCmd:
    @pytest.fixture()
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "programs": "pool8",
                    "opponents": "standard-8",
                    "pool_other": "pool16",
                    "provider": {"kind": "mock", "mock": "echo"},
                    "k": 1,
                    "baselines": ["rand"],
                }
            )
        )
        return str(path)

    def test_run_from_config(self, runner, config_file):
        result = runner.invoke(main, ["report", "--config", config_file])
        assert result.exit_code == 0
        assert "| Condition | Action ↑ | Outcome ↑ | Feature ↓ |" in result.output
        assert "| LINT |" in result.output
        assert "| Rand |" in result.output

    def test_config_via_global_option(self, runner, config_file, tmp_path):
        out = tmp_path / "report-out"
        result = runner.invoke(
            main, ["--config", config_file, "--out", str(out), "report"]
        )
        assert result.exit_code == 0
        assert (out / "summary.json").exists()
        assert (out / "summary.md").read_text().startswith("| Condition |")

    def test_rerender_from_summary(self, runner, config_file, tmp_path):
        first = runner.invoke(
            main, ["report", "--config", config_file, "--out", str(tmp_path / "a")]
        )
        assert first.exit_code == 0
        summary = tmp_path / "a" / "summary.json"
        second = runner.invoke(main, ["report", "--summary", str(summary)])
        assert second.exit_code == 0
        assert second.output == (tmp_path / "a" / "summary.md").read_text()

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "is not a JSON object"),
            ({"columns": []}, "KeyError 'rows'"),
            ({"rows": [{"condition": "LINT", "n": 1}]}, "KeyError 'metrics'"),
            (
                {"rows": [{"condition": "LINT", "n": 1, "metrics": {}}]},
                "KeyError 'action'",
            ),
        ],
    )
    def test_malformed_summary_exits_two(self, runner, tmp_path, data, message):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps(data))
        result = runner.invoke(main, ["report", "--summary", str(summary)])
        assert result.exit_code == 2, result.output
        assert f"summary {summary}" in result.output
        assert message in result.output

    def test_summary_out_that_is_a_file_exits_two(
        self, runner, config_file, tmp_path
    ):
        first = runner.invoke(
            main, ["report", "--config", config_file, "--out", str(tmp_path / "a")]
        )
        assert first.exit_code == 0
        out = tmp_path / "b"
        out.write_text("")
        result = runner.invoke(
            main,
            [
                "report",
                "--summary", str(tmp_path / "a" / "summary.json"),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 2, result.output
        assert f"cannot write to {out}" in result.output
        assert out.read_text() == ""

    def test_rerendered_files_match_table(self, runner, config_file, tmp_path):
        runner.invoke(
            main, ["report", "--config", config_file, "--out", str(tmp_path / "a")]
        )
        out_b = tmp_path / "b"
        result = runner.invoke(
            main,
            [
                "report",
                "--summary", str(tmp_path / "a" / "summary.json"),
                "--out", str(out_b),
            ],
        )
        assert result.exit_code == 0
        full = json.loads((tmp_path / "a" / "summary.json").read_text())
        rerendered = json.loads((out_b / "summary.json").read_text())
        assert rerendered == full["table"]

    def test_rerendered_md_and_csv_equal_the_run_files(
        self, runner, config_file, tmp_path
    ):
        runner.invoke(
            main, ["report", "--config", config_file, "--out", str(tmp_path / "a")]
        )
        result = runner.invoke(
            main,
            [
                "report",
                "--summary", str(tmp_path / "a" / "summary.json"),
                "--out", str(tmp_path / "b"),
            ],
        )
        assert result.exit_code == 0
        for name in ("summary.md", "summary.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (
                tmp_path / "a" / name
            ).read_bytes()

    def test_requires_exactly_one_source(self, runner, config_file, tmp_path):
        neither = runner.invoke(main, ["report"])
        assert neither.exit_code == 2
        summary = tmp_path / "s.json"
        summary.write_text("{}")
        both = runner.invoke(
            main, ["report", "--config", config_file, "--summary", str(summary)]
        )
        assert both.exit_code == 2

    def test_mock_is_only_provider_override(self, runner, config_file):
        allowed = runner.invoke(
            main, ["--provider", "mock", "report", "--config", config_file]
        )
        assert allowed.exit_code == 0
        rejected = runner.invoke(
            main, ["--provider", "replay", "report", "--config", config_file]
        )
        assert rejected.exit_code == 2

    def test_total_failure_exits_one(self, runner, tmp_path):
        path = tmp_path / "failing.json"
        path.write_text(
            json.dumps(
                {
                    "programs": "pool8",
                    "opponents": "standard-8",
                    "provider": {
                        "kind": "mock",
                        "mock": "scripted",
                        "responses": {"explainer": "tagless"},
                    },
                    "k": 1,
                    "baselines": ["rand"],
                }
            )
        )
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 1
        assert "| LINT |" in result.stdout
        assert "every program failed" in result.stderr

    def test_unknown_provider_exits_two(self, runner, tmp_path):
        path = tmp_path / "telepathy.json"
        path.write_text(
            json.dumps(
                {
                    "programs": "pool8",
                    "opponents": "standard-8",
                    "provider": {"kind": "mock", "mock": "telepathy"},
                    "baselines": [],
                }
            )
        )
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 2
        assert "telepathy" in result.output

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", "2"),
            ("k", True),
            ("obfuscation_levels", 1),
            ("obfuscation_levels", [True]),
            ("literal_min", 1),
            ("programs", 8),
            ("baselines", "rand"),
            ("provider", ["mock"]),
            ("map_description", 3),
        ],
    )
    def test_mistyped_field_exits_two(self, runner, tmp_path, field, value):
        path = tmp_path / "typed.json"
        config = {"programs": "pool8", "opponents": "standard-8", "baselines": []}
        config[field] = value
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 2
        assert f"config field {field!r} must be" in result.output

    def test_line_drop_q_out_of_range_exits_two(self, runner, tmp_path):
        path = tmp_path / "drop.json"
        path.write_text(
            json.dumps(
                {
                    "programs": "pool8",
                    "opponents": "standard-8",
                    "provider": {"kind": "mock", "mock": "line-drop", "q": 1.5},
                    "baselines": [],
                }
            )
        )
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 2
        assert "q must be in [0, 1], got 1.5" in result.output

    @pytest.mark.parametrize(
        "provider, message",
        [
            (
                {"kind": "replay-cache"},
                "replay-cache provider config needs 'directory'",
            ),
            (
                {"kind": "replay-cache", "directory": ".", "temperature": [0.2]},
                "temperature must be a number, not [0.2]",
            ),
            (
                {"kind": "http", "endpoint": "http://127.0.0.1:1/", "model": "m",
                 "timeout": "soon"},
                "timeout must be a number, not 'soon'",
            ),
        ],
    )
    def test_malformed_provider_exits_two(self, runner, tmp_path, provider, message):
        path = tmp_path / "provider.json"
        path.write_text(
            json.dumps(
                {
                    "programs": "pool8",
                    "opponents": "standard-8",
                    "provider": provider,
                    "baselines": [],
                }
            )
        )
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize(
        "field, value", [("max_retries", -1), ("max_retries", 0), ("workers", 0)]
    )
    def test_count_below_one_exits_two(self, runner, tmp_path, field, value):
        path = tmp_path / "counts.json"
        config = {"programs": "pool8", "opponents": "standard-8", "baselines": []}
        config[field] = value
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 2
        assert f"{field} must be >= 1" in result.output

    def test_non_object_config_exits_two(self, runner, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 2
        assert "not a JSON object" in result.output

    @pytest.mark.parametrize("defect", ["no-programs", "unknown-key", "no-policy-file"])
    def test_malformed_descriptor_exits_two(self, runner, tmp_path, defect):
        path, message = bad_descriptor(tmp_path, defect)
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"programs": "pool8", "opponents": path, "baselines": []})
        )
        result = runner.invoke(main, ["report", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert f"opponent set {path}" in result.output
        assert message in result.output

    def test_unscorable_track_exits_two(self, runner, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "programs": "pool8",
                    "opponents": "standard-8",
                    "track": "c-problems",
                    "baselines": [],
                }
            )
        )
        result = runner.invoke(main, ["report", "--config", str(path)])
        assert result.exit_code == 2
        assert "c-problems" in result.output
        assert "| LINT |" not in result.output


class TestGlobalOptions:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert __version__ in result.output

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in (
            "parse",
            "simulate",
            "metric",
            "io-metric",
            "obfuscate",
            "score",
            "baseline",
            "report",
        ):
            assert name in result.output

    def test_unknown_command_exits_two(self, runner):
        result = runner.invoke(main, ["transmogrify"])
        assert result.exit_code == 2


JSON_DEFECTS = ("missing", "directory", "not-utf8", "not-json", "not-object")
SCORE8 = ["score", "--programs", "pool8", "--opponents", "standard-8", "--k", "1"]
COPY = f'{sys.executable} -c "print(input())"'
POLICY = str(data_path("policies", "pool8", "q01.mrl"))

# input kind -> (its file under tmp_path, the command line that reads it,
# the defects that apply to it)
INPUT_KINDS = {
    "policy": (
        "p.mrl", lambda f: ["parse", str(f)], ("missing", "directory", "not-utf8")
    ),
    "programs-file": (
        "pool/x.mrl",
        lambda f: ["score", "--programs", str(f.parent), "--opponents", "standard-8"],
        ("directory", "not-utf8"),
    ),
    "map": (
        "m.json",
        lambda f: ["simulate", "--p0", POLICY, "--p1", POLICY, "--map", str(f)],
        JSON_DEFECTS,
    ),
    "config": ("c.json", lambda f: ["report", "--config", str(f)], JSON_DEFECTS),
    "provider-config": (
        "p.json",
        lambda f: SCORE8 + ["--provider", "http", "--provider-config", str(f)],
        JSON_DEFECTS,
    ),
    "summary": ("s.json", lambda f: ["report", "--summary", str(f)], JSON_DEFECTS),
    "cache-manifest": (
        "cache/manifest.json",
        lambda f: SCORE8 + ["--provider", "replay", "--cache-dir", str(f.parent)],
        JSON_DEFECTS[1:],
    ),
    "suite-file": (
        "suite/0.txt",
        lambda f: ["io-metric", "--reference", COPY, "--candidate", COPY,
                   "--suite", str(f.parent)],
        ("not-utf8",),
    ),
}


class TestInputFiles:
    """Any input file that cannot be read, is not UTF-8 or is not the JSON
    object expected exits 2 with a message naming it."""

    @pytest.mark.parametrize(
        "kind, defect",
        [
            (kind, defect)
            for kind, (_, _, defects) in INPUT_KINDS.items()
            for defect in defects
        ],
    )
    def test_defective_input_exits_two(self, runner, tmp_path, kind, defect):
        name, command, _ = INPUT_KINDS[kind]
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        make_defective(path, defect)
        result = runner.invoke(main, command(path))
        assert result.exit_code == 2, result.output
        assert "cannot read " in result.output
        assert str(path) in result.output
