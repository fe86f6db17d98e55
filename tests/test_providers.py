"""Completion providers: keying, caching, replay, HTTP, and the factory.

The HTTP tests run a real loopback server so the wire format (payload,
headers, error handling) is exercised end to end without leaving the host.
"""
import hashlib
import json
import os
import subprocess
import sys
import threading
from datetime import datetime
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import lintscore
from lintscore.microlang import parse
from lintscore.pipeline import (
    CachingProvider,
    EchoProvider,
    EmptyProvider,
    HttpProvider,
    LineDropProvider,
    PromptRequest,
    Provider,
    ProviderError,
    ReplayCacheProvider,
    ScriptedProvider,
    cache_key,
    lint_score,
    make_provider,
)
from lintscore.pipeline.runner import WORST


class TestCacheKey:
    def test_matches_manual_digest(self):
        digest = hashlib.sha256(b"model-x\x003\x00some prompt").hexdigest()
        assert cache_key("model-x", "some prompt", 3) == digest

    def test_distinct_inputs_distinct_keys(self):
        base = cache_key("m", "p", 0)
        assert cache_key("m2", "p", 0) != base
        assert cache_key("m", "p2", 0) != base
        assert cache_key("m", "p", 1) != base

    def test_separator_prevents_field_bleed(self):
        assert cache_key("ab", "c", 0) != cache_key("a", "bc", 0)

    def test_stable_across_calls(self):
        assert cache_key("m", "p", 0) == cache_key("m", "p", 0)


class TestPromptRequest:
    def test_defaults(self):
        request = PromptRequest("explainer", "hello")
        assert request.trial == 0
        assert request.program_source == ""
        assert request.explanation == ""

    def test_frozen(self):
        request = PromptRequest("explainer", "hello")
        with pytest.raises(AttributeError):
            request.trial = 1


def _record(directory, model, prompt, trial, response):
    """Write one cache file the way a recording does; returns its key."""
    key = cache_key(model, prompt, trial)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{key}.txt").write_text(response, encoding="utf-8")
    return key


class TestReplayCacheProvider:
    def test_miss_raises(self, tmp_path):
        provider = ReplayCacheProvider(tmp_path)
        request = PromptRequest("explainer", "never recorded", trial=2)
        with pytest.raises(ProviderError, match="replay cache miss"):
            provider.complete(request)
        with pytest.raises(ProviderError, match="trial=2"):
            provider.complete(request)

    def test_seed_then_hit(self, tmp_path):
        key = _record(tmp_path / "fresh", "replay", "the prompt", 1, "the answer\n")
        provider = ReplayCacheProvider(tmp_path / "fresh")
        assert provider.model == "replay"
        assert (
            provider.complete(PromptRequest("any", "the prompt", trial=1))
            == "the answer\n"
        )
        assert list((tmp_path / "fresh").iterdir()) == [
            tmp_path / "fresh" / f"{key}.txt"
        ]

    def test_trials_are_distinct_recordings(self, tmp_path):
        _record(tmp_path, "replay", "p", 0, "zero")
        _record(tmp_path, "replay", "p", 1, "one")
        provider = ReplayCacheProvider(tmp_path)
        assert provider.complete(PromptRequest("r", "p", trial=0)) == "zero"
        assert provider.complete(PromptRequest("r", "p", trial=1)) == "one"

    def test_custom_model_changes_keys(self, tmp_path):
        _record(tmp_path, "mock-echo", "p", 0, "x")
        assert ReplayCacheProvider(tmp_path, model="mock-echo").complete(
            PromptRequest("r", "p")
        ) == "x"
        with pytest.raises(ProviderError, match="replay cache miss"):
            ReplayCacheProvider(tmp_path).complete(PromptRequest("r", "p"))

    def test_is_a_cache_without_inner_provider(self, tmp_path):
        provider = ReplayCacheProvider(tmp_path)
        assert isinstance(provider, CachingProvider)
        assert provider.inner is None
        assert provider.kind == "replay-cache"
        assert "complete" not in vars(ReplayCacheProvider)

    def test_takes_model_and_temperature_from_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"model": "m", "temperature": 0.7}\n'
        )
        _record(tmp_path, "m", "p", 0, "recorded")
        provider = ReplayCacheProvider(tmp_path)
        assert (provider.model, provider.temperature) == ("m", 0.7)
        assert provider.complete(PromptRequest("r", "p")) == "recorded"
        assert ReplayCacheProvider(tmp_path, temperature=0.7).temperature == 0.7

    def test_other_temperature_is_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"model": "m", "temperature": 0.7}\n'
        )
        with pytest.raises(ProviderError, match="temperature 0.7, not 0.2"):
            ReplayCacheProvider(tmp_path, temperature=0.2)
        with pytest.raises(ProviderError, match="temperature 0.7, not 0.2"):
            make_provider(
                {"kind": "replay-cache", "directory": str(tmp_path),
                 "temperature": 0.2}
            )

    def test_temperature_kept_when_manifest_names_none(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"model": "m"}\n')
        assert ReplayCacheProvider(tmp_path, temperature=0.2).temperature == 0.2
        assert ReplayCacheProvider(tmp_path).temperature is None

    def test_cache_without_inner_provider_scores_a_pool(
        self, tmp_path, pool8, oset8, bundle
    ):
        recorder = CachingProvider(tmp_path, EchoProvider())
        recorded = lint_score(pool8, oset8, bundle, recorder, k=1)
        replay = CachingProvider(tmp_path)
        assert replay.kind == "replay-cache"
        scores, runs = lint_score(pool8, oset8, bundle, replay, k=1)
        assert scores == recorded[0]
        assert [run.error for run in runs] == [None] * len(pool8)
        assert {run.provenance["provider"] for run in runs} == {"replay-cache"}


class _CountingProvider(Provider):
    kind = "mock"
    model = "counting"

    def __init__(self, answer="counted answer"):
        self.calls = 0
        self.answer = answer

    def complete(self, request):
        self.calls += 1
        return self.answer


class TestCachingProvider:
    def test_caching_wrapper_delegates(self, tmp_path):
        wrapped_mock = CachingProvider(tmp_path, EchoProvider())
        assert wrapped_mock.kind == "mock"
        assert wrapped_mock.model == "mock-echo"
        assert wrapped_mock.temperature is None
        wrapped_http = CachingProvider(
            tmp_path, HttpProvider("http://127.0.0.1:1/", "m", temperature=0.3)
        )
        assert wrapped_http.kind == "http"
        assert wrapped_http.model == "m"
        assert wrapped_http.temperature == 0.3

    def test_write_through_then_disk(self, tmp_path):
        inner = _CountingProvider()
        provider = CachingProvider(tmp_path / "cache", inner)
        request = PromptRequest("explainer", "p")
        assert provider.complete(request) == "counted answer"
        assert inner.calls == 1
        assert provider.complete(request) == "counted answer"
        assert inner.calls == 1
        key = cache_key("counting", "p", 0)
        assert (tmp_path / "cache" / f"{key}.txt").read_text() == "counted answer"

    def test_distinct_trials_miss_separately(self, tmp_path):
        inner = _CountingProvider()
        provider = CachingProvider(tmp_path, inner)
        provider.complete(PromptRequest("r", "p", trial=0))
        provider.complete(PromptRequest("r", "p", trial=1))
        assert inner.calls == 2

    def test_preseeded_file_short_circuits(self, tmp_path):
        inner = _CountingProvider()
        key = cache_key("counting", "p", 0)
        (tmp_path / f"{key}.txt").write_text("from disk")
        provider = CachingProvider(tmp_path, inner)
        assert provider.complete(PromptRequest("r", "p")) == "from disk"
        assert inner.calls == 0

    def test_first_write_records_the_model_for_replay(self, tmp_path):
        provider = CachingProvider(tmp_path / "cache", _CountingProvider())
        provider.complete(PromptRequest("r", "p"))
        manifest = tmp_path / "cache" / "manifest.json"
        assert json.loads(manifest.read_text()) == {"model": "counting"}
        replay = ReplayCacheProvider(tmp_path / "cache")
        assert replay.model == "counting"
        assert replay.complete(PromptRequest("r", "p")) == "counted answer"
        assert make_provider(
            {"kind": "replay-cache", "directory": str(tmp_path / "cache")}
        ).model == "counting"

    def test_manifest_kept_once_written(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"model": "first"}\n')
        CachingProvider(tmp_path, _CountingProvider()).complete(
            PromptRequest("r", "p")
        )
        assert manifest.read_text() == '{"model": "first"}\n'

    def test_unreadable_manifest_is_a_provider_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1]")
        with pytest.raises(ProviderError, match="manifest"):
            ReplayCacheProvider(tmp_path)

    def test_first_write_records_the_temperature(self, tmp_path):
        inner = _CountingProvider()
        inner.temperature = 0.7
        CachingProvider(tmp_path, inner).complete(PromptRequest("r", "p"))
        assert json.loads((tmp_path / "manifest.json").read_text()) == {
            "model": "counting",
            "temperature": 0.7,
        }

    def test_mock_manifest_names_no_temperature(self, tmp_path):
        CachingProvider(tmp_path, EchoProvider()).complete(
            PromptRequest("explainer", "p", program_source="x")
        )
        assert (tmp_path / "manifest.json").read_bytes() == (
            b'{"model": "mock-echo"}\n'
        )

    def test_other_temperature_is_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"model": "counting", "temperature": 0.7}\n'
        )
        inner = _CountingProvider()
        inner.temperature = 0.2
        with pytest.raises(ProviderError, match="temperature 0.7"):
            CachingProvider(tmp_path, inner)
        assert inner.calls == 0

    def test_other_temperature_is_refused_by_make_provider(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"model": "m", "temperature": 0.7}\n'
        )
        config = {
            "kind": "http",
            "endpoint": "http://127.0.0.1:1/",
            "model": "m",
            "temperature": 0.2,
            "cache": str(tmp_path),
        }
        with pytest.raises(ProviderError, match="temperature"):
            make_provider(config)
        config["temperature"] = 0.7
        assert make_provider(config).temperature == 0.7

    def test_same_temperature_and_unnamed_temperature_accepted(self, tmp_path):
        inner = _CountingProvider()
        inner.temperature = 0.7
        manifest = tmp_path / "manifest.json"
        for text in (
            '{"model": "counting", "temperature": 0.7}\n',
            '{"model": "counting"}\n',
        ):
            manifest.write_text(text)
            provider = CachingProvider(tmp_path, inner)
            assert provider.complete(PromptRequest("r", "p")) == "counted answer"
            assert manifest.read_text() == text

    def test_unicode_round_trip(self, tmp_path):
        inner = _CountingProvider(answer="héllo → wörld\n")
        provider = CachingProvider(tmp_path, inner)
        request = PromptRequest("r", "p")
        assert provider.complete(request) == "héllo → wörld\n"
        assert provider.complete(request) == "héllo → wörld\n"


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.seen.append(
            {"path": self.path, "headers": dict(self.headers), "body": body}
        )
        if self.path == "/ok":
            payload = {"choices": [{"message": {"content": "hi from server"}}]}
            data = json.dumps(payload).encode()
            self.send_response(200)
        elif self.path == "/notjson":
            data = b"<html>oops</html>"
            self.send_response(200)
        elif self.path == "/nullcontent":
            payload = {"choices": [{"message": {"role": "assistant", "content": None}}]}
            data = json.dumps(payload).encode()
            self.send_response(200)
        elif self.path == "/badshape":
            data = json.dumps({"choices": []}).encode()
            self.send_response(200)
        else:
            data = b"server exploded"
            self.send_response(500)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _url(server, path):
    host, port = server.server_address
    return f"http://{host}:{port}{path}"


class TestHttpProvider:
    def test_success_parses_content(self, http_server, monkeypatch):
        monkeypatch.delenv("LINT_API_KEY", raising=False)
        provider = HttpProvider(_url(http_server, "/ok"), "model-7", temperature=0.25)
        text = provider.complete(PromptRequest("explainer", "what is up"))
        assert text == "hi from server"
        request = http_server.seen[-1]
        body = json.loads(request["body"])
        assert body == {
            "model": "model-7",
            "messages": [{"role": "user", "content": "what is up"}],
            "temperature": 0.25,
        }
        assert "Authorization" not in request["headers"]
        assert request["headers"]["Content-Type"] == "application/json"

    def test_api_key_header_from_env(self, http_server, monkeypatch):
        monkeypatch.setenv("LINT_API_KEY", "sk-test-123")
        provider = HttpProvider(_url(http_server, "/ok"), "m")
        provider.complete(PromptRequest("explainer", "p"))
        headers = http_server.seen[-1]["headers"]
        assert headers["Authorization"] == "Bearer sk-test-123"

    def test_custom_api_key_env(self, http_server, monkeypatch):
        monkeypatch.setenv("OTHER_KEY", "sk-other")
        monkeypatch.delenv("LINT_API_KEY", raising=False)
        provider = HttpProvider(_url(http_server, "/ok"), "m", api_key_env="OTHER_KEY")
        provider.complete(PromptRequest("explainer", "p"))
        assert http_server.seen[-1]["headers"]["Authorization"] == "Bearer sk-other"

    def test_non_200_raises(self, http_server):
        provider = HttpProvider(_url(http_server, "/boom"), "m")
        with pytest.raises(ProviderError, match="HTTP 500"):
            provider.complete(PromptRequest("explainer", "p"))

    def test_non_json_body_raises(self, http_server):
        provider = HttpProvider(_url(http_server, "/notjson"), "m")
        with pytest.raises(ProviderError, match="malformed"):
            provider.complete(PromptRequest("explainer", "p"))

    def test_missing_choices_raises(self, http_server):
        provider = HttpProvider(_url(http_server, "/badshape"), "m")
        with pytest.raises(ProviderError, match="malformed"):
            provider.complete(PromptRequest("explainer", "p"))

    def test_null_content_raises(self, http_server):
        provider = HttpProvider(_url(http_server, "/nullcontent"), "m")
        with pytest.raises(ProviderError) as info:
            provider.complete(PromptRequest("explainer", "p"))
        assert str(info.value) == (
            "malformed provider response: content None is not a string"
        )

    def test_null_content_is_each_programs_provider_error(
        self, http_server, bundle, oset8
    ):
        provider = HttpProvider(_url(http_server, "/nullcontent"), "m")
        programs = [
            ("a", parse("for(Unit u){ u.idle() }")),
            ("b", parse("for(Unit u){ u.attack(Closest) }")),
        ]
        _, runs = lint_score(programs, oset8, bundle, provider, k=1)
        assert [run.error for run in runs] == [
            "provider error: malformed provider response: content None is not a string"
        ] * 2
        assert all(run.aggregated == WORST for run in runs)

    def test_connection_failure_raises(self):
        provider = HttpProvider("http://127.0.0.1:1/", "m", timeout=2.0)
        with pytest.raises(ProviderError, match="failed"):
            provider.complete(PromptRequest("explainer", "p"))

    def test_lint_score_stamps_each_run(self, http_server, bundle, oset8):
        # the answer holds no explanation, so each program's calls end
        # with its one explainer attempt
        provider = HttpProvider(_url(http_server, "/ok"), "m")
        programs = [
            ("a", parse("for(Unit u){ u.idle() }")),
            ("b", parse("for(Unit u){ u.attack(Closest) }")),
        ]
        _, runs = lint_score(programs, oset8, bundle, provider, k=1, max_retries=1)
        stamps = [
            (
                datetime.fromisoformat(run.provenance["started_at"]),
                datetime.fromisoformat(run.provenance["finished_at"]),
            )
            for run in runs
        ]
        assert all(started <= finished for started, finished in stamps)
        # each run's finished_at marks the end of its own calls
        assert stamps[0][1] <= stamps[1][0]


def test_cli_import_leaves_requests_out():
    """Only the http provider needs ``requests``; it imports it per call."""
    src = str(Path(lintscore.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    probe = "import sys, lintscore.cli; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestMakeProvider:
    def test_http_shape(self):
        provider = make_provider(
            {
                "kind": "http",
                "endpoint": "https://api.example/v1/chat",
                "model": "big-model",
                "temperature": 0.5,
                "timeout": 30,
            }
        )
        assert isinstance(provider, HttpProvider)
        assert provider.endpoint == "https://api.example/v1/chat"
        assert provider.model == "big-model"
        assert provider.temperature == 0.5
        assert provider.timeout == 30.0

    def test_http_with_cache_wraps(self, tmp_path):
        provider = make_provider(
            {
                "kind": "http",
                "endpoint": "https://api.example/v1",
                "model": "m",
                "cache": str(tmp_path),
            }
        )
        assert isinstance(provider, CachingProvider)
        assert isinstance(provider.inner, HttpProvider)
        assert provider.kind == "http"

    def test_replay_cache_shape(self, tmp_path):
        provider = make_provider(
            {"kind": "replay-cache", "directory": str(tmp_path), "model": "mock-echo"}
        )
        assert isinstance(provider, ReplayCacheProvider)
        assert provider.model == "mock-echo"
        assert provider.directory == tmp_path

    def test_mock_variants(self):
        assert isinstance(make_provider({"kind": "mock"}), EchoProvider)
        assert isinstance(
            make_provider({"kind": "mock", "mock": "echo"}), EchoProvider
        )
        assert isinstance(
            make_provider({"kind": "mock", "mock": "empty"}), EmptyProvider
        )
        drop = make_provider(
            {"kind": "mock", "mock": "line-drop", "q": 0.2, "seed": 7}
        )
        assert isinstance(drop, LineDropProvider)
        assert drop.q == 0.2
        assert drop.seed == 7
        assert drop.model == "mock-line-drop-q0.2-s7"
        scripted = make_provider(
            {"kind": "mock", "mock": "scripted", "responses": {"verifier": "No."}}
        )
        assert isinstance(scripted, ScriptedProvider)
        assert scripted.responses == {"verifier": "No."}

    def test_mock_with_cache_wraps(self, tmp_path):
        provider = make_provider(
            {"kind": "mock", "mock": "echo", "cache": str(tmp_path)}
        )
        assert isinstance(provider, CachingProvider)
        assert isinstance(provider.inner, EchoProvider)

    def test_replay_cache_temperature(self, tmp_path):
        provider = make_provider(
            {"kind": "replay-cache", "directory": str(tmp_path), "temperature": 0}
        )
        assert provider.temperature == 0.0
        provider = make_provider(
            {"kind": "replay-cache", "directory": str(tmp_path), "temperature": None}
        )
        assert provider.temperature is None

    @pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
    def test_bad_http_timeout_rejected(self, timeout):
        with pytest.raises(ProviderError, match="timeout must be a finite positive"):
            make_provider(
                {"kind": "http", "endpoint": "http://127.0.0.1:1/", "model": "m",
                 "timeout": timeout}
            )
        with pytest.raises(ProviderError, match="timeout must be a finite positive"):
            HttpProvider("http://127.0.0.1:1/", "m", timeout=timeout)

    @pytest.mark.parametrize("q", [1.5, -0.1, "often"])
    def test_bad_line_drop_q_rejected(self, q):
        with pytest.raises(ProviderError, match="line-drop mock"):
            make_provider({"kind": "mock", "mock": "line-drop", "q": q})

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kind": "http", "endpoint": "e", "model": 7},
             "http provider config: model must be a string, not 7"),
            ({"kind": "http", "endpoint": 1, "model": "m"},
             "http provider config: endpoint must be a string, not 1"),
            ({"kind": "http", "endpoint": "e", "model": "m", "api_key_env": 5},
             "http provider config: api_key_env must be a string, not 5"),
            ({"kind": "http", "endpoint": "e", "model": "m", "cache": 5},
             "http provider config: cache must be a string, not 5"),
            ({"kind": "http", "endpoint": "e", "model": "m", "timeout": True},
             "http provider config: timeout must be a number, not True"),
            ({"kind": "http", "endpoint": "e", "model": "m", "temperature": False},
             "http provider config: temperature must be a number, not False"),
            ({"kind": "replay-cache", "directory": 5},
             "replay-cache provider config: directory must be a string, not 5"),
            ({"kind": "replay-cache", "directory": ".", "model": 3},
             "replay-cache provider config: model must be a string, not 3"),
            ({"kind": "mock", "cache": 5},
             "mock provider config: cache must be a string, not 5"),
            ({"kind": "mock", "mock": 5},
             "mock provider config: mock must be a string, not 5"),
            ({"kind": "mock", "mock": "line-drop", "seed": "7"},
             "line-drop mock provider config: seed must be an integer, not '7'"),
            ({"kind": "mock", "mock": "line-drop", "seed": 7.0},
             "line-drop mock provider config: seed must be an integer, not 7.0"),
            ({"kind": "mock", "mock": "line-drop", "q": True},
             "line-drop mock provider config: q must be a number, not True"),
            ({"kind": "mock", "mock": "scripted", "responses": ["No."]},
             "scripted mock provider config: responses must be an object"),
        ],
    )
    def test_mistyped_value_rejected(self, config, message):
        with pytest.raises(ProviderError) as info:
            make_provider(config)
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "config, unknown",
        [
            ({"kind": "http", "endpoint": "e", "model": "m", "temprature": 0.7},
             ["temprature"]),
            ({"kind": "http", "endpoint": "e", "model": "m", "q": 0.2, "mock": "x"},
             ["mock", "q"]),
            ({"kind": "replay-cache", "directory": ".", "cache": "c"}, ["cache"]),
            ({"kind": "replay-cache", "directory": ".", "timeout": 5}, ["timeout"]),
            ({"kind": "mock", "mock": "line-drop", "Q": 0.3}, ["Q"]),
            ({"kind": "mock", "temperature": 0.0}, ["temperature"]),
        ],
    )
    def test_unknown_keys_rejected(self, config, unknown):
        with pytest.raises(ProviderError, match="unknown keys") as info:
            make_provider(config)
        assert str(unknown) in str(info.value)

    def test_null_takes_the_default(self):
        drop = make_provider(
            {"kind": "mock", "mock": "line-drop", "q": None, "seed": None}
        )
        assert (drop.q, drop.seed) == (0.0, 0)
        http = make_provider(
            {"kind": "http", "endpoint": "e", "model": "m", "timeout": None,
             "api_key_env": None, "cache": None}
        )
        assert isinstance(http, HttpProvider)
        assert (http.timeout, http.api_key_env) == (60.0, "LINT_API_KEY")
        with pytest.raises(ProviderError, match="needs 'model'"):
            make_provider({"kind": "http", "endpoint": "e", "model": None})

    def test_integer_numbers_become_floats(self):
        drop = make_provider({"kind": "mock", "mock": "line-drop", "q": 1})
        assert drop.q == 1.0 and isinstance(drop.q, float)

    def test_unknown_mock_rejected(self):
        with pytest.raises(ProviderError, match="unknown mock"):
            make_provider({"kind": "mock", "mock": "telepathy"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProviderError, match="unknown provider kind"):
            make_provider({"kind": "carrier-pigeon"})
        with pytest.raises(ProviderError, match="unknown provider kind"):
            make_provider({})
        with pytest.raises(ProviderError, match="unknown provider kind"):
            make_provider({"kind": ["mock"]})
