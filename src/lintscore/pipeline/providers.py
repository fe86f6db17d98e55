"""Language-model providers: live HTTP, mocks, and one response cache.

Every completion is addressed by ``cache_key(model, prompt, trial)`` so that
responses can be recorded once and replayed byte-for-byte.  Mock and replay
providers are pure functions of (prompt, trial).  :class:`CachingProvider`
alone reads and writes a cache directory: it records around a live or mock
provider and, with none, replays.  A replay takes the model and temperature
it is not given from the directory's ``manifest.json``, and no cache accepts
a temperature other than the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from ..resources import read_json, read_text


class ProviderError(RuntimeError):
    """A provider failed to produce a completion."""


@dataclass(frozen=True)
class PromptRequest:
    """One completion request.

    ``role`` names the pipeline stage (explainer, verifier, reconstructor,
    kshot).  ``program_source`` and ``explanation`` duplicate material already
    substituted into ``prompt``; mock providers use them to build structured
    responses without re-parsing the prompt text.
    """

    role: str
    prompt: str
    trial: int = 0
    program_source: str = ""
    explanation: str = ""


MANIFEST = "manifest.json"


def cache_key(model: str, prompt: str, trial: int) -> str:
    digest = hashlib.sha256()
    digest.update(model.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(trial).encode("ascii"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class Provider:
    """Base class for completion providers."""

    kind: str = "base"
    model: str = "unknown"
    temperature: float | None = None

    def complete(self, request: PromptRequest) -> str:
        raise NotImplementedError


class HttpProvider(Provider):
    """Chat-completion provider speaking the common JSON-over-HTTP shape.

    The API key is read from the environment (``LINT_API_KEY`` by default)
    at request time, never stored in config files.
    """

    kind = "http"

    def __init__(
        self,
        endpoint: str,
        model: str,
        temperature: float = 0.0,
        timeout: float = 60.0,
        api_key_env: str = "LINT_API_KEY",
    ) -> None:
        # checked here: the HTTP library would refuse it only at the first call
        if not (math.isfinite(timeout) and timeout > 0):
            raise ProviderError(
                f"http provider: timeout must be a finite positive number of "
                f"seconds, not {timeout!r}"
            )
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.api_key_env = api_key_env

    def complete(self, request: PromptRequest) -> str:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": self.temperature,
        }
        import requests  # here, so that only this provider pays for the import
        try:
            response = requests.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise ProviderError(f"request to {self.endpoint} failed: {exc}") from exc
        if response.status_code != 200:
            raise ProviderError(
                f"provider returned HTTP {response.status_code}: {response.text[:200]}"
            )
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        # chat APIs send a null content for refusals and tool calls
        if not isinstance(content, str):
            raise ProviderError(
                "malformed provider response: "
                f"content {content!r:.200} is not a string"
            )
        return content


class CachingProvider(Provider):
    """The response cache: one ``{cache_key}.txt`` file per completion.

    With an ``inner`` provider a miss is completed by it and written through;
    with none (:class:`ReplayCacheProvider`) a miss is an error.  Writes go
    through a temp file and an atomic rename, so lock-free readers never see
    partial responses.  The first write into a directory without a manifest
    records the model and, when there is one, the temperature in one.

    A recording takes its model and temperature from ``inner``, a replay
    those it is not given from the manifest.  ``cache_key`` does not cover
    the temperature, so a manifest naming another one is refused.
    """

    def __init__(
        self,
        directory: str | Path,
        inner: Provider | None = None,
        model: str | None = None,
        temperature: float | None = None,
    ) -> None:
        self.inner = inner
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise ProviderError(f"cache directory {self.directory} is not a directory")
        manifest = _read_manifest(self.directory)
        recorded = manifest.get("temperature")
        if inner is not None:
            model, temperature = inner.model, inner.temperature
        else:
            model = manifest.get("model", "replay") if model is None else model
            temperature = recorded if temperature is None else temperature
        if recorded is not None and recorded != temperature:
            raise ProviderError(
                f"cache directory {self.directory} was recorded at temperature "
                f"{recorded}, not {temperature}"
            )
        self.model = model
        self.temperature = temperature

    @property
    def kind(self) -> str:  # type: ignore[override]
        return "replay-cache" if self.inner is None else self.inner.kind

    def complete(self, request: PromptRequest) -> str:
        key = cache_key(self.model, request.prompt, request.trial)
        path = self.directory / f"{key}.txt"
        if path.exists():
            return read_text(path, f"cached response {path}", ProviderError)
        if self.inner is None:
            raise ProviderError(
                f"replay cache miss for role={request.role} trial={request.trial} "
                f"key={key}"
            )
        response = self.inner.complete(request)
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, response)
        manifest = self.directory / MANIFEST
        if not manifest.exists():
            entry = {"model": self.model}
            if self.temperature is not None:
                entry["temperature"] = self.temperature
            _atomic_write(manifest, json.dumps(entry) + "\n")
        return response


class ReplayCacheProvider(CachingProvider):
    """A response cache with no inner provider, for deterministic replays."""


def _read_manifest(directory: Path) -> dict:
    """``directory``'s manifest, or ``{}`` when it has none."""
    path = directory / MANIFEST
    if not path.exists():
        return {}
    manifest = read_json(path, f"cache manifest {path}", ProviderError)
    if not isinstance(manifest.get("model"), str):
        raise ProviderError(f"cache manifest {path} names no model")
    return manifest


def _atomic_write(path: Path, text: str) -> None:
    import tempfile  # only a caching provider writes files

    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, delete=False, suffix=".tmp"
    )
    try:
        handle.write(text)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        os.unlink(handle.name)
        raise


def make_provider(config: dict) -> Provider:
    """Build a provider from a config mapping.

    Recognized shapes::

        {"kind": "http", "endpoint": ..., "model": ..., "temperature": 0.0,
         "timeout": 60, "api_key_env": "LINT_API_KEY", "cache": "runs/cache"}
        {"kind": "replay-cache", "directory": "runs/cache",
         "model": <optional>, "temperature": <optional>}
        {"kind": "mock", "mock": "echo" | "empty" | "line-drop" | "scripted",
         "q": 0.2, "seed": 7, "responses": {...}}
    """

    from . import mocks

    kind = config.get("kind")
    if kind == "http":
        provider: Provider = HttpProvider(
            endpoint=_required(config, "endpoint"),
            model=_required(config, "model"),
            temperature=_number(config, "temperature", 0.0),
            timeout=_number(config, "timeout", 60.0),
            api_key_env=config.get("api_key_env", "LINT_API_KEY"),
        )
    elif kind == "replay-cache":
        return ReplayCacheProvider(
            _required(config, "directory"),
            model=config.get("model"),
            temperature=_number(config, "temperature", None),
        )
    elif kind == "mock":
        name = config.get("mock", "echo")
        if name == "echo":
            provider = mocks.EchoProvider()
        elif name == "empty":
            provider = mocks.EmptyProvider()
        elif name == "line-drop":
            try:
                provider = mocks.LineDropProvider(
                    q=float(config.get("q", 0.0)), seed=int(config.get("seed", 0))
                )
            except (TypeError, ValueError) as exc:
                raise ProviderError(f"line-drop mock: {exc}") from exc
        elif name == "scripted":
            provider = mocks.ScriptedProvider(config.get("responses", {}))
        else:
            raise ProviderError(f"unknown mock provider {name!r}")
    else:
        raise ProviderError(f"unknown provider kind {kind!r}")
    cache_dir = config.get("cache")
    if cache_dir:
        provider = CachingProvider(cache_dir, provider)
    return provider


def _required(config: dict, key: str):
    if key not in config:
        raise ProviderError(f"{config.get('kind')} provider config needs {key!r}")
    return config[key]


def _number(config: dict, key: str, default: float | None) -> float | None:
    """``config[key]`` as a float; ``default`` when absent or ``None``."""
    value = config.get(key)
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ProviderError(
            f"{config.get('kind')} provider config: {key} must be a number, "
            f"not {value!r}"
        ) from exc
