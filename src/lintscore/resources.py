"""Access to bundled fixture data (maps, policies, prompts), and the one
reader of every input file."""
from __future__ import annotations

import json
from pathlib import Path

DATA_ROOT = Path(__file__).parent / "data"


class ConfigError(ValueError):
    """The experiment configuration, or a file it names, is invalid."""


def data_path(*parts: str) -> Path:
    path = DATA_ROOT.joinpath(*parts)
    if not path.exists():
        raise FileNotFoundError(f"no bundled resource {'/'.join(parts)!r}")
    return path


def read_text(path: str | Path, name: str | None = None, error=ConfigError) -> str:
    """The text of ``path``, read as UTF-8.

    A file that is missing, is a directory, cannot be opened or is not UTF-8
    raises ``error("cannot read <name>: <reason>")``: ``name`` is how the
    caller names the file, the path itself by default, and ``error`` an
    exception class or a function that returns the exception to raise.
    """
    name = path if name is None else name
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {name}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {name}: not UTF-8 ({exc})") from exc


def read_json(path: str | Path, name: str | None = None, error=ConfigError) -> dict:
    """The JSON object in ``path``, read by :func:`read_text`; text that is
    not JSON, or not an object (every JSON input is one), raises the same."""
    text = read_text(path, name, error)
    name = path if name is None else name
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise error(f"cannot read {name}: it is not JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise error(f"cannot read {name}: it is not a JSON object")
    return data
