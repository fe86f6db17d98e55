"""Access to bundled fixture data (maps, policies, prompts)."""
from __future__ import annotations

from pathlib import Path

DATA_ROOT = Path(__file__).parent / "data"


class ConfigError(ValueError):
    """The experiment configuration, or a file it names, is invalid."""


def data_path(*parts: str) -> Path:
    path = DATA_ROOT.joinpath(*parts)
    if not path.exists():
        raise FileNotFoundError(f"no bundled resource {'/'.join(parts)!r}")
    return path
