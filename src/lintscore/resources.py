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


def policy_sources(directory: str | Path) -> dict[str, str]:
    """Policy texts from a directory, keyed by stem, name-ordered.

    Accepts a bundled pool name (relative to ``data/policies``) or any
    filesystem path.
    """
    root = Path(directory)
    if not root.is_dir():
        candidate = DATA_ROOT / "policies" / root
        if candidate.is_dir():
            root = candidate
        else:
            raise FileNotFoundError(f"no policy directory {directory!r}")
    return {
        path.stem: path.read_text()
        for path in sorted(root.glob("*.mrl"))
    }
