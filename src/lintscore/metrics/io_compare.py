"""Black-box equivalence rate between two executables over an input suite."""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from ..resources import ConfigError, read_text


class ExecFailure(Exception):
    """The reference executable could not be run, or failed, on an input."""


@dataclass
class IoReport:
    value: float
    total: int
    matched: int
    mismatched: list[int] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)  # candidate-side only


def normalize_output(text: str) -> str:
    """Trailing whitespace per line and trailing blank lines are ignored."""
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def _run(command: list[str], input_text: str, timeout: float) -> tuple[str, str | None]:
    """The command's stdout on ``input_text``, and why it failed or None.
    Bytes that are not UTF-8 decode to lone surrogates, so distinct outputs
    stay distinct whatever the locale."""
    import subprocess  # only the io metric runs commands

    try:
        proc = subprocess.run(
            command,
            input=input_text,
            capture_output=True,
            encoding="utf-8",
            errors="surrogateescape",
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "", "timeout"
    except OSError as exc:
        return "", f"cannot run: {exc}"
    if proc.returncode != 0:
        return proc.stdout, f"exit code {proc.returncode}"
    return proc.stdout, None


def io_metric(
    reference: list[str],
    candidate: list[str],
    inputs: list[str],
    timeout: float = 10.0,
) -> IoReport:
    """Fraction of inputs on which both commands print the same normalized
    stdout. A candidate that cannot be run, crashes or times out counts as
    a mismatch and is noted; a reference failure aborts with
    :class:`ExecFailure`.
    """
    matched = 0
    mismatched: list[int] = []
    failures: list[dict] = []
    for index, input_text in enumerate(inputs):
        ref_out, failure = _run(reference, input_text, timeout)
        if failure:
            raise ExecFailure(f"reference failed on input {index}: {failure}")
        cand_out, failure = _run(candidate, input_text, timeout)
        if failure:
            failures.append({"input": index, "reason": failure})
            mismatched.append(index)
        elif normalize_output(ref_out) == normalize_output(cand_out):
            matched += 1
        else:
            mismatched.append(index)
    return IoReport(
        value=matched / len(inputs) if inputs else 1.0,
        total=len(inputs),
        matched=matched,
        mismatched=mismatched,
        failures=failures,
    )


def generate_suite(seed: int, count: int = 20, values_per_line: int = 1) -> list[str]:
    """Deterministic integer input texts: one line, space-separated values."""
    rng = random.Random(seed)
    return [
        " ".join(str(rng.randint(0, 99)) for _ in range(values_per_line)) + "\n"
        for _ in range(count)
    ]


def load_suite(directory: str | Path) -> list[str]:
    """Input texts from a directory, one UTF-8 file per input, name-ordered;
    a directory without files raises FileNotFoundError."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"suite {directory} is not a directory")
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    if not paths:
        raise FileNotFoundError(f"no input files in {directory}")
    return [read_text(p) for p in paths]
