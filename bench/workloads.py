"""The benchmark's three workloads.

Each workload's setup function loads everything the timed body needs and
returns a ``Prepared``: the body, the number of programs it attempts, and a
function that turns the body's result into a plain-JSON output plus the number
of programs that failed.  ``check`` compares the outputs of one run against
``reference.json``.

Workloads run in a fresh interpreter per repetition (see ``repetition.py``),
so every body starts from an empty match cache.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))

POOL = "pool16"
K = 5
LINE_DROP_Q = 0.2
OBFUSCATION_LEVELS = [1, 2]
# config.json and summary.json embed the replay-cache directory, which is a
# fresh path in every repetition; the report digest hashes this instead.
WORK_PLACEHOLDER = "<work>"


@dataclass
class Prepared:
    """A workload after setup.

    ``body`` is the timed part; ``outcome`` turns its return value into
    (checked output, failed programs) outside the timed region.
    """

    body: Callable[[], object]
    outcome: Callable[[object], tuple[dict, int]]
    attempted: int


def _score_outcome(result: tuple) -> tuple[dict, int]:
    score, runs = result
    return {"score": score}, sum(1 for run in runs if run.error is not None)


def _setup_score(opponents: str, provider) -> Prepared:
    from lintscore.harness import load_opponent_set, load_program_set
    from lintscore.pipeline import lint_score, load_bundle

    programs = load_program_set(POOL)
    oset = load_opponent_set(opponents)
    bundle = load_bundle("microrts")

    def body() -> tuple:
        return lint_score(programs, oset, bundle, provider, k=K, workers=1)

    return Prepared(body, _score_outcome, len(programs))


def setup_score_echo(seed: int, work: Path) -> Prepared:
    from lintscore.pipeline import EchoProvider

    return _setup_score("standard-16", EchoProvider())


def setup_score_linedrop(seed: int, work: Path) -> Prepared:
    from lintscore.pipeline import LineDropProvider

    return _setup_score("standard-8", LineDropProvider(q=LINE_DROP_Q, seed=seed))


def _record_replay_cache(cache: Path, work: Path) -> None:
    """Record every completion the report run will ask for.

    Runs the same experiment through ``CachingProvider(EchoProvider())``
    against a one-opponent, one-tick gauntlet, so the program issues its own
    prompts in its own order while the simulator does almost nothing.
    """
    from lintscore.harness import ExperimentConfig, run_experiment
    from lintscore.resources import data_path

    standard = json.loads(data_path("opponents8.json").read_text())
    descriptor = work / "record-opponents.json"
    descriptor.write_text(
        json.dumps(
            {
                "name": "record",
                "map": str(data_path(standard["map"])),
                "programs": [str(data_path(standard["programs"][0]))],
                "seed": standard["seed"],
                "max_ticks": 1,
            }
        ),
        encoding="utf-8",
    )
    run_experiment(
        ExperimentConfig(
            programs=POOL,
            opponents=str(descriptor),
            provider={"kind": "mock", "mock": "echo", "cache": str(cache)},
            k=K,
            obfuscation_levels=OBFUSCATION_LEVELS,
            map_description="BaseWorkers-8x8",
        )
    )


def setup_report_replay(seed: int, work: Path) -> Prepared:
    from lintscore.harness import (
        ExperimentConfig,
        load_opponent_set,
        load_program_set,
        run_experiment,
    )
    from lintscore.pipeline import load_bundle

    cache = work / "cache"
    _record_replay_cache(cache, work)
    out = work / "out"
    cfg = ExperimentConfig(
        programs=POOL,
        opponents="standard-8",
        provider={
            "kind": "replay-cache",
            "directory": str(cache),
            "model": "mock-echo",
        },
        k=K,
        workers=1,
        obfuscation_levels=OBFUSCATION_LEVELS,
        out=str(out),
    )
    programs = load_program_set(cfg.programs)
    load_bundle(cfg.track)
    # Parses the gauntlet into the process-wide memo that run_experiment
    # resolves "standard-8" through; its match cache is still empty.
    load_opponent_set(cfg.opponents)
    conditions = 1 + len(cfg.obfuscation_levels)
    attempted = len(programs) * (conditions + len(cfg.baselines))

    def outcome(result) -> tuple[dict, int]:
        output = {
            "errors": len(result.errors),
            "digest": output_digest(out, str(work)),
        }
        return output, len(result.errors)

    return Prepared(lambda: run_experiment(cfg), outcome, attempted)


def output_digest(out: Path, work: str) -> str:
    """SHA-256 over every file the experiment wrote, by relative path, with
    the work directory replaced by ``WORK_PLACEHOLDER``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8").replace(work, WORK_PLACEHOLDER)
        digest.update(path.relative_to(out).as_posix().encode())
        digest.update(b"\0")
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


SETUPS = {
    "score-echo-16": setup_score_echo,
    "score-linedrop-8": setup_score_linedrop,
    "report-replay-8": setup_report_replay,
}
DEFAULT_SEED = {"score-linedrop-8": REFERENCE["score-linedrop-8"]["seed"]}


def check(workload: str, seed: int, outputs: list[dict]) -> list[str]:
    """Every way the outputs of one run differ from what they must be."""
    problems = []
    if any(output != outputs[0] for output in outputs):
        problems.append("repetitions disagree")
    ref = REFERENCE[workload]
    pinned = ref.get("seed") in (None, seed)
    for output in outputs:
        if workload == "report-replay-8":
            if output["errors"] != ref["errors"]:
                problems.append(f"{output['errors']} experiment errors")
            if output["digest"] != ref["digest"]:
                problems.append(f"output digest {output['digest']} is not pinned")
        elif pinned and output["score"] != ref["score"]:
            problems.append(f"score {output['score']} is not {ref['score']}")
    return sorted(set(problems))

