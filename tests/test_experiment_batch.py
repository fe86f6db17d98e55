"""``run_experiment`` measures every row's pairs in one batch.

Every provider call and baseline pick comes first, then one ``compare``
call measures the pairs of every row, then Closest-Feature, whose picks
read the matches that batch played, measures its own pairs; the rows are
built last.  The pins below were taken while each row was still measured
in a batch of its own, so they show that the bytes and the order of the
provider calls did not move.
"""
import hashlib
import json

import pytest

from lintscore.harness import BASELINE_KEYS, ExperimentConfig, run_experiment
from lintscore.metrics import behavior
from lintscore.pipeline import MockProvider
from lintscore.resources import data_path

# pool8 against standard-8: line-drop reconstructions, both obfuscation
# levels, every baseline and per-unit action scores
PIN_CONFIG = dict(
    programs="pool8",
    opponents="standard-8",
    pool_other="pool16",
    provider={"kind": "mock", "mock": "line-drop", "q": 0.3, "seed": 4},
    k=2,
    obfuscation_levels=[1, 2],
    per_unit=True,
)
# SHA-256 of each summary file and, under "runs", of every runs/*/*.json
# file by relative path
BYTE_PINS = {
    "summary.json": "85a9e0455d556a084883e7d611b570673c17fe57005dcfb3a4b0224e15b983c7",
    "summary.md": "3817556ec4621da2a444c52ad20680548b709458375102cd7d39e68e35f4e95f",
    "summary.csv": "728e3c07c3d7372c90263ac7e49703bd07fc528ec669b2c0a1e90f26c464a8ce",
    "runs": "109cd1af7292ceb21497072eff16df49754a5ed7f823a3773e73bb5bde704ae6",
}
# SHA-256 of the JSON list of (role, trial, program source) of every
# provider call, in call order
CALL_ORDER_PIN = "956aa95c90d868668e9215c7f93254b8e26a17a1ef7ba4cff17c9b14dc634bff"


def output_digests(out):
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("summary.json", "summary.md", "summary.csv")
    }
    runs = hashlib.sha256()
    for path in sorted((out / "runs").glob("*/*.json")):
        runs.update(path.relative_to(out).as_posix().encode())
        runs.update(b"\0")
        runs.update(path.read_bytes())
        runs.update(b"\0")
    digests["runs"] = runs.hexdigest()
    return digests


def test_per_unit_bytes_pinned(tmp_path):
    run_experiment(ExperimentConfig(**PIN_CONFIG)).write(tmp_path)
    assert output_digests(tmp_path) == BYTE_PINS


def call_order(monkeypatch):
    """Record (role, trial, program source) of every mock provider call."""
    calls = []
    complete = MockProvider.complete

    def recording(self, request):
        calls.append((request.role, request.trial, request.program_source))
        return complete(self, request)

    monkeypatch.setattr(MockProvider, "complete", recording)
    return calls


def test_provider_call_order_pinned(monkeypatch):
    calls = call_order(monkeypatch)
    run_experiment(ExperimentConfig(**PIN_CONFIG))
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == CALL_ORDER_PIN


@pytest.mark.parametrize("cpus", [None, 1])
@pytest.mark.parametrize(
    "baselines, batches",
    [
        (list(BASELINE_KEYS), 2),
        ([key for key in BASELINE_KEYS if key != "closest-feature"], 1),
    ],
)
def test_one_batch_per_experiment(monkeypatch, cpus, baselines, batches):
    """One ``_measure`` for every row, and one more for Closest-Feature,
    at the CPU count this process has and at one CPU.  A fresh opponent
    set keeps no report, so every pair is measured."""
    if cpus is not None:
        monkeypatch.setattr(behavior, "_cpu_count", lambda: cpus)
    measured = []
    measure = behavior._measure

    def counting(todo, oset, per_unit):
        measured.append(len(todo))
        return measure(todo, oset, per_unit)

    monkeypatch.setattr(behavior, "_measure", counting)
    cfg = dict(PIN_CONFIG, baselines=baselines, k=1, obfuscation_levels=[1])
    cfg["opponents"] = str(data_path("opponents8.json"))
    cfg["map_description"] = "BaseWorkers-8x8"
    run_experiment(ExperimentConfig(**cfg))
    assert len(measured) == batches
