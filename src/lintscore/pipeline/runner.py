"""Explainer → verifier → reconstructor orchestration and score aggregation.

One accepted explanation per program feeds k reconstruction trials; per-trial
behavior reports aggregate conservatively (minimum for the similarity metrics,
maximum for the feature distance), and a program whose explanation or trials
fail contributes the worst possible values rather than aborting the batch.
"""

from __future__ import annotations

from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from ..metrics.behavior import BehaviorReport, compare, compare_all
from ..metrics.opponents import OpponentSet
from ..microlang import ParseError, Program, parse, print_program
from .prompts import PromptBundle, extract_tag
from .providers import PromptRequest, Provider, ProviderError, cache_key

WORST = {"action": 0.0, "outcome": 0.0, "feature": 1.0}
METRICS = ("action", "outcome", "feature")


class VerifierExhausted(Exception):
    """Every explanation attempt was rejected by the verifier."""

    def __init__(self, verdicts: list["Verdict"]) -> None:
        super().__init__(
            f"verifier rejected all {len(verdicts)} explanation attempts"
        )
        self.verdicts = verdicts


@dataclass(frozen=True)
class Verdict:
    """One verifier decision.  A response without a leading yes/no is an
    unparseable verdict: treated as a rejection and flagged."""

    accept: bool
    rationale: str
    unparseable: bool = False

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Trial:
    """One reconstruction trial and its behavior scores."""

    trial: int
    source: str | None
    action: float
    outcome: float
    feature: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.source is None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class LintRun:
    """Full record of scoring one program."""

    program_id: str
    source: str
    explanation: str | None
    verdicts: list[Verdict]
    trials: list[Trial]
    aggregated: dict[str, float]
    error: str | None
    provenance: dict

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KshotResult:
    """Best-of-k sample from the map-description-only prompt."""

    report: BehaviorReport
    best_trial: int
    trials: tuple[Trial, ...]


class _Tracker(Provider):
    """Pass-through provider that records issued cache keys for provenance."""

    def __init__(self, provider: Provider) -> None:
        self.provider = provider
        self.kind = provider.kind
        self.model = provider.model
        self.keys: list[dict] = []

    def complete(self, request: PromptRequest) -> str:
        self.keys.append(
            {
                "role": request.role,
                "trial": request.trial,
                "key": cache_key(self.provider.model, request.prompt, request.trial),
            }
        )
        return self.provider.complete(request)


def parse_verdict(response: str) -> Verdict:
    """Leading 'yes' → reject (jargon found), leading 'no' → accept."""

    text = response.strip()
    leading = ""
    for char in text:
        if char.isalpha():
            leading += char
        else:
            break
    token = leading.lower()
    if token == "yes":
        return Verdict(accept=False, rationale=text)
    if token == "no":
        return Verdict(accept=True, rationale=text)
    return Verdict(
        accept=False,
        rationale=f"unparseable verdict: {text[:200]}",
        unparseable=True,
    )


def verify(
    explanation: str,
    program: Program,
    bundle: PromptBundle,
    provider: Provider,
    trial: int = 0,
) -> Verdict:
    """Ask the verifier whether the explanation leaks programming jargon."""

    source = print_program(program)
    prompt = bundle.render_verifier(source, explanation)
    response = provider.complete(
        PromptRequest(
            "verifier",
            prompt,
            trial,
            program_source=source,
            explanation=explanation,
        )
    )
    return parse_verdict(response)


def explain(
    program: Program,
    bundle: PromptBundle,
    provider: Provider,
    max_retries: int = 3,
) -> tuple[str, list[Verdict]]:
    """Sample explanations until the verifier accepts one.

    Each attempt submits a fresh explainer prompt (trial index = attempt) and
    one verifier call; a response without an ``<explanation>`` tag counts as a
    rejected attempt.  Raises VerifierExhausted after ``max_retries``
    rejections.
    """

    source = print_program(program)
    prompt = bundle.render_explainer(source)
    verdicts: list[Verdict] = []
    for attempt in range(max_retries):
        response = provider.complete(
            PromptRequest("explainer", prompt, attempt, program_source=source)
        )
        explanation = extract_tag(response, "explanation")
        if explanation is None:
            verdicts.append(
                Verdict(
                    accept=False,
                    rationale="response missing <explanation> tag",
                    unparseable=True,
                )
            )
            continue
        verdict = verify(explanation, program, bundle, provider, trial=attempt)
        verdicts.append(verdict)
        if verdict.accept:
            return explanation, verdicts
    raise VerifierExhausted(verdicts)


def _sample(
    role: str, prompt: str, provider: Provider, k: int, **context: str
) -> list[Program | str]:
    """k completions of one prompt, each a parsed program or a named failure.

    A completion's ``<strategy>`` body is parsed as a Microlanguage program; a
    missing tag falls back to the raw response text.  A provider error or an
    unparseable completion becomes its error message, never a retry.
    """

    samples: list[Program | str] = []
    for index in range(k):
        try:
            response = provider.complete(
                PromptRequest(role, prompt, index, **context)
            )
        except ProviderError as exc:
            samples.append(f"provider error: {exc}")
            continue
        body = extract_tag(response, "strategy")
        try:
            samples.append(parse(response if body is None else body))
        except ParseError as exc:
            samples.append(f"parse error: {exc}")
    return samples


def _score_samples(
    pi: Program,
    samples: list[Program | str],
    oset: OpponentSet,
    per_unit: bool = False,
) -> list[Trial]:
    """One trial per sample, scored against ``pi``; failures score WORST."""

    trials: list[Trial] = []
    for index, sample in enumerate(samples):
        if isinstance(sample, str):
            trials.append(Trial(index, None, **WORST, error=sample))
            continue
        report = compare(pi, sample, oset, per_unit=per_unit)
        trials.append(
            Trial(
                index,
                print_program(sample),
                report.action,
                report.outcome,
                report.feature,
            )
        )
    return trials


def reconstruct(
    explanation: str,
    bundle: PromptBundle,
    provider: Provider,
    k: int,
) -> list[Program | str]:
    """Draw k independent reconstructions from one explanation: trial i is a
    parsed program or the error that stopped it (see ``_sample``)."""

    prompt = bundle.render_reconstructor(explanation)
    return _sample("reconstructor", prompt, provider, k, explanation=explanation)


def aggregate_trials(
    trials: list[Trial], literal_min: bool = False
) -> dict[str, float]:
    """Min over trials for action/outcome; max for the feature distance.

    ``literal_min`` applies the minimum rule to all three metrics instead.
    Failed trials already carry worst-case values, so they dominate the
    aggregation as required.
    """

    if not trials:
        return dict(WORST)
    result = {
        "action": min(t.action for t in trials),
        "outcome": min(t.outcome for t in trials),
    }
    features = [t.feature for t in trials]
    result["feature"] = min(features) if literal_min else max(features)
    return result


def score_program(
    program: Program,
    program_id: str,
    oset: OpponentSet,
    bundle: PromptBundle,
    provider: Provider,
    *,
    k: int = 5,
    max_retries: int = 3,
    literal_min: bool = False,
    per_unit: bool = False,
) -> LintRun:
    """Run the full explain/verify/reconstruct/score loop for one program:
    :func:`lint_score` of that program alone.

    Failures (provider errors, verifier exhaustion) are recorded on the run
    and scored as worst-case rather than raised, so a batch never aborts on
    one bad program.
    """

    _, runs = lint_score(
        [(program_id, program)],
        oset,
        bundle,
        provider,
        k=k,
        max_retries=max_retries,
        literal_min=literal_min,
        per_unit=per_unit,
    )
    return runs[0]


def _draw(
    program: Program,
    program_id: str,
    oset: OpponentSet,
    bundle: PromptBundle,
    provider: Provider,
    k: int,
    max_retries: int,
    literal_min: bool,
) -> tuple[LintRun, list[Program | str]]:
    """Every provider call for one program: its run, with no trials scored
    yet, and its reconstruction samples (none without an explanation)."""

    tracker = _Tracker(provider)
    started = _now() if provider.kind == "http" else None
    explanation: str | None = None
    verdicts: list[Verdict] = []
    samples: list[Program | str] = []
    error: str | None = None

    try:
        explanation, verdicts = explain(
            program, bundle, tracker, max_retries=max_retries
        )
    except VerifierExhausted as exc:
        verdicts = exc.verdicts
        error = str(exc)
    except ProviderError as exc:
        error = f"provider error: {exc}"
    if explanation is not None:
        samples = reconstruct(explanation, bundle, tracker, k)

    provenance = {
        "provider": provider.kind,
        "model": provider.model,
        "k": k,
        "max_retries": max_retries,
        "literal_min": literal_min,
        "opponents": oset.name,
        "started_at": started,
        "finished_at": None,
        "cache_keys": tracker.keys,
    }
    return LintRun(
        program_id=program_id,
        source=print_program(program),
        explanation=explanation,
        verdicts=verdicts,
        trials=[],
        aggregated=dict(WORST),
        error=error,
        provenance=provenance,
    ), samples


def measure_samples(
    batch: Iterable[tuple[Program, list[Program | str]]],
    oset: OpponentSet,
    per_unit: bool = False,
) -> None:
    """Measure every parsed sample against its π in one :func:`compare_all`
    batch, so that scoring the samples afterwards only reads reports."""

    compare_all(
        [
            (pi, sample)
            for pi, samples in batch
            for sample in samples
            if not isinstance(sample, str)
        ],
        oset,
        per_unit,
    )


def lint_score(
    programs: list[tuple[str, Program]],
    oset: OpponentSet,
    bundle: PromptBundle,
    provider: Provider,
    *,
    k: int = 5,
    max_retries: int = 3,
    literal_min: bool = False,
    per_unit: bool = False,
    workers: int = 1,
) -> tuple[dict[str, float], list[LintRun]]:
    """LINT score of a program set: mean aggregated value per metric.

    Three phases: every program's provider calls (explain, verify,
    reconstruct), with up to ``workers`` programs' calls in flight at once
    on threads and each program's trials in sequence; one
    :func:`compare_all` batch over every (π, trial) pair, whose simulation
    uses every CPU this process may run on (``taskset -c 0`` pins it to one
    shard); then trials and aggregates, in input order.  Results are
    identical at any ``workers`` and any CPU count.
    """

    if not programs:
        raise ValueError("program set must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    def draw(item: tuple[str, Program]) -> tuple[LintRun, list[Program | str]]:
        ident, program = item
        return _draw(
            program, ident, oset, bundle, provider, k, max_retries, literal_min
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            drawn = list(pool.map(draw, programs))
    else:
        drawn = [draw(item) for item in programs]

    measure_samples(
        ((program, samples) for (_, program), (_, samples) in zip(programs, drawn)),
        oset,
        per_unit,
    )

    runs = []
    for (_, program), (run, samples) in zip(programs, drawn):
        if run.explanation is not None:
            run.trials = _score_samples(program, samples, oset, per_unit)
            run.aggregated = aggregate_trials(run.trials, literal_min=literal_min)
        if provider.kind == "http":
            run.provenance["finished_at"] = _now()
        runs.append(run)

    score = {
        metric: sum(run.aggregated[metric] for run in runs) / len(runs)
        for metric in METRICS
    }
    return score, runs


def kshot_samples(
    map_description: str,
    bundle: PromptBundle,
    provider: Provider,
    k: int,
    pi: Program,
) -> list[Program | str]:
    """k programs sampled from the map description alone, for comparison
    with ``pi`` (see ``_sample``)."""

    if k < 1:
        raise ValueError("k must be >= 1")
    prompt = bundle.render_kshot(map_description)
    return _sample("kshot", prompt, provider, k, program_source=print_program(pi))


def kshot_baseline(
    samples: list[Program | str],
    pi: Program,
    oset: OpponentSet,
    *,
    per_unit: bool = False,
) -> KshotResult:
    """Best of the k-shot samples of ``pi`` (see :func:`kshot_samples`).

    Each sample is compared against ``pi``; the best trial is the one with
    the highest (action, outcome) and lowest feature distance, earliest trial
    winning ties.  Failed samples score worst-case.
    """

    trials = _score_samples(pi, samples, oset, per_unit)
    best = min(trials, key=lambda t: (-t.action, -t.outcome, t.feature, t.trial))
    return KshotResult(
        report=BehaviorReport(best.action, best.outcome, best.feature),
        best_trial=best.trial,
        trials=tuple(trials),
    )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()
