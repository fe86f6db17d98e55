"""Explainer → verifier → reconstructor orchestration and score aggregation.

One accepted explanation per program feeds k reconstruction trials; per-trial
behavior reports aggregate conservatively (minimum for the similarity metrics,
maximum for the feature distance), and a program whose explanation or trials
fail contributes the worst possible values rather than aborting the batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..metrics.behavior import compare
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


def _source(program: Program | str) -> str:
    """A program's printed text; a text is taken as already printed."""

    return program if isinstance(program, str) else print_program(program)


def verify(
    explanation: str,
    program: Program | str,
    bundle: PromptBundle,
    provider: Provider,
    trial: int = 0,
) -> Verdict:
    """Ask the verifier whether the explanation leaks programming jargon.
    ``program`` is the explained program or its printed text."""

    source = _source(program)
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
    program: Program | str,
    bundle: PromptBundle,
    provider: Provider,
    max_retries: int = 3,
) -> tuple[str, list[Verdict]]:
    """Sample explanations until the verifier accepts one.

    ``program`` is the program or its printed text, which every prompt
    shows.  Each attempt submits a fresh explainer prompt (trial index =
    attempt) and one verifier call; a response without an
    ``<explanation>`` tag counts as a rejected attempt.  Raises
    VerifierExhausted after ``max_retries`` rejections.
    """

    source = _source(program)
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
        verdict = verify(explanation, source, bundle, provider, trial=attempt)
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
    unparseable completion becomes its error message, never a retry.  Each
    distinct text is parsed once: completions with equal texts share one
    program, or one error.
    """

    samples: list[Program | str] = []
    # text -> its program or parse error; at most k entries
    parsed: dict[str, Program | str] = {}
    for index in range(k):
        try:
            response = provider.complete(
                PromptRequest(role, prompt, index, **context)
            )
        except ProviderError as exc:
            samples.append(f"provider error: {exc}")
            continue
        body = extract_tag(response, "strategy")
        text = response if body is None else body
        if text not in parsed:
            try:
                parsed[text] = parse(text)
            except ParseError as exc:
                parsed[text] = f"parse error: {exc}"
        samples.append(parsed[text])
    return samples


def score_samples(
    batch: list[tuple[Program, list[Program | str]]],
    oset: OpponentSet,
    per_unit: bool = False,
) -> list[list[Trial]]:
    """The trials of each (π, samples) in ``batch``: sample i becomes trial
    i, scored against its π.  Every parsed sample of the batch is measured
    in one :func:`compare` call, in batch order; a failed sample scores
    WORST and reaches no opponent set."""

    pairs = [
        (pi, sample)
        for pi, samples in batch
        for sample in samples
        if not isinstance(sample, str)
    ]
    reports = iter(compare(pairs, oset, per_unit) if pairs else ())
    scored = []
    for _, samples in batch:
        trials: list[Trial] = []
        for index, sample in enumerate(samples):
            if isinstance(sample, str):
                trials.append(Trial(index, None, **WORST, error=sample))
                continue
            report = next(reports)
            trials.append(
                Trial(
                    index,
                    print_program(sample),
                    report.action,
                    report.outcome,
                    report.feature,
                )
            )
        scored.append(trials)
    return scored


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
    yet, and its reconstruction samples (none without an explanation).  An
    http run is stamped ``started_at`` before the first call and
    ``finished_at`` after the last; other runs keep None in both."""

    tracker = _Tracker(provider)
    source = print_program(program)
    http = provider.kind == "http"
    started = _now() if http else None
    explanation: str | None = None
    verdicts: list[Verdict] = []
    samples: list[Program | str] = []
    error: str | None = None

    try:
        explanation, verdicts = explain(
            source, bundle, tracker, max_retries=max_retries
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
        "finished_at": _now() if http else None,
        "cache_keys": tracker.keys,
    }
    return LintRun(
        program_id=program_id,
        source=source,
        explanation=explanation,
        verdicts=verdicts,
        trials=[],
        aggregated=dict(WORST),
        error=error,
        provenance=provenance,
    ), samples


def draw_runs(
    programs: list[tuple[str, Program]],
    oset: OpponentSet,
    bundle: PromptBundle,
    provider: Provider,
    *,
    k: int,
    max_retries: int,
    literal_min: bool,
    workers: int,
) -> tuple[list[LintRun], list[tuple[Program, list[Program | str]]]]:
    """The first half of :func:`lint_score`: every program's provider calls
    (explain, verify, reconstruct), each program's in sequence.  Returns
    each program's run, with no trials scored yet, and the batch of (π,
    reconstruction samples) for :func:`score_samples`, in input order.
    An http run carries the start and end of its own provider calls as
    ``started_at`` and ``finished_at``.

    With an http provider, up to ``workers`` programs' calls are in flight
    at once on threads; other providers answer from memory or disk, and a
    scripted one in call order, so their calls run one program at a time.
    """

    def draw(item: tuple[str, Program]) -> tuple[LintRun, list[Program | str]]:
        ident, program = item
        return _draw(
            program, ident, oset, bundle, provider, k, max_retries, literal_min
        )

    if workers > 1 and provider.kind == "http":
        # imported only where a run starts threads; shut down before a
        # batch forks
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            drawn = list(pool.map(draw, programs))
    else:
        drawn = [draw(item) for item in programs]
    batch = [
        (program, samples) for (_, program), (_, samples) in zip(programs, drawn)
    ]
    return [run for run, _ in drawn], batch


def finish_runs(
    runs: list[LintRun], trials: list[list[Trial]], literal_min: bool
) -> None:
    """The second half of :func:`lint_score`: give each drawn run its
    trials (see :func:`score_samples`) and their aggregate."""

    for run, scored in zip(runs, trials):
        # a run without an explanation has no trials, which aggregate WORST
        run.trials = scored
        run.aggregated = aggregate_trials(scored, literal_min=literal_min)


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

    Three phases: :func:`draw_runs` makes every provider call (and stamps
    an http run's provenance); one :func:`score_samples` batch measures
    every (π, trial) pair, its simulation using every CPU this process may
    run on (``taskset -c 0`` pins it to one shard); :func:`finish_runs`
    aggregates, in input order, and touches no provider.  Results are
    identical at any ``workers`` and any CPU count.
    """

    if not programs:
        raise ValueError("program set must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    runs, batch = draw_runs(
        programs,
        oset,
        bundle,
        provider,
        k=k,
        max_retries=max_retries,
        literal_min=literal_min,
        workers=workers,
    )
    finish_runs(runs, score_samples(batch, oset, per_unit), literal_min)
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


def kshot_baseline(trials: list[Trial]) -> Trial:
    """The best of one program's k-shot trials (see :func:`kshot_samples`
    and :func:`score_samples`): the highest (action, outcome) and lowest
    feature distance, earliest trial winning ties.  Failed samples score
    worst-case."""

    return min(trials, key=lambda t: (-t.action, -t.outcome, t.feature, t.trial))


def _now() -> str:
    from datetime import datetime, timezone  # only http runs record times

    return datetime.now(timezone.utc).isoformat()
