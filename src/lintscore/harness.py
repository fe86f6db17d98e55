"""Experiment orchestration: configs, condition sweeps, and summary reports.

An experiment scores a program set with the LLM pipeline (optionally at one
or more obfuscation levels) and measures the reference-point baselines, then
renders one summary table — rows are conditions, columns are the three
behavior metrics with 95% confidence intervals over programs.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .metrics.baselines import closest_feature, closest_syntax, rand_index
from .metrics.behavior import compare, mean_feature_vector
from .metrics.opponents import OpponentSet
from .microlang import ParseError, Program, parse, print_program, syntax_set
from .obfuscate import obfuscate
from .pipeline import (
    LintRun,
    draw_runs,
    finish_runs,
    kshot_baseline,
    kshot_samples,
    load_bundle,
    load_map_description,
    make_provider,
    score_samples,
)
from .resources import ConfigError, data_path, read_json, read_text

METRIC_COLUMNS = ("action", "outcome", "feature")
METRIC_DIRECTION = {"action": "up", "outcome": "up", "feature": "down"}
BASELINE_KEYS = ("rand", "rand-other", "closest-syntax", "closest-feature", "kshot")
BASELINE_LABELS = {
    "rand": "Rand",
    "rand-other": "Rand-Other",
    "closest-syntax": "Closest-Syntax",
    "closest-feature": "Closest-Feature",
    "kshot": "k-Shot",
}
_BUILTIN_POOLS = {"pool16", "pool8"}
# the bundled opponent sets: name -> descriptor file under data/
_STANDARD_OPPONENTS = {
    "standard-16": "opponents16.json",
    "standard-8": "opponents8.json",
}
_standard_cache: dict[str, OpponentSet] = {}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a run (together with the cache)."""

    programs: str = "pool16"
    opponents: str = "standard-16"
    pool_other: str = "pool8"
    provider: dict = field(default_factory=lambda: {"kind": "mock", "mock": "echo"})
    k: int = 5
    seed: int = 0
    max_retries: int = 3
    literal_min: bool = False
    per_unit: bool = False
    workers: int = 1
    track: str = "microrts"
    obfuscation_levels: list[int] = field(default_factory=list)
    baselines: list[str] = field(default_factory=lambda: list(BASELINE_KEYS))
    map_description: str | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        hints = get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, hints[f.name]):
                raise ConfigError(
                    f"config field {f.name!r} must be {f.type}, "
                    f"not {type(value).__name__}"
                )
        unknown = [b for b in self.baselines if b not in BASELINE_KEYS]
        if unknown:
            raise ConfigError(f"unknown baselines: {unknown}")
        for name in ("k", "max_retries", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if any(level not in (1, 2) for level in self.obfuscation_levels):
            raise ConfigError("obfuscation levels must be 1 or 2")
        if self.track != "microrts":
            # The runner samples and scores Microlanguage policies only.
            raise ConfigError(
                f"track {self.track!r} cannot be scored; only 'microrts' can"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config is not a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, f"config {path}"))


def _fits(value, hint) -> bool:
    """Whether ``value`` has the annotated type; a bool is not an int."""
    if get_origin(hint) is UnionType:
        return any(_fits(value, option) for option in get_args(hint))
    origin = get_origin(hint) or hint
    if not isinstance(value, origin) or (
        isinstance(value, bool) and origin is not bool
    ):
        return False
    return origin is not list or all(_fits(v, get_args(hint)[0]) for v in value)


def load_program_set(spec: str) -> list[tuple[str, Program]]:
    """Load a named bundled pool or a directory of ``.mrl`` files, read as
    UTF-8, in name order.

    A file that cannot be read raises :class:`ConfigError`, and a parse
    error, each naming the file.
    """

    if spec in _BUILTIN_POOLS:
        directory = data_path("policies", spec)
    else:
        directory = Path(spec)
        if not directory.is_dir():
            raise ConfigError(f"program set {spec!r} is not a directory")
    paths = sorted(directory.glob("*.mrl"), key=lambda path: path.stem)
    if not paths:
        raise ConfigError(f"no .mrl programs found in {directory}")
    programs = []
    for path in paths:
        text = read_text(path)
        try:
            programs.append((path.stem, parse(text)))
        except ParseError as exc:
            raise type(exc)(f"{path}: {exc.message}", exc.line, exc.col) from exc
    return programs


def load_opponent_set(spec: str) -> OpponentSet:
    """Resolve ``standard-16``/``standard-8`` or a descriptor JSON path.

    A bundled set is loaded once per process and shared, so its match cache
    accumulates across runs; a descriptor is loaded afresh on every call.
    """

    if spec in _STANDARD_OPPONENTS:
        if spec not in _standard_cache:
            _standard_cache[spec] = OpponentSet.from_file(
                data_path(_STANDARD_OPPONENTS[spec])
            )
        return _standard_cache[spec]
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"opponent set {spec!r} not found")
    return OpponentSet.from_file(path)


def resolve_map_description(value: str | None, oset: OpponentSet) -> str:
    """The k-shot map description of a configured ``map_description``:
    the text bundled under that map name, or else the value itself as
    literal text.  Without a value, the description bundled under the name
    of ``oset``'s map; a set whose map has no name, or none bundled, needs
    the value (:class:`ConfigError`)."""

    bundled = [
        path.stem.removeprefix("map_")
        for path in data_path("prompts").glob("map_*.txt")
    ]
    if value is None:
        value = oset.map_data.get("name")
        if value not in bundled:
            raise ConfigError(
                f"map_description is required: opponent set {oset.name!r} "
                f"plays on map {value!r}, which has no bundled description"
            )
    return load_map_description(value) if value in bundled else value


@dataclass(frozen=True)
class Cell:
    mean: float
    ci: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RowSummary:
    label: str
    n: int
    cells: dict[str, Cell]

    def to_json(self) -> dict:
        return {
            "condition": self.label,
            "n": self.n,
            "metrics": {name: cell.to_json() for name, cell in self.cells.items()},
        }


def _confidence(values: list[float]) -> Cell:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return Cell(mean, 0.0)
    stderr = statistics.stdev(values) / math.sqrt(len(values))
    return Cell(mean, 1.96 * stderr)


@dataclass
class SummaryTable:
    """Per-condition metric means with 95% confidence intervals."""

    rows: list[RowSummary]

    @classmethod
    def from_values(
        cls, values: dict[str, dict[str, list[float]]], order: list[str]
    ) -> "SummaryTable":
        rows = []
        for label in order:
            metrics = values[label]
            counts = {len(v) for v in metrics.values()}
            if len(counts) != 1:
                raise ValueError(f"ragged metric lists for {label!r}")
            n = counts.pop()
            cells = {
                name: _confidence(metrics[name]) for name in METRIC_COLUMNS
            }
            rows.append(RowSummary(label, n, cells))
        return cls(rows)

    def to_json(self) -> dict:
        return {
            "columns": list(METRIC_COLUMNS),
            "direction": dict(METRIC_DIRECTION),
            "rows": [row.to_json() for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SummaryTable":
        rows = []
        for entry in data["rows"]:
            metrics = entry["metrics"]
            cells = {
                name: Cell(metrics[name]["mean"], metrics[name]["ci"])
                for name in METRIC_COLUMNS
            }
            rows.append(RowSummary(entry["condition"], entry["n"], cells))
        return cls(rows)

    def markdown(self) -> str:
        arrow = {"up": "↑", "down": "↓"}
        header = "| Condition | " + " | ".join(
            f"{name.capitalize()} {arrow[METRIC_DIRECTION[name]]}"
            for name in METRIC_COLUMNS
        ) + " |"
        rule = "| --- |" + " --- |" * len(METRIC_COLUMNS)
        lines = [header, rule]
        for row in self.rows:
            cells = " | ".join(
                f"{row.cells[name].mean:.3f} ± {row.cells[name].ci:.3f}"
                for name in METRIC_COLUMNS
            )
            lines.append(f"| {row.label} | {cells} |")
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        columns = ["condition", "n"]
        for name in METRIC_COLUMNS:
            columns += [f"{name}_mean", f"{name}_ci"]
        lines = [",".join(columns)]
        for row in self.rows:
            fields = [row.label, str(row.n)]
            for name in METRIC_COLUMNS:
                cell = row.cells[name]
                fields += [repr(cell.mean), repr(cell.ci)]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"


@dataclass
class ExperimentResult:
    """A complete run: the table, every pipeline run, baseline picks."""

    config: ExperimentConfig
    table: SummaryTable
    runs: dict[str, list[LintRun]]
    baseline_details: dict[str, list[dict]]
    errors: list[dict]

    @property
    def total_failure(self) -> bool:
        pipeline_runs = [run for runs in self.runs.values() for run in runs]
        return bool(pipeline_runs) and all(
            run.error is not None for run in pipeline_runs
        )

    def summary_json(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "table": self.table.to_json(),
            "errors": list(self.errors),
        }

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write summary.{json,md,csv}, config.json, and per-run JSON files.

        All serialization is deterministic: a rerun from the same config and
        cache reproduces every byte.
        """

        out = Path(out_dir)
        paths = write_summary(out, self.table, self.summary_json())
        paths["config"] = out / "config.json"
        dump_json(paths["config"], self.config.to_dict())
        for condition, runs in sorted(self.runs.items()):
            run_dir = make_dir(out / "runs" / condition)
            for run in runs:
                dump_json(run_dir / f"{run.program_id}.json", run.to_json())
        if self.baseline_details:
            dump_json(out / "baselines.json", self.baseline_details)
        return paths


def write_summary(
    out_dir: str | Path, table: SummaryTable, data: dict
) -> dict[str, Path]:
    """Write ``data`` as summary.json and ``table`` as summary.{md,csv}."""
    out = make_dir(out_dir)
    paths = {
        "summary_json": out / "summary.json",
        "summary_md": out / "summary.md",
        "summary_csv": out / "summary.csv",
    }
    dump_json(paths["summary_json"], data)
    paths["summary_md"].write_text(table.markdown(), encoding="utf-8")
    paths["summary_csv"].write_text(table.csv(), encoding="utf-8")
    return paths


def dump_json(path: Path, data) -> None:
    """Write ``data`` as the project's one JSON file format: 2-space indent,
    sorted keys, a final newline, UTF-8; :class:`ConfigError` if it cannot."""
    try:
        path.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def make_dir(path: str | Path) -> Path:
    """``path`` as a directory, made if missing; :class:`ConfigError` if it
    cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {path}: {exc.strerror or exc}") from exc
    return path


def _program_rng(seed: int, row: str, program_id: str) -> random.Random:
    return random.Random(f"{seed}|{row}|{program_id}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute every configured condition and assemble the summary table.

    Conditions, in row order: LINT on the originals, LINT at each obfuscation
    level, then the baselines.  Setup comes first and loads every input the
    config names: the programs, the opponent set, the prompt bundle and the
    provider, then ``pool_other`` when ``rand-other`` is on and the map
    description (:func:`resolve_map_description`) when ``kshot`` is on, and
    makes the ``out`` directory, so a bad config raises :class:`ConfigError`
    before any provider call.  Then the run has the three phases of
    :func:`~.pipeline.lint_score`.  First
    every provider call, in row order (each LINT row's draws, then the
    k-shot samples), and the Rand, Rand-Other and Closest-Syntax picks.
    Then one :func:`score_samples` batch measures the pairs of every row,
    each pick as its program's one sample; Closest-Feature picks by the
    matches that batch played and measures its own pairs in a second, small
    batch.  Last, the rows are built in row order and program order.
    Per-program errors are collected; only a run where every program failed
    is treated as a total failure by the CLI.
    """

    # every input the config names, before the first provider call
    programs = load_program_set(cfg.programs)
    oset = load_opponent_set(cfg.opponents)
    bundle = load_bundle(cfg.track)
    provider = make_provider(cfg.provider)
    baselines = [key for key in BASELINE_KEYS if key in cfg.baselines]
    pool_other = None
    if "rand-other" in baselines:
        pool_other = load_program_set(cfg.pool_other)
    if "kshot" in baselines:
        map_description = resolve_map_description(cfg.map_description, oset)
    if cfg.out:
        make_dir(cfg.out)

    subjects = {"LINT": programs}
    for level in cfg.obfuscation_levels:
        subjects[f"LINT-L{level}"] = [
            (ident, obfuscate(program, level)) for ident, program in programs
        ]
    runs: dict[str, list[LintRun]] = {}
    # per row, each program's (π, samples) for the one batch
    batches: dict[str, list[tuple[Program, list[Program | str]]]] = {}
    for label, rows in subjects.items():
        runs[label], batches[label] = draw_runs(
            rows,
            oset,
            bundle,
            provider,
            k=cfg.k,
            max_retries=cfg.max_retries,
            literal_min=cfg.literal_min,
            workers=cfg.workers,
        )

    picks: dict[str, list[tuple[str, Program]]] = {}
    for key in baselines:
        if key == "kshot":
            batches[key] = [
                (pi, kshot_samples(map_description, bundle, provider, cfg.k, pi))
                for _, pi in programs
            ]
        elif key != "closest-feature":
            picks[key] = _select_baseline(key, programs, pool_other, oset, cfg.seed)
            batches[key] = [
                (pi, [other]) for (_, pi), (_, other) in zip(programs, picks[key])
            ]

    scored = iter(
        score_samples(
            [entry for batch in batches.values() for entry in batch],
            oset,
            cfg.per_unit,
        )
    )
    trials = {label: [next(scored) for _ in batch] for label, batch in batches.items()}
    if "closest-feature" in baselines:
        picks["closest-feature"] = _select_baseline(
            "closest-feature", programs, pool_other, oset, cfg.seed
        )
        pairs = [
            (pi, other)
            for (_, pi), (_, other) in zip(programs, picks["closest-feature"])
        ]
        feature_reports = compare(pairs, oset, cfg.per_unit)

    values: dict[str, dict[str, list[float]]] = {}
    errors: list[dict] = []
    for label, row in runs.items():
        finish_runs(row, trials[label], cfg.literal_min)
        values[label] = {
            metric: [run.aggregated[metric] for run in row]
            for metric in METRIC_COLUMNS
        }
        errors += [
            {"condition": label, "program_id": run.program_id, "error": run.error}
            for run in row
            if run.error is not None
        ]

    baseline_details: dict[str, list[dict]] = {}
    for key in baselines:
        if key == "kshot":
            best = [kshot_baseline(row) for row in trials[key]]
            selected = [f"trial-{trial.trial}" for trial in best]
        else:
            selected = [ident for ident, _ in picks[key]]
            if key == "closest-feature":
                best = feature_reports
            else:
                best = [row[0] for row in trials[key]]
        label = BASELINE_LABELS[key]
        values[label] = {
            metric: [getattr(report, metric) for report in best]
            for metric in METRIC_COLUMNS
        }
        baseline_details[label] = [
            {
                "program_id": ident,
                "selected": pick,
                **{metric: getattr(report, metric) for metric in METRIC_COLUMNS},
            }
            for (ident, _), pick, report in zip(programs, selected, best)
        ]

    table = SummaryTable.from_values(values, list(values))
    result = ExperimentResult(cfg, table, runs, baseline_details, errors)
    if cfg.out:
        result.write(cfg.out)
    return result


def _select_baseline(
    key: str,
    programs: list[tuple[str, Program]],
    pool_other: list[tuple[str, Program]] | None,
    oset: OpponentSet,
    seed: int,
) -> list[tuple[str, Program]]:
    """Pick the comparison program of every program for one baseline row.

    Same-pool baselines (rand, closest-*) never select the program itself.
    The closest-* rows key each program once, by its syntax set or its mean
    feature vector, and pick among the other programs' keys.
    """

    if key in ("rand", "rand-other"):
        pool = programs if key == "rand" else pool_other
        picks = []
        for index, (ident, _) in enumerate(programs):
            rng = _program_rng(seed, key, ident)
            exclude = index if key == "rand" else None
            picks.append(pool[rand_index(rng, len(pool), exclude=exclude)])
        return picks
    if key == "closest-syntax":
        keys = [syntax_set(print_program(program)) for _, program in programs]
        closest = closest_syntax
    elif key == "closest-feature":
        keys = [mean_feature_vector(program, oset) for _, program in programs]
        closest = closest_feature
    else:
        raise ConfigError(f"unknown baseline {key!r}")
    picks = []
    for index in range(len(programs)):
        others = programs[:index] + programs[index + 1:]
        picks.append(others[closest(keys[index], keys[:index] + keys[index + 1:])])
    return picks
