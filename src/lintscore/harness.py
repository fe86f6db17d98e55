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
from .metrics.behavior import compare, compare_all
from .metrics.opponents import OpponentSet, standard_opponents
from .microlang import ParseError, Program, parse, print_program
from .obfuscate import obfuscate
from .pipeline import (
    LintRun,
    kshot_baseline,
    kshot_samples,
    lint_score,
    load_bundle,
    load_map_description,
    make_provider,
    measure_samples,
)
from .resources import data_path, policy_sources

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
_STANDARD_OPPONENTS = {"standard-16": 16, "standard-8": 8}
_DEFAULT_MAP_DESCRIPTION = {
    "standard-16": "BaseWorkers-16x16A",
    "standard-8": "BaseWorkers-8x8",
}


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


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
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


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
    """Load a named bundled pool or a directory of ``.mrl`` files.

    A parse error names the file it comes from.
    """

    if spec in _BUILTIN_POOLS:
        directory = data_path("policies", spec)
    else:
        directory = Path(spec)
        if not directory.is_dir():
            raise ConfigError(f"program set {spec!r} is not a directory")
    sources = policy_sources(directory)
    if not sources:
        raise ConfigError(f"no .mrl programs found in {directory}")
    programs = []
    for name, text in sorted(sources.items()):
        try:
            programs.append((name, parse(text)))
        except ParseError as exc:
            raise type(exc)(
                f"{directory / name}.mrl: {exc.message}", exc.line, exc.col
            ) from exc
    return programs


def load_opponent_set(spec: str) -> OpponentSet:
    """Resolve ``standard-16``/``standard-8`` or a descriptor JSON path."""

    if spec in _STANDARD_OPPONENTS:
        return standard_opponents(_STANDARD_OPPONENTS[spec])
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"opponent set {spec!r} not found")
    return OpponentSet.from_file(path)


def resolve_map_description(cfg: ExperimentConfig) -> str:
    """The k-shot map description: configured name, literal text, or the
    default description bundled with the standard opponent set."""

    value = cfg.map_description
    if value is None:
        default = _DEFAULT_MAP_DESCRIPTION.get(cfg.opponents)
        if default is None:
            raise ConfigError(
                "map_description is required when opponents are not a "
                "standard set"
            )
        value = default
    bundled = data_path("prompts") / f"map_{value}.txt"
    if bundled.exists():
        return load_map_description(value)
    return value


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
            cells = {
                name: Cell(values["mean"], values["ci"])
                for name, values in entry["metrics"].items()
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
            run_dir = out / "runs" / condition
            run_dir.mkdir(parents=True, exist_ok=True)
            for run in runs:
                dump_json(run_dir / f"{run.program_id}.json", run.to_json())
        if self.baseline_details:
            dump_json(out / "baselines.json", self.baseline_details)
        return paths


def write_summary(
    out_dir: str | Path, table: SummaryTable, data: dict
) -> dict[str, Path]:
    """Write ``data`` as summary.json and ``table`` as summary.{md,csv}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    sorted keys, a final newline, UTF-8."""
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _program_rng(seed: int, row: str, program_id: str) -> random.Random:
    return random.Random(f"{seed}|{row}|{program_id}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute every configured condition and assemble the summary table.

    Conditions, in row order: LINT on the originals, LINT at each obfuscation
    level, then the baselines.  Per-program errors are collected; only a run
    where every program failed is treated as a total failure by the CLI.
    """

    programs = load_program_set(cfg.programs)
    oset = load_opponent_set(cfg.opponents)
    bundle = load_bundle(cfg.track)
    provider = make_provider(cfg.provider)

    values: dict[str, dict[str, list[float]]] = {}
    runs: dict[str, list[LintRun]] = {}
    baseline_details: dict[str, list[dict]] = {}
    errors: list[dict] = []
    order: list[str] = []

    def record_pipeline(label: str, subjects: list[tuple[str, Program]]) -> None:
        _, batch = lint_score(
            subjects,
            oset,
            bundle,
            provider,
            k=cfg.k,
            max_retries=cfg.max_retries,
            literal_min=cfg.literal_min,
            per_unit=cfg.per_unit,
            workers=cfg.workers,
        )
        runs[label] = batch
        values[label] = {
            metric: [run.aggregated[metric] for run in batch]
            for metric in METRIC_COLUMNS
        }
        order.append(label)
        for run in batch:
            if run.error is not None:
                errors.append(
                    {
                        "condition": label,
                        "program_id": run.program_id,
                        "error": run.error,
                    }
                )

    record_pipeline("LINT", programs)
    for level in cfg.obfuscation_levels:
        obfuscated = [
            (ident, obfuscate(program, level)) for ident, program in programs
        ]
        record_pipeline(f"LINT-L{level}", obfuscated)

    pool_other = None
    if "rand-other" in cfg.baselines:
        pool_other = load_program_set(cfg.pool_other)
    map_description = (
        resolve_map_description(cfg) if "kshot" in cfg.baselines else None
    )

    for key in BASELINE_KEYS:
        if key not in cfg.baselines:
            continue
        label = BASELINE_LABELS[key]
        # every program's pick (or k-shot samples) first, then one
        # measurement of the whole row, then the row in program order
        if key == "kshot":
            samples = [
                kshot_samples(map_description, bundle, provider, cfg.k, program)
                for _, program in programs
            ]
            measure_samples(
                [(program, drawn) for (_, program), drawn in zip(programs, samples)],
                oset,
                cfg.per_unit,
            )
            rows = []
            for (ident, program), drawn in zip(programs, samples):
                result = kshot_baseline(drawn, program, oset, per_unit=cfg.per_unit)
                rows.append((ident, f"trial-{result.best_trial}", result.report))
        else:
            picks = []
            for index, (ident, program) in enumerate(programs):
                pick_index, pool = _select_baseline(
                    key, index, programs, pool_other, oset, cfg.seed, ident
                )
                picks.append(pool[pick_index])
            pairs = [
                (program, other)
                for (_, program), (_, other) in zip(programs, picks)
            ]
            compare_all(pairs, oset, cfg.per_unit)
            rows = [
                (ident, selected, compare(program, other, oset, per_unit=cfg.per_unit))
                for (ident, program), (selected, other) in zip(programs, picks)
            ]
        details = [
            {"program_id": ident, "selected": selected, **report.as_dict()}
            for ident, selected, report in rows
        ]
        values[label] = {
            metric: [getattr(report, metric) for _, _, report in rows]
            for metric in METRIC_COLUMNS
        }
        baseline_details[label] = details
        order.append(label)

    table = SummaryTable.from_values(values, order)
    result = ExperimentResult(cfg, table, runs, baseline_details, errors)
    if cfg.out:
        result.write(cfg.out)
    return result


def _select_baseline(
    key: str,
    index: int,
    programs: list[tuple[str, Program]],
    pool_other: list[tuple[str, Program]] | None,
    oset: OpponentSet,
    seed: int,
    ident: str,
) -> tuple[int, list[tuple[str, Program]]]:
    """Pick the comparison program for one baseline row and one program.

    Same-pool baselines (rand, closest-*) never select the program itself.
    """

    if key == "rand":
        rng = _program_rng(seed, key, ident)
        return rand_index(rng, len(programs), exclude=index), programs
    if key == "rand-other":
        rng = _program_rng(seed, key, ident)
        return rand_index(rng, len(pool_other)), pool_other
    others = [item for i, item in enumerate(programs) if i != index]
    if key == "closest-syntax":
        sources = [print_program(program) for _, program in others]
        target = print_program(programs[index][1])
        return closest_syntax(target, sources), others
    if key == "closest-feature":
        pool_programs = [program for _, program in others]
        pick = closest_feature(programs[index][1], pool_programs, oset)
        return pick, others
    raise ConfigError(f"unknown baseline {key!r}")
