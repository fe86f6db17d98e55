"""The ``lint`` command-line interface.

Exit codes: 0 on success, 1 on total failure (every program failed, a parse
or replay error, a lost match against expectations), 2 on configuration or
usage errors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from .harness import (
    METRIC_COLUMNS,
    ConfigError,
    ExperimentConfig,
    SummaryTable,
    dump_json,
    load_opponent_set,
    make_dir,
    run_experiment,
    write_summary,
)
from .metrics.behavior import compare
from .microlang import ParseError, parse, print_program, to_dict
from .obfuscate import LEVELS, added_lines, obfuscate, verify_neutral
from .pipeline import ProviderError
from .resources import DATA_ROOT, read_json, read_text
from .sim import GameState, play_match, state_from_map_dict


class _Lint(click.Group):
    """The one place that turns errors into exit codes: an input that cannot
    be used exits 2; a program set that does not parse exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, ProviderError) as exc:
            raise click.UsageError(str(exc)) from exc
        except ParseError as exc:
            raise click.ClickException(str(exc)) from exc


def _echo_json(data, err: bool = False) -> None:
    click.echo(json.dumps(data, indent=2, sort_keys=True), err=err)


def _parse_source(path: str):
    text = sys.stdin.read() if path == "-" else read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _initial_state(spec: str, seed: int) -> GameState:
    """The start of a match on the bundled map so named, or on a map file."""
    path = DATA_ROOT / "maps" / f"{spec}.json"
    data = read_json(path if path.is_file() else spec, f"map {spec}")
    try:
        return state_from_map_dict(data, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"map {spec}: {exc}") from exc


def _provider_config(
    kind: str,
    provider_config: str | None,
    mock: str,
    q: float,
    mock_seed: int,
    cache_dir: str | None,
) -> dict:
    if kind == "replay":
        if not cache_dir:
            raise click.UsageError("--provider replay requires --cache-dir")
        config = {"kind": "replay-cache", "directory": cache_dir}
        # the cache's manifest supplies what the provider config leaves out
        if provider_config:
            settings = read_json(provider_config, f"provider config {provider_config}")
            config.update(
                model=settings.get("model"), temperature=settings.get("temperature")
            )
        return config
    if kind == "http":
        if not provider_config:
            raise click.UsageError(
                "--provider http requires --provider-config with endpoint/model"
            )
        config = read_json(provider_config, f"provider config {provider_config}")
        config["kind"] = "http"
    elif provider_config:
        raise click.UsageError(
            "--provider-config applies to --provider http and replay, not mock"
        )
    else:
        config = {"kind": "mock", "mock": mock, "q": q, "seed": mock_seed}
    if cache_dir:
        config["cache"] = cache_dir
    return config


@click.group(cls=_Lint)
@click.version_option(version=__version__, prog_name="lint")
def main():
    """Score the interpretability of programmatic policies."""


@main.command("parse")
@click.argument("source", type=str)
@click.option("--ast-json", is_flag=True, help="Print the AST as JSON.")
def parse_cmd(source, ast_json):
    """Parse a policy file ('-' for stdin) and print its canonical form."""
    program = _parse_source(source)
    if ast_json:
        _echo_json(to_dict(program))
    else:
        click.echo(print_program(program))


@main.command("simulate")
@click.option("--p0", "p0_path", required=True, type=str, help="Player 0 policy file.")
@click.option("--p1", "p1_path", required=True, type=str, help="Player 1 policy file.")
@click.option("--map", "map_spec", default="BaseWorkers-16x16A", show_default=True,
              help="Bundled map name or a map JSON path.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-ticks", type=click.IntRange(min=1), default=400,
              show_default=True)
@click.option("--record", "record_path", type=click.Path(), default=None,
              help="Write the full match record JSON here.")
def simulate_cmd(p0_path, p1_path, map_spec, seed, max_ticks, record_path):
    """Play one deterministic match and print its outcome."""
    p0 = _parse_source(p0_path)
    p1 = _parse_source(p1_path)
    state = _initial_state(map_spec, seed)
    record = play_match(p0, p1, state, max_ticks=max_ticks)
    if record_path:
        dump_json(Path(record_path), record.to_json())
    _echo_json(
        {
            "outcome": record.outcome,
            "ticks": record.ticks,
            "fixed_point": record.fixed_point,
            "features": [list(f) for f in record.features],
            "decisions": len(record.entries),
        }
    )


@main.command("metric")
@click.option("--pi", "pi_path", required=True, type=str, help="Reference policy file.")
@click.option("--other", "other_path", required=True, type=str,
              help="Candidate policy file.")
@click.option("--opponents", default="standard-16", show_default=True,
              help="standard-16, standard-8, or a descriptor JSON path.")
@click.option("--per-unit", is_flag=True, help="Grade each unit separately.")
def metric_cmd(pi_path, other_path, opponents, per_unit):
    """Print the three behavior metrics between two policies."""
    pi = _parse_source(pi_path)
    other = _parse_source(other_path)
    oset = load_opponent_set(opponents)
    report = compare([(pi, other)], oset, per_unit)[0]
    _echo_json(report.as_dict())


@main.command("obfuscate")
@click.argument("source", type=str)
@click.option("--level", type=click.IntRange(min(LEVELS), max(LEVELS)),
              default=1, show_default=True)
@click.option("--verify", is_flag=True,
              help="Check behavior neutrality against an opponent set.")
@click.option("--opponents", default="standard-16", show_default=True)
def obfuscate_cmd(source, level, verify, opponents):
    """Pad a policy with inert garbage at the given level."""
    program = _parse_source(source)
    padded = obfuscate(program, level)
    click.echo(print_program(padded))
    if verify:
        oset = load_opponent_set(opponents)
        report = verify_neutral(program, padded, oset)
        payload = {
            "equal": report.equal,
            "added_lines": added_lines(program, level),
            "divergences": [asdict(d) for d in report.divergences],
        }
        _echo_json(payload, err=True)
        if not report.equal:
            raise click.ClickException("obfuscation changed behavior")


@main.command("score")
@click.option("--programs", default="pool16", show_default=True,
              help="Bundled pool name or a directory of .mrl files.")
@click.option("--opponents", default="standard-16", show_default=True)
@click.option("--provider", "provider_kind", default="mock", show_default=True,
              type=click.Choice(["http", "mock", "replay"]))
@click.option("--provider-config", type=click.Path(), default=None,
              help="JSON with endpoint/model/temperature for --provider http; "
                   "--provider replay reads its model and temperature (default: "
                   "those in the cache directory's manifest) and refuses a "
                   "temperature other than the recorded one.")
@click.option("--mock", default="echo", show_default=True,
              type=click.Choice(["echo", "empty", "line-drop"]))
@click.option("--q", type=float, default=0.0, show_default=True,
              help="Drop probability for the line-drop mock.")
@click.option("--mock-seed", type=int, default=0, show_default=True)
@click.option("--cache-dir", type=click.Path(), default=None,
              help="Response cache directory: http and mock record into it, "
                   "replay (which requires it) reads from it.")
@click.option("--k", type=int, default=5, show_default=True)
@click.option("--max-retries", type=int, default=3, show_default=True)
@click.option("--literal-min", is_flag=True,
              help="Aggregate the feature metric with min instead of max.")
@click.option("--per-unit", is_flag=True)
@click.option("--workers", type=int, default=1, show_default=True,
              help="Programs whose provider calls are in flight at once; "
                   "only the http provider uses more than one. Simulation "
                   "uses every CPU the process may run on (taskset -c 0 "
                   "pins it to one); results are identical either way.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Write per-program LintRun JSON files here.")
def score_cmd(programs, opponents, provider_kind, provider_config, mock, q,
              mock_seed, cache_dir, k, max_retries, literal_min, per_unit,
              workers, out_dir):
    """Compute the LINT score of a program set."""
    provider = _provider_config(
        provider_kind, provider_config, mock, q, mock_seed, cache_dir
    )
    cfg = ExperimentConfig(
        programs=programs, opponents=opponents, provider=provider,
        k=k, max_retries=max_retries, literal_min=literal_min,
        per_unit=per_unit, workers=workers, baselines=[],
    )
    if out_dir:
        out = make_dir(out_dir)
    result = run_experiment(cfg)
    lint = result.table.rows[0]
    score = {metric: lint.cells[metric].mean for metric in METRIC_COLUMNS}
    runs = result.runs["LINT"]
    if out_dir:
        for run in runs:
            dump_json(out / f"{run.program_id}.json", run.to_json())
        dump_json(out / "score.json", score)
    _echo_json(score)
    if result.total_failure:
        raise click.ClickException("every program failed")


@main.command("baseline")
@click.option("--programs", default="pool16", show_default=True)
@click.option("--opponents", default="standard-16", show_default=True)
@click.option("--baseline", "baseline_key", required=True,
              type=click.Choice(["rand", "rand-other", "closest-syntax",
                                 "closest-feature", "kshot"]))
@click.option("--pool", default="pool8", show_default=True,
              help="Other-map pool for rand-other.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k", type=int, default=5, show_default=True,
              help="Samples for the kshot baseline.")
@click.option("--map-description", default=None,
              help="Bundled map name or literal text for kshot.")
@click.option("--mock", default="echo", show_default=True,
              type=click.Choice(["echo", "empty"]),
              help="Mock provider for kshot sampling.")
def baseline_cmd(programs, opponents, baseline_key, pool, seed, k,
                 map_description, mock):
    """Evaluate one reference-point baseline over a program set."""
    result = run_experiment(
        ExperimentConfig(
            programs=programs,
            opponents=opponents,
            pool_other=pool,
            provider={"kind": "mock", "mock": mock},
            k=k,
            seed=seed,
            baselines=[baseline_key],
            map_description=map_description,
        )
    )
    label = result.table.rows[-1].label
    _echo_json(
        {
            "baseline": label,
            "summary": result.table.rows[-1].to_json(),
            "details": result.baseline_details.get(label, []),
        }
    )


@main.command("report")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Experiment config JSON to execute.")
@click.option("--summary", "summary_path", type=click.Path(), default=None,
              help="Existing summary JSON to re-render instead of running.")
@click.option("--out", "out_dir", type=click.Path(), default=None)
def report_cmd(config_path, summary_path, out_dir):
    """Run an experiment (or re-render a summary) and emit MD/CSV/JSON."""
    if (config_path is None) == (summary_path is None):
        raise click.UsageError("provide exactly one of --config or --summary")

    if summary_path is not None:
        data = read_json(summary_path, f"summary {summary_path}")
        try:
            table = SummaryTable.from_json(data.get("table", data))
        except (AttributeError, LookupError, TypeError) as exc:
            raise click.UsageError(
                f"summary {summary_path} is malformed: {type(exc).__name__} {exc}"
            ) from exc
        if out_dir:
            write_summary(out_dir, table, table.to_json())
        click.echo(table.markdown(), nl=False)
        return

    cfg = ExperimentConfig.from_file(config_path)
    if out_dir:
        cfg.out = out_dir
    result = run_experiment(cfg)
    click.echo(result.table.markdown(), nl=False)
    if result.errors:
        _echo_json({"errors": result.errors}, err=True)
    if result.total_failure:
        raise click.ClickException("every program failed")


if __name__ == "__main__":
    main()
