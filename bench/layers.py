"""Per-layer tracing from outside the program.

Each module imports the names it calls, so a function is wrapped where it is
bound: ``lintscore.sim.engine.resolve_joint`` is the match side of policy
evaluation and ``lintscore.metrics.behavior.resolve_joint`` the replay side,
although both are the same function.  A wrapper adds the call's duration to
one or more labels and counts the call; durations include nested layers.

Work counters (calls, ticks, repeats) are exact and repeat run to run; times
include the wrappers' own cost, which the run reports as ``trace.overhead_s``.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

# (name, unit, better): every metric ``Tracer.metrics`` returns, in order.
METRICS = (
    ("sim.matches", "count", "lower"),
    ("sim.ticks", "count", "lower"),
    ("sim.play_match_s", "s", "lower"),
    ("sim.ticks_per_s", "1/s", "higher"),
    ("sim.resolve_joint_calls", "count", "lower"),
    ("sim.resolve_joint_s", "s", "lower"),
    ("sim.step_s", "s", "lower"),
    ("sim.snapshot_s", "s", "lower"),
    ("sim.fixed_point_frac", "frac", "higher"),
    ("sim.eval_repeat_frac", "frac", "lower"),
    ("metrics.match_lookups", "count", "lower"),
    ("metrics.match_hit_frac", "frac", "higher"),
    ("metrics.replays", "count", "lower"),
    ("metrics.replay_s", "s", "lower"),
    ("metrics.restore_s", "s", "lower"),
    ("metrics.action_metric_s", "s", "lower"),
    ("metrics.compare_s", "s", "lower"),
    ("pipeline.provider_calls", "count", "lower"),
    ("pipeline.provider_s", "s", "lower"),
    ("pipeline.provider_errors", "count", "lower"),
    ("pipeline.trial_parse_failures", "count", "lower"),
    ("pipeline.verifier_rejects", "count", "lower"),
    ("microlang.parse_calls", "count", "lower"),
    ("microlang.parse_s", "s", "lower"),
    ("microlang.print_calls", "count", "lower"),
    ("microlang.print_s", "s", "lower"),
    ("obfuscate.calls", "count", "lower"),
    ("obfuscate.s", "s", "lower"),
    ("harness.write_s", "s", "lower"),
    ("harness.baseline_s", "s", "lower"),
)
# Metrics that must repeat exactly between two traced runs of the same code.
EXACT = tuple(name for name, unit, _ in METRICS if unit in ("count", "frac"))


class Tracer:
    """Wraps the layer functions, accumulates counts and busy time."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.ticks = 0
        self.fixed_points = 0
        self.match_lookups = 0
        self.verifier_rejects = 0
        self.evaluations = 0
        self.eval_repeats = 0
        self._seen: set[tuple] = set()
        self._canonical: dict[int, tuple] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(
        self,
        owner: object,
        name: str,
        labels: tuple[str, ...],
        *,
        before: Callable | None = None,
        after: Callable | None = None,
        errors: tuple[type[BaseException], str] | None = None,
    ) -> None:
        original = getattr(owner, name)
        calls, seconds = self.calls, self.seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if errors is not None and isinstance(exc, errors[0]):
                    calls[errors[1]] += 1
                raise
            finally:
                elapsed = clock() - start
                for label in labels:
                    calls[label] += 1
                    seconds[label] += elapsed
            if after is not None:
                after(args, result)
            return result

        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        from lintscore import harness
        from lintscore.metrics import behavior, opponents
        from lintscore.microlang import ParseError
        from lintscore.pipeline import mocks, providers, runner
        from lintscore.sim import engine, state

        self._snapshot = state.GameState.snapshot
        self._print = runner.print_program

        self._wrap(engine, "resolve_joint", ("sim.resolve_joint",), before=self._evaluation)
        self._wrap(engine, "step", ("sim.step",))
        self._wrap(state.GameState, "snapshot", ("sim.snapshot",))
        self._wrap(opponents, "play_match", ("sim.play_match",), after=self._match)
        self._wrap(opponents.OpponentSet, "matches", ("metrics.matches",), before=self._lookup)
        self._wrap(behavior, "resolve_joint", ("metrics.replay",), before=self._evaluation)
        self._wrap(behavior, "restore_state", ("metrics.restore",))
        self._wrap(behavior, "action_metric", ("metrics.action_metric",))
        self._wrap(runner, "compare", ("metrics.compare",))
        self._wrap(harness, "compare", ("metrics.compare", "harness.baseline"))
        self._wrap(harness, "_select_baseline", ("harness.baseline",))
        self._wrap(harness, "kshot_baseline", ("harness.baseline",))
        self._wrap(harness.ExperimentResult, "write", ("harness.write",))
        self._wrap(harness, "obfuscate", ("obfuscate",))
        self._wrap(runner, "verify", ("pipeline.verify",), after=self._verdict)
        self._wrap(
            runner, "parse", ("microlang.parse",),
            errors=(ParseError, "pipeline.trial_parse_failures"),
        )
        for module in (harness, opponents):
            self._wrap(module, "parse", ("microlang.parse",))
        for module in (runner, harness, opponents):
            self._wrap(module, "print_program", ("microlang.print",))
        for cls in (mocks.MockProvider, providers.ReplayCacheProvider):
            self._wrap(
                cls, "complete", ("pipeline.provider",),
                errors=(providers.ProviderError, "pipeline.provider_errors"),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- hooks --------------------------------------------------------------

    def _evaluation(self, program, state, player) -> None:
        """Count a policy evaluation whose (canonical program, player,
        snapshot) triple was already evaluated: an upper bound on what an
        evaluation memo could skip."""
        entry = self._canonical.get(id(program))
        if entry is None:
            # Holding the program keeps its id from being reused.
            entry = (program, self._print(program))
            self._canonical[id(program)] = entry
        key = (entry[1], player, self._snapshot(state))
        self.evaluations += 1
        if key in self._seen:
            self.eval_repeats += 1
        else:
            self._seen.add(key)

    def _match(self, args, record) -> None:
        self.ticks += record.ticks
        self.fixed_points += record.fixed_point

    def _lookup(self, oset, program) -> None:
        self.match_lookups += len(oset.opponents)

    def _verdict(self, args, verdict) -> None:
        self.verifier_rejects += not verdict.accept

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls, seconds = self.calls, self.seconds
        matches = calls["sim.play_match"]
        play_s = seconds["sim.play_match"]
        values = {
            "sim.matches": matches,
            "sim.ticks": self.ticks,
            "sim.play_match_s": play_s,
            "sim.ticks_per_s": self.ticks / play_s if play_s else 0.0,
            "sim.resolve_joint_calls": calls["sim.resolve_joint"],
            "sim.resolve_joint_s": seconds["sim.resolve_joint"],
            "sim.step_s": seconds["sim.step"],
            "sim.snapshot_s": seconds["sim.snapshot"],
            "sim.fixed_point_frac": self.fixed_points / matches if matches else 0.0,
            "sim.eval_repeat_frac": (
                self.eval_repeats / self.evaluations if self.evaluations else 0.0
            ),
            "metrics.match_lookups": self.match_lookups,
            "metrics.match_hit_frac": (
                1 - matches / self.match_lookups if self.match_lookups else 0.0
            ),
            "metrics.replays": calls["metrics.replay"],
            "metrics.replay_s": seconds["metrics.replay"],
            "metrics.restore_s": seconds["metrics.restore"],
            "metrics.action_metric_s": seconds["metrics.action_metric"],
            "metrics.compare_s": seconds["metrics.compare"],
            "pipeline.provider_calls": calls["pipeline.provider"],
            "pipeline.provider_s": seconds["pipeline.provider"],
            "pipeline.provider_errors": calls["pipeline.provider_errors"],
            "pipeline.trial_parse_failures": calls["pipeline.trial_parse_failures"],
            "pipeline.verifier_rejects": self.verifier_rejects,
            "microlang.parse_calls": calls["microlang.parse"],
            "microlang.parse_s": seconds["microlang.parse"],
            "microlang.print_calls": calls["microlang.print"],
            "microlang.print_s": seconds["microlang.print"],
            "obfuscate.calls": calls["obfuscate"],
            "obfuscate.s": seconds["obfuscate"],
            "harness.write_s": seconds["harness.write"],
            "harness.baseline_s": seconds["harness.baseline"],
        }
        assert list(values) == [name for name, _, _ in METRICS]
        return values
