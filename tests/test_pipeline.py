"""Pipeline orchestration: verdicts, retries, reconstruction, aggregation,
scoring, and the mock providers that drive offline runs."""
import json

import pytest

from lintscore.metrics import OpponentSet, compare
from lintscore.microlang import Program, parse, print_program
from lintscore.pipeline import (
    CachingProvider,
    EchoProvider,
    EmptyProvider,
    LineDropProvider,
    PromptRequest,
    Provider,
    ProviderError,
    ReplayCacheProvider,
    ScriptedProvider,
    Trial,
    VerifierExhausted,
    aggregate_trials,
    explain,
    kshot_baseline,
    kshot_samples,
    lint_score,
    parse_verdict,
    reconstruct,
    score_samples,
    verify,
)
from lintscore.pipeline.mocks import ACCEPT_RESPONSE
from lintscore.pipeline import runner
from lintscore.pipeline.runner import WORST
from lintscore.resources import data_path

from sample_texts import (
    CLEAN_EXPLANATION,
    CLEAN_VERDICT,
    JARGON_EXPLANATION,
    JARGON_VERDICT,
    STRATEGY_EXPLANATION,
    STRATEGY_RECONSTRUCTION,
)

SIMPLE = "for(Unit u){\n    u.attack(Closest)\n}"


def wrap(tag, body):
    return f"<{tag}>{body}</{tag}>"


class TestParseVerdict:
    def test_leading_no_accepts(self):
        verdict = parse_verdict("No.")
        assert verdict.accept
        assert not verdict.unparseable

    def test_leading_yes_rejects(self):
        verdict = parse_verdict("Yes, there is jargon.")
        assert not verdict.accept
        assert not verdict.unparseable

    def test_case_and_whitespace_insensitive(self):
        assert parse_verdict("  no, it reads cleanly").accept
        assert parse_verdict("NO").accept
        assert not parse_verdict("\nYES\n").accept

    def test_token_must_be_whole_word(self):
        # "Note" starts with "no" but is a different token.
        verdict = parse_verdict("Note that this is fine.")
        assert not verdict.accept
        assert verdict.unparseable

    def test_unparseable_rejected_and_flagged(self):
        verdict = parse_verdict("Maybe? Hard to say.")
        assert not verdict.accept
        assert verdict.unparseable
        assert verdict.rationale.startswith("unparseable verdict:")

    def test_empty_response_unparseable(self):
        assert parse_verdict("").unparseable
        assert parse_verdict("12. no").unparseable

    def test_real_clean_verdict_accepts(self):
        verdict = parse_verdict(CLEAN_VERDICT)
        assert verdict.accept
        assert verdict.rationale == CLEAN_VERDICT.strip()

    def test_real_jargon_verdict_rejects(self):
        verdict = parse_verdict(JARGON_VERDICT)
        assert not verdict.accept
        assert not verdict.unparseable

    def test_accept_response_constant_accepts(self):
        assert parse_verdict(ACCEPT_RESPONSE).accept


class TestVerify:
    def test_echo_provider_accepts(self, bundle, tiered):
        verdict = verify("a clean explanation", tiered, bundle, EchoProvider())
        assert verdict.accept

    def test_scripted_rejection_flows_through(self, bundle, tiered):
        provider = ScriptedProvider({"verifier": JARGON_VERDICT})
        verdict = verify("uses for-loops", tiered, bundle, provider, trial=2)
        assert not verdict.accept
        request = provider.call_log[0]
        assert request.role == "verifier"
        assert request.trial == 2
        assert request.explanation == "uses for-loops"


class TestExplain:
    def test_echo_accepts_first_attempt(self, bundle, tiered):
        explanation, verdicts = explain(tiered, bundle, EchoProvider())
        assert explanation == print_program(tiered)
        assert len(verdicts) == 1
        assert verdicts[0].accept

    def test_retries_until_verifier_accepts(self, bundle, tiered):
        provider = ScriptedProvider(
            {
                "explainer": [
                    wrap("explanation", JARGON_EXPLANATION),
                    wrap("explanation", JARGON_EXPLANATION),
                    wrap("explanation", CLEAN_EXPLANATION),
                ],
                "verifier": [JARGON_VERDICT, JARGON_VERDICT, CLEAN_VERDICT],
            }
        )
        explanation, verdicts = explain(tiered, bundle, provider)
        assert explanation == CLEAN_EXPLANATION.strip()
        assert [v.accept for v in verdicts] == [False, False, True]
        assert provider.calls("explainer") == 3
        assert provider.calls("verifier") == 3
        assert [r.trial for r in provider.call_log] == [0, 0, 1, 1, 2, 2]

    def test_missing_tag_is_rejected_attempt_without_verifier_call(
        self, bundle, tiered
    ):
        provider = ScriptedProvider(
            {
                "explainer": [
                    "I refuse to use tags.",
                    wrap("explanation", CLEAN_EXPLANATION),
                ],
                "verifier": CLEAN_VERDICT,
            }
        )
        explanation, verdicts = explain(tiered, bundle, provider)
        assert explanation == CLEAN_EXPLANATION.strip()
        assert len(verdicts) == 2
        assert verdicts[0].unparseable
        assert verdicts[0].rationale == "response missing <explanation> tag"
        assert provider.calls("verifier") == 1

    def test_exhaustion_raises_with_verdicts(self, bundle, tiered):
        provider = ScriptedProvider(
            {
                "explainer": wrap("explanation", JARGON_EXPLANATION),
                "verifier": JARGON_VERDICT,
            }
        )
        with pytest.raises(VerifierExhausted) as excinfo:
            explain(tiered, bundle, provider)
        assert len(excinfo.value.verdicts) == 3
        assert all(not v.accept for v in excinfo.value.verdicts)
        assert "rejected all 3" in str(excinfo.value)
        assert provider.calls("explainer") == 3

    def test_max_retries_respected(self, bundle, tiered):
        provider = ScriptedProvider(
            {
                "explainer": wrap("explanation", JARGON_EXPLANATION),
                "verifier": JARGON_VERDICT,
            }
        )
        with pytest.raises(VerifierExhausted) as excinfo:
            explain(tiered, bundle, provider, max_retries=2)
        assert len(excinfo.value.verdicts) == 2


class TestReconstruct:
    """``reconstruct`` returns one sample per trial, a parsed program or a
    named failure; ``score_samples`` turns the samples into trials."""

    def test_echo_round_trips_source(self, bundle, tiered, oset8):
        source = print_program(tiered)
        samples = reconstruct(source, bundle, EchoProvider(), k=3)
        assert all(print_program(sample) == source for sample in samples)
        [trials] = score_samples([(tiered, samples)], oset8)
        assert [t.trial for t in trials] == [0, 1, 2]
        for trial in trials:
            assert not trial.failed
            assert trial.source == source
            assert trial.error is None

    def test_missing_strategy_tag_falls_back_to_raw_text(self, bundle):
        provider = ScriptedProvider({"reconstructor": SIMPLE})
        samples = reconstruct("anything", bundle, provider, k=1)
        assert isinstance(samples[0], Program)
        assert print_program(samples[0]) == print_program(parse(SIMPLE))

    def test_unparseable_trial_recorded_not_retried(self, bundle, tiered, oset8):
        provider = ScriptedProvider(
            {
                "reconstructor": [
                    wrap("strategy", SIMPLE),
                    wrap("strategy", SIMPLE),
                    wrap("strategy", "keep all units safe"),
                    wrap("strategy", SIMPLE),
                    wrap("strategy", SIMPLE),
                ]
            }
        )
        samples = reconstruct("anything", bundle, provider, k=5)
        assert len(samples) == 5
        assert provider.calls("reconstructor") == 5
        assert samples[2].startswith("parse error:")
        [trials] = score_samples([(tiered, samples)], oset8)
        bad = trials[2]
        assert bad.failed
        assert bad.source is None
        assert bad.error == samples[2]
        assert (bad.action, bad.outcome, bad.feature) == (0.0, 0.0, 1.0)
        assert all(not t.failed for i, t in enumerate(trials) if i != 2)

    def test_equal_completions_are_parsed_once(self, bundle, monkeypatch):
        calls = []
        real = runner.parse

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(runner, "parse", counting)
        provider = ScriptedProvider({"reconstructor": wrap("strategy", SIMPLE)})
        samples = reconstruct("anything", bundle, provider, k=4)
        assert provider.calls("reconstructor") == 4
        assert calls == [SIMPLE]
        assert isinstance(samples[0], Program)
        assert all(sample is samples[0] for sample in samples)

        calls.clear()
        provider = ScriptedProvider({"reconstructor": wrap("strategy", "keep safe")})
        samples = reconstruct("anything", bundle, provider, k=3)
        assert calls == ["keep safe"]
        assert samples[0].startswith("parse error:")
        assert samples == [samples[0]] * 3

    def test_non_decimal_digit_fails_only_its_trial(self, bundle, tiered, oset8):
        provider = ScriptedProvider(
            {
                "explainer": wrap("explanation", "Harvest, then attack."),
                "verifier": ACCEPT_RESPONSE,
                "reconstructor": [
                    wrap("strategy", SIMPLE),
                    wrap("strategy", "for(Unit u){ u.harvest(²) }"),
                    wrap("strategy", SIMPLE),
                ],
            }
        )
        _, [run] = lint_score([("tiered", tiered)], oset8, bundle, provider, k=3)
        assert run.error is None
        assert [t.failed for t in run.trials] == [False, True, False]
        assert run.trials[1].error == (
            "parse error: unexpected character '²' (line 1, column 24)"
        )
        assert run.aggregated == WORST

    def test_provider_error_becomes_failed_trial(self, bundle, tiered, tmp_path):
        provider = ReplayCacheProvider(tmp_path)  # empty: every call misses
        samples = reconstruct("anything", bundle, provider, k=2)
        assert all(sample.startswith("provider error:") for sample in samples)
        # failures score WORST without reaching an opponent set
        [trials] = score_samples([(tiered, samples)], None)
        assert all(t.failed for t in trials)
        assert all(t.error.startswith("provider error:") for t in trials)


class TestAggregateTrials:
    @staticmethod
    def _trial(index, action, outcome, feature):
        return Trial(index, SIMPLE, action, outcome, feature)

    def test_min_min_max_rule(self):
        trials = [
            self._trial(0, 0.9, 0.9, 0.1),
            self._trial(1, 0.6, 0.8, 0.9),
            self._trial(2, 0.8, 0.6, 0.5),
        ]
        assert aggregate_trials(trials) == {
            "action": 0.6,
            "outcome": 0.6,
            "feature": 0.9,
        }

    def test_literal_min_applies_min_to_feature(self):
        trials = [
            self._trial(0, 0.9, 0.9, 0.1),
            self._trial(1, 0.6, 0.8, 0.9),
        ]
        assert aggregate_trials(trials, literal_min=True)["feature"] == 0.1

    def test_failed_trial_dominates(self):
        trials = [
            self._trial(0, 1.0, 1.0, 0.0),
            Trial(1, None, 0.0, 0.0, 1.0, error="parse error: nope"),
        ]
        assert aggregate_trials(trials) == {
            "action": 0.0,
            "outcome": 0.0,
            "feature": 1.0,
        }

    def test_empty_trials_worst_case(self):
        assert aggregate_trials([]) == WORST
        assert aggregate_trials([]) is not WORST

    def test_single_trial_identity(self):
        trials = [self._trial(0, 0.7, 0.4, 0.2)]
        assert aggregate_trials(trials) == {
            "action": 0.7,
            "outcome": 0.4,
            "feature": 0.2,
        }


class TestScoreProgram:
    """One program scored alone: ``lint_score`` of a one-program set."""

    def test_echo_scores_perfect(self, bundle, tiered, oset8):
        _, [run] = lint_score([("tiered", tiered)], oset8, bundle, EchoProvider(), k=3)
        assert run.aggregated == {"action": 1.0, "outcome": 1.0, "feature": 0.0}
        assert run.error is None
        assert run.explanation == print_program(tiered)
        assert len(run.trials) == 3
        assert all(t.source == run.source for t in run.trials)
        assert len(run.verdicts) == 1 and run.verdicts[0].accept

    def test_empty_provider_matches_direct_compare(
        self, bundle, tiered, empty_program, oset8
    ):
        _, [run] = lint_score([("tiered", tiered)], oset8, bundle, EmptyProvider(), k=2)
        report = compare([(tiered, empty_program)], oset8)[0]
        assert run.aggregated == pytest.approx(report.as_dict())
        assert all(t.source == "" for t in run.trials)

    def test_mock_provenance(self, bundle, tiered, oset8):
        _, [run] = lint_score([("tiered", tiered)], oset8, bundle, EchoProvider(), k=2)
        prov = run.provenance
        assert prov["provider"] == "mock"
        assert prov["model"] == "mock-echo"
        assert prov["k"] == 2
        assert prov["max_retries"] == 3
        assert prov["literal_min"] is False
        assert prov["opponents"] == oset8.name
        assert prov["started_at"] is None
        assert prov["finished_at"] is None
        roles = [entry["role"] for entry in prov["cache_keys"]]
        assert roles == ["explainer", "verifier", "reconstructor", "reconstructor"]
        for entry in prov["cache_keys"]:
            assert len(entry["key"]) == 64
            assert entry["trial"] in (0, 1)

    def test_verifier_exhaustion_scores_worst(self, bundle, tiered, oset8):
        provider = ScriptedProvider(
            {
                "explainer": wrap("explanation", JARGON_EXPLANATION),
                "verifier": JARGON_VERDICT,
            }
        )
        _, [run] = lint_score([("tiered", tiered)], oset8, bundle, provider)
        assert run.error is not None and "rejected all 3" in run.error
        assert run.explanation is None
        assert run.trials == []
        assert run.aggregated == WORST
        assert len(run.verdicts) == 3

    def test_provider_error_scores_worst(self, bundle, tiered, oset8, tmp_path):
        provider = ReplayCacheProvider(tmp_path)
        _, [run] = lint_score([("tiered", tiered)], oset8, bundle, provider)
        assert run.error.startswith("provider error:")
        assert run.aggregated == WORST

    def test_sample_transcript_flow(self, bundle, tiered, oset16):
        provider = ScriptedProvider(
            {
                "explainer": wrap("explanation", STRATEGY_EXPLANATION),
                "verifier": CLEAN_VERDICT,
                "reconstructor": wrap("strategy", STRATEGY_RECONSTRUCTION),
            }
        )
        _, [run] = lint_score([("tiered", tiered)], oset16, bundle, provider, k=2)
        assert run.error is None
        assert run.explanation == STRATEGY_EXPLANATION.strip()
        reconstruction = parse(STRATEGY_RECONSTRUCTION)
        expected = compare([(tiered, reconstruction)], oset16)[0]
        assert run.aggregated == pytest.approx(expected.as_dict())
        assert 0.0 < run.aggregated["action"] < 1.0
        assert all(
            t.source == print_program(reconstruction) for t in run.trials
        )

    def test_to_json_shape(self, bundle, tiered, oset8):
        _, [run] = lint_score([("tiered", tiered)], oset8, bundle, EchoProvider(), k=1)
        payload = run.to_json()
        assert set(payload) == {
            "program_id",
            "source",
            "explanation",
            "verdicts",
            "trials",
            "aggregated",
            "error",
            "provenance",
        }
        json.dumps(payload)  # must be serializable as-is

    def test_replay_cache_reproduces_run(self, bundle, tiered, oset8, tmp_path):
        recording = CachingProvider(tmp_path / "cache", EchoProvider())
        _, [original] = lint_score([("tiered", tiered)], oset8, bundle, recording, k=2)
        replay = ReplayCacheProvider(tmp_path / "cache", model="mock-echo")
        _, [replayed_a] = lint_score([("tiered", tiered)], oset8, bundle, replay, k=2)
        _, [replayed_b] = lint_score([("tiered", tiered)], oset8, bundle, replay, k=2)
        assert replayed_a.aggregated == original.aggregated
        assert replayed_a.explanation == original.explanation
        assert [t.to_json() for t in replayed_a.trials] == [
            t.to_json() for t in original.trials
        ]
        assert json.dumps(replayed_a.to_json(), sort_keys=True) == json.dumps(
            replayed_b.to_json(), sort_keys=True
        )


class TestLintScore:
    def test_echo_over_pool_is_perfect(self, bundle, pool8, oset8):
        score, runs = lint_score(pool8, oset8, bundle, EchoProvider(), k=2)
        assert score == {"action": 1.0, "outcome": 1.0, "feature": 0.0}
        assert [run.program_id for run in runs] == [ident for ident, _ in pool8]

    def test_empty_provider_means_per_program_compare(
        self, bundle, pool8, empty_program, oset8
    ):
        subset = pool8[:3]
        score, runs = lint_score(subset, oset8, bundle, EmptyProvider(), k=1)
        reports = [
            compare([(program, empty_program)], oset8)[0] for _, program in subset
        ]
        assert score["action"] == pytest.approx(
            sum(r.action for r in reports) / len(reports)
        )
        assert score["outcome"] == pytest.approx(
            sum(r.outcome for r in reports) / len(reports)
        )
        assert score["feature"] == pytest.approx(
            sum(r.feature for r in reports) / len(reports)
        )

    def test_thread_pool_preserves_order_and_score(self, bundle, pool8):
        """Threads only carry provider calls: every run's bytes and the
        matches each opponent keeps equal the serial run's."""
        subset = pool8[:4]
        outputs = {}
        for workers in (1, 4):
            oset = OpponentSet.from_file(data_path("opponents8.json"))
            score, runs = lint_score(
                subset, oset, bundle, LineDropProvider(q=0.3, seed=2), k=2,
                workers=workers,
            )
            assert [run.program_id for run in runs] == [i for i, _ in subset]
            outputs[workers] = (
                score,
                [json.dumps(run.to_json(), sort_keys=True) for run in runs],
                [len(played) for played in oset._played],
                oset.reports,
            )
        assert outputs[4] == outputs[1]

    def test_scripted_runs_are_equal_at_any_workers(self, bundle):
        """A scripted provider answers lists in call order, so threads that
        shared it would hand programs each other's responses: only an http
        provider's calls run on threads."""
        from lintscore.harness import load_program_set

        pool = load_program_set("pool16")
        sources = [print_program(program) for _, program in pool]
        outputs = {}
        for workers in (8, 1):
            provider = ScriptedProvider(
                {
                    "explainer": [wrap("explanation", f"Plan {i}.") for i in range(40)],
                    "verifier": ACCEPT_RESPONSE,
                    "reconstructor": [wrap("strategy", s) for s in sources * 2],
                }
            )
            oset = OpponentSet.from_file(data_path("opponents8.json"))
            _, runs = lint_score(pool, oset, bundle, provider, k=2, workers=workers)
            outputs[workers] = [json.dumps(run.to_json(), sort_keys=True) for run in runs]
        assert outputs[8] == outputs[1]

    def test_each_sample_pair_is_keyed_once(self, bundle, pool8, keyed_pairs):
        """One ``compare`` call measures every (π, sample) pair, and no
        caller looks a report up again."""
        oset = OpponentSet.from_file(data_path("opponents8.json"))
        _, runs = lint_score(
            pool8, oset, bundle, LineDropProvider(q=0.3, seed=4), k=3
        )
        parsed = [
            (run.source, trial.source)
            for run in runs
            for trial in run.trials
            if not trial.failed
        ]
        assert parsed
        assert [
            (print_program(pi), print_program(sample)) for pi, sample in keyed_pairs
        ] == parsed
        # trials of one program with equal texts share one parsed sample
        distinct = {
            (run.program_id, trial.source)
            for run in runs
            for trial in run.trials
            if not trial.failed
        }
        assert len(distinct) < len(parsed)
        assert len({id(sample) for _, sample in keyed_pairs}) == len(distinct)

    def test_rejects_empty_inputs(self, bundle, oset8):
        with pytest.raises(ValueError):
            lint_score([], oset8, bundle, EchoProvider())

    def test_rejects_non_positive_k(self, bundle, pool8, oset8):
        with pytest.raises(ValueError):
            lint_score(pool8[:1], oset8, bundle, EchoProvider(), k=0)


class TestKshotBaseline:
    """``kshot_baseline`` picks the best of one program's k-shot trials,
    which ``score_samples`` scores."""

    def test_echo_is_reflexive(self, bundle, tiered, oset8):
        samples = kshot_samples("a small map", bundle, EchoProvider(), 3, tiered)
        [trials] = score_samples([(tiered, samples)], oset8)
        best = kshot_baseline(trials)
        assert (best.action, best.outcome, best.feature) == (1.0, 1.0, 0.0)
        assert best.trial == 0
        assert len(trials) == 3

    def test_empty_provider_matches_compare(
        self, bundle, tiered, empty_program, oset8
    ):
        samples = kshot_samples("a small map", bundle, EmptyProvider(), 2, tiered)
        [trials] = score_samples([(tiered, samples)], oset8)
        best = kshot_baseline(trials)
        report = compare([(tiered, empty_program)], oset8)[0]
        assert best.action == pytest.approx(report.action)
        assert best.feature == pytest.approx(report.feature)

    def test_best_trial_selection(self, bundle, tiered, oset8):
        perfect = print_program(tiered)
        provider = ScriptedProvider(
            {
                "kshot": [
                    wrap("strategy", "gibberish %%%"),
                    wrap("strategy", ""),
                    wrap("strategy", perfect),
                ]
            }
        )
        samples = kshot_samples("map", bundle, provider, 3, tiered)
        [trials] = score_samples([(tiered, samples)], oset8)
        best = kshot_baseline(trials)
        assert best.trial == 2
        assert best.action == 1.0
        assert trials[0].error is not None

    def test_tie_goes_to_earliest_trial(self, bundle, tiered, oset8):
        perfect = print_program(tiered)
        provider = ScriptedProvider({"kshot": wrap("strategy", perfect)})
        samples = kshot_samples("map", bundle, provider, 3, tiered)
        [trials] = score_samples([(tiered, samples)], oset8)
        assert kshot_baseline(trials).trial == 0

    def test_rejects_non_positive_k(self, bundle, tiered, oset8):
        with pytest.raises(ValueError):
            kshot_samples("map", bundle, EchoProvider(), 0, tiered)


class TestLineDropProvider:
    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            LineDropProvider(q=1.5)
        with pytest.raises(ValueError):
            LineDropProvider(q=-0.1)

    def test_q_zero_is_echo(self, bundle, tiered):
        source = print_program(tiered)
        samples = reconstruct(source, bundle, LineDropProvider(0.0, seed=5), k=2)
        assert all(print_program(sample) == source for sample in samples)

    def test_only_command_lines_dropped(self, tiered):
        source = print_program(tiered)
        provider = LineDropProvider(1.0, seed=0)
        request = PromptRequest(
            "reconstructor", "prompt", 0, explanation=source
        )
        body = provider.complete(request)
        inner = body[len("<strategy>") : -len("</strategy>")]
        for line in inner.splitlines():
            stripped = line.strip()
            assert not stripped.startswith("u.")
            assert stripped != "e"
        # Structure-only text still parses.
        parse(inner)

    def test_drop_sets_nested_across_q(self, tiered):
        source = print_program(tiered)
        request = PromptRequest("reconstructor", "prompt", 0, explanation=source)

        def kept_lines(q):
            body = LineDropProvider(q, seed=3).complete(request)
            inner = body[len("<strategy>") : -len("</strategy>")]
            return [line for line in inner.splitlines() if line.strip()]

        kept_low = kept_lines(0.2)
        kept_high = kept_lines(0.5)
        assert set(kept_high) <= set(kept_low)
        assert len(kept_high) <= len(kept_low)

    def test_deterministic_per_trial(self, tiered):
        source = print_program(tiered)
        provider = LineDropProvider(0.5, seed=9)
        request = PromptRequest("reconstructor", "p", 1, explanation=source)
        assert provider.complete(request) == provider.complete(request)
        other_trial = PromptRequest("reconstructor", "p", 2, explanation=source)
        assert provider.complete(request) != provider.complete(other_trial)


class TestScriptedProvider:
    def test_list_consumed_then_last_repeats(self):
        provider = ScriptedProvider({"verifier": ["A", "B"]})
        request = PromptRequest("verifier", "p")
        assert [provider.complete(request) for _ in range(4)] == [
            "A",
            "B",
            "B",
            "B",
        ]

    def test_string_always_repeats(self):
        provider = ScriptedProvider({"explainer": "same"})
        request = PromptRequest("explainer", "p")
        assert [provider.complete(request) for _ in range(3)] == ["same"] * 3

    def test_missing_role_raises(self):
        provider = ScriptedProvider({"explainer": "x"})
        with pytest.raises(ProviderError, match="no scripted response"):
            provider.complete(PromptRequest("verifier", "p"))

    def test_call_log_and_counts(self):
        provider = ScriptedProvider({"explainer": "x", "verifier": "y"})
        provider.complete(PromptRequest("explainer", "p1"))
        provider.complete(PromptRequest("verifier", "p2"))
        provider.complete(PromptRequest("explainer", "p3"))
        assert provider.calls("explainer") == 2
        assert provider.calls("verifier") == 1
        assert [r.prompt for r in provider.call_log] == ["p1", "p2", "p3"]


class TestMockRoleDispatch:
    def test_unknown_role_raises(self):
        with pytest.raises(ProviderError, match="cannot handle role"):
            EchoProvider().complete(PromptRequest("painter", "p"))

    def test_empty_provider_reconstruction_is_empty_program(self):
        response = EmptyProvider().complete(
            PromptRequest("reconstructor", "p", explanation="whatever")
        )
        assert response == "<strategy></strategy>"
        assert parse("") == parse(
            response[len("<strategy>") : -len("</strategy>")]
        )
