"""Black-box I/O equivalence: normalization, suites, and the metric itself.

Python one-liners stand in for compiled programs; the metric only sees
argv-style commands and stdin/stdout.
"""
import sys
from collections import Counter

import pytest

from lintscore.metrics import (
    ExecFailure,
    generate_suite,
    io_metric,
    load_suite,
    normalize_output,
)
from lintscore.resources import ConfigError

PY = sys.executable

ECHO = [PY, "-c", "import sys; sys.stdout.write(sys.stdin.read())"]
SUCCESSOR = [PY, "-c", "n = int(input().split()[0]); print(n + 1)"]
WRONG = [PY, "-c", "n = int(input().split()[0]); print(n - 1)"]
CRASH = [PY, "-c", "raise SystemExit(1)"]
SLEEPER = [PY, "-c", "import time; time.sleep(30)"]


class TestNormalizeOutput:
    def test_trailing_whitespace_per_line_ignored(self):
        assert normalize_output("a  \nb\t\n") == "a\nb"

    def test_trailing_blank_lines_ignored(self):
        assert normalize_output("a\nb\n\n\n") == "a\nb"

    def test_interior_blank_lines_kept(self):
        assert normalize_output("a\n\nb\n") == "a\n\nb"

    def test_leading_whitespace_significant(self):
        assert normalize_output("  a\n") != normalize_output("a\n")

    def test_empty_and_whitespace_only(self):
        assert normalize_output("") == ""
        assert normalize_output("\n  \n") == ""


class TestIoMetric:
    def test_identical_commands_full_match(self):
        inputs = generate_suite(1, count=5)
        report = io_metric(ECHO, ECHO, inputs)
        assert report.value == 1.0
        assert report.total == 5
        assert report.matched == 5
        assert report.mismatched == []
        assert report.failures == []

    def test_formatting_differences_do_not_count(self):
        noisy = [
            PY,
            "-c",
            "import sys; sys.stdout.write(sys.stdin.read().rstrip() + '   \\n\\n')",
        ]
        report = io_metric(ECHO, noisy, generate_suite(2, count=4))
        assert report.value == 1.0

    def test_always_wrong_candidate_scores_zero(self):
        inputs = generate_suite(3, count=4)
        report = io_metric(SUCCESSOR, WRONG, inputs)
        assert report.value == 0.0
        assert report.mismatched == [0, 1, 2, 3]
        assert report.failures == []

    def test_candidate_crash_counts_as_mismatch(self):
        inputs = generate_suite(4, count=3)
        report = io_metric(SUCCESSOR, CRASH, inputs)
        assert report.value == 0.0
        assert report.mismatched == [0, 1, 2]
        assert report.failures == [
            {"input": 0, "reason": "exit code 1"},
            {"input": 1, "reason": "exit code 1"},
            {"input": 2, "reason": "exit code 1"},
        ]

    def test_candidate_timeout_counts_as_mismatch(self):
        report = io_metric(SUCCESSOR, SLEEPER, ["1\n"], timeout=0.5)
        assert report.value == 0.0
        assert report.failures == [{"input": 0, "reason": "timeout"}]

    def test_reference_failure_raises(self):
        with pytest.raises(ExecFailure, match="input 0"):
            io_metric(CRASH, SUCCESSOR, ["1\n"])

    def test_reference_timeout_raises(self):
        with pytest.raises(ExecFailure, match="timeout"):
            io_metric(SLEEPER, SUCCESSOR, ["1\n"], timeout=0.5)

    def test_reference_that_cannot_run_raises(self, tmp_path):
        missing = str(tmp_path / "no-such-program")
        with pytest.raises(ExecFailure, match="input 0: cannot run") as info:
            io_metric([missing], SUCCESSOR, ["1\n"])
        assert missing in str(info.value)

    def test_candidate_that_cannot_run_counts_as_mismatch(self, tmp_path):
        missing = str(tmp_path / "no-such-program")
        report = io_metric(SUCCESSOR, [missing], ["1\n", "2\n"])
        assert report.value == 0.0
        assert report.mismatched == [0, 1]
        assert [failure["input"] for failure in report.failures] == [0, 1]
        for failure in report.failures:
            assert failure["reason"].startswith("cannot run: ")
            assert missing in failure["reason"]

    def test_output_that_is_not_utf8_keeps_bytes_distinct(self):
        # decoded with errors="replace", both outputs would read "\ufffd"
        first = [PY, "-c", "import sys; sys.stdout.buffer.write(b'\\xff\\n')"]
        second = [PY, "-c", "import sys; sys.stdout.buffer.write(b'\\xfe\\n')"]
        assert io_metric(first, first, ["1\n"]).value == 1.0
        report = io_metric(first, second, ["1\n"])
        assert report.value == 0.0
        assert report.failures == []

    def test_seeded_mutant_hits_exact_fraction(self):
        # Flip the answer on three values that each occur exactly once in
        # the suite, giving a known 17-of-20 agreement.
        inputs = generate_suite(0)
        values = [int(text.split()[0]) for text in inputs]
        counts = Counter(values)
        chosen = [v for v in values if counts[v] == 1][:3]
        assert len(chosen) == 3
        mutant = [
            PY,
            "-c",
            (
                "n = int(input().split()[0]); "
                f"print(n + 2 if n in {set(chosen)!r} else n + 1)"
            ),
        ]
        report = io_metric(SUCCESSOR, mutant, inputs)
        assert report.value == pytest.approx(0.85)
        assert report.matched == 17
        assert report.mismatched == [
            i for i, v in enumerate(values) if v in chosen
        ]

    def test_empty_input_suite_is_vacuous_match(self):
        report = io_metric(SUCCESSOR, WRONG, [])
        assert report.value == 1.0
        assert report.total == 0


class TestSuites:
    def test_generate_suite_is_seed_deterministic(self):
        assert generate_suite(7) == generate_suite(7)
        assert generate_suite(7) != generate_suite(8)

    def test_generate_suite_shape(self):
        suite = generate_suite(0, count=6, values_per_line=3)
        assert len(suite) == 6
        for text in suite:
            assert text.endswith("\n")
            parts = text.split()
            assert len(parts) == 3
            assert all(0 <= int(p) <= 99 for p in parts)

    def test_load_suite_name_ordered(self, tmp_path):
        (tmp_path / "b.txt").write_text("2\n")
        (tmp_path / "a.txt").write_text("1\n")
        (tmp_path / "c.txt").write_text("3\n")
        (tmp_path / "sub").mkdir()
        assert load_suite(tmp_path) == ["1\n", "2\n", "3\n"]

    def test_load_suite_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_suite(tmp_path)

    def test_load_suite_rejects_a_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1\n")
        with pytest.raises(ConfigError, match="is not a directory"):
            load_suite(path)

    def test_load_suite_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"1\xff\n")
        with pytest.raises(ConfigError) as info:
            load_suite(tmp_path)
        assert f"cannot read {path}: not UTF-8" in str(info.value)
