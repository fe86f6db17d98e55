"""A scoring process loads no standard-library module it never calls.

``statistics`` (with ``decimal`` and ``fractions``), ``subprocess``,
``datetime``, ``concurrent.futures`` and ``tempfile`` are imported inside the
one function that uses each, so importing the harness and the pipeline and
scoring with an in-memory provider leaves them out of ``sys.modules``.  The
child runs with ``-S``: a ``site`` hook may import some of them itself,
which would hide an import that this package adds.
"""
import json
import subprocess
import sys
from pathlib import Path

import lintscore

LAZY = (
    "statistics",
    "decimal",
    "fractions",
    "subprocess",
    "datetime",
    "concurrent.futures",
    "tempfile",
)

SCRIPT = """
import json, sys
sys.path.insert(0, {root!r})
import lintscore.harness, lintscore.pipeline
from lintscore.harness import load_opponent_set, load_program_set
from lintscore.pipeline import EchoProvider, lint_score, load_bundle

programs = load_program_set("pool8")[:3]
score, runs = lint_score(
    programs,
    load_opponent_set("standard-8"),
    load_bundle("microrts"),
    EchoProvider(),
    k=1,
)
print(json.dumps({{
    "loaded": sorted(name for name in {lazy!r} if name in sys.modules),
    "errors": [run.error for run in runs if run.error is not None],
    "score": score,
}}))
"""


def test_scoring_loads_no_lazy_module():
    root = str(Path(lintscore.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT.format(root=root, lazy=LAZY)],
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["errors"] == []
    assert result["score"]["action"] == 1.0
    assert result["loaded"] == []
