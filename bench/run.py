"""Cold-cache LINT scoring benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every repetition is a fresh interpreter
(``repetition.py``), so each starts from an empty match cache and reports its
own peak memory.  Without tracing, a run repeats the workload for about
``--seconds`` seconds (at least ``MIN_REPS`` times) and reports medians of
the end-to-end metrics.  With ``--trace 1`` it makes one untraced and two
traced repetitions and reports the per-layer metrics; the two traced
repetitions must agree exactly on every work counter.

Outputs are checked against ``reference.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when the outputs are wrong.
See ``README.md`` for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Scratch space of the repetitions: replay cache and experiment output.
WORK_ROOT = ROOT / "bench" / "_work"
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 2
SETUPS_PER_REP = 1
TRACED_REPS = 2
# A workload's run stops repeating before this many seconds and aborts if a
# repetition is still running then.
RUN_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class ChildFailed(RuntimeError):
    """A repetition process exited abnormally or printed no result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable,
                str(ROOT / "bench" / "repetition.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--mode", mode,
                "--t0", repr(t0),
                "--work", work,
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - t0, 1.0),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} repetition exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(
    workload: str, seed: int, seconds: float, deadline: float
) -> tuple[list[dict], list[float]]:
    """Timed repetitions for about ``seconds``, each preceded by
    ``SETUPS_PER_REP`` set-up-only processes.

    Set-up takes well under a second, so it is sampled more often than the
    body, and spread over the run like the body's samples.
    """
    start = time.monotonic()
    reps: list[dict] = []
    setups: list[float] = []
    while True:
        for _ in range(SETUPS_PER_REP):
            setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
        reps.append(spawn(workload, seed, "timed", deadline))
        setups.append(reps[-1]["setup_s"])
        now = time.monotonic()
        per_rep = (now - start) / len(reps)
        # Stop when one more repetition would end past ``seconds`` by more
        # than half its length, so runs average about ``seconds``, or would
        # end past the deadline.
        if len(reps) >= MIN_REPS and (
            now + per_rep / 2 > start + seconds or now + per_rep > deadline
        ):
            return reps, setups


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        untraced = [spawn(workload, seed, "timed", deadline)]
        traced = [spawn(workload, seed, "traced", deadline) for _ in range(TRACED_REPS)]
        reps = untraced + traced
    else:
        untraced, setups = measure(workload, seed, seconds, deadline)
        reps = untraced
    if any(rep["output"] is None for rep in reps):
        problems = ["a repetition raised"]
    else:
        problems = workloads.check(workload, seed, [rep["output"] for rep in reps])
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["attempted"] if problems else rep["failed"] for rep in reps)

    if trace:
        per_rep = [rep["layers"] for rep in traced]
        for name in layers.EXACT:
            if len({values[name] for values in per_rep}) != 1:
                problems.append(f"{name} differs between traced repetitions")
        metrics = {
            name: {
                "value": per_rep[0][name]
                if name in layers.EXACT
                else statistics.median(values[name] for values in per_rep),
                "unit": unit,
            }
            for name, unit, _ in layers.METRICS
        }
        overhead = statistics.median(rep["wall_s"] for rep in traced) - untraced[0]["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        samples = {
            "setup_s": setups,
            "wall_s": [rep["wall_s"] for rep in reps],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        }
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "workload": workload,
        "seed": seed,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "repetitions": [
            {k: rep[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "failed")}
            for rep in reps
        ],
    }


def machine_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def report(result: dict) -> None:
    print(f"{result['workload']} (seed {result['seed']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"  {'failed_frac':32s} {result['failed'] / result['attempted']:14.6g} "
        f"frac ({result['failed']} of {result['attempted']} programs)"
    )
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *workloads.SETUPS]
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: the pinned seed of each workload)",
    )
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lintscore" / "__init__.py").is_file():
        print(f"no lintscore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.SETUPS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    results = []
    try:
        for name in names:
            seed = args.seed if args.seed is not None else workloads.DEFAULT_SEED.get(name, 0)
            result = run_workload(name, seed, args.seconds, bool(args.trace))
            report(result)
            results.append(result)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_end"] = os.getloadavg()
    print(json.dumps({"machine": facts, "results": results}))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in results
            for name, metric in r["metrics"].items()
        }
    correct = not any(r["problems"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
