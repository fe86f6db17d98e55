"""One repetition of one workload, in a fresh interpreter.

    python3 bench/repetition.py --workload NAME --seed N --mode MODE --t0 T --work DIR

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and input loading.
MODE is ``setup`` (stop once the inputs are ready), ``timed`` (run the body
untraced) or ``traced`` (run the body with every layer wrapped).  The last
line of standard output is one JSON object with the measurements.  DIR is
scratch space that the caller creates and removes.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    import lintscore

    src = (ROOT / "src").resolve()
    if src not in Path(lintscore.__file__).resolve().parents:
        raise SystemExit(f"lintscore imported from outside {src}")

    prepared = workloads.SETUPS[args.workload](args.seed, args.work)
    result: dict = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        raw = prepared.body()
    except Exception:
        # The boundary of one repetition: report the failure, keep the run.
        traceback.print_exc()
        raw = None
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    if raw is None:
        output, failed = None, prepared.attempted
    else:
        output, failed = prepared.outcome(raw)
    result.update(output=output, attempted=prepared.attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
