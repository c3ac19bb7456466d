"""One fresh, single-threaded process of the benchmark: set up, do one round
of a workload, check it, print one JSON line.

    python3 perfbench/worker.py --workload W --seed S --mode M --t0 T --workdir D

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers interpreter
start, ``import macroqkd`` and building the workload's inputs. Mode
``probe`` stops there; ``round`` times the work; ``traced`` times it with
the per-layer wrappers installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "round", "traced"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import macroqkd

    if Path(macroqkd.__file__).resolve().parent != ROOT / "src" / "macroqkd":
        print(f"imported macroqkd from {macroqkd.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rss_before = _peak_rss_mib()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    out = workload.run()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_after = _peak_rss_mib()
    attempted, failed, problems, extras = workload.check(out)
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=rss_after,
        rss_growth_mb=rss_after - rss_before,
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
        problem_count=len(problems),
        extras=extras,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
