#!/usr/bin/env python3
"""macroqkd benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round of a workload runs in a fresh
single-threaded Python process (``worker.py``), so every round pays the
set-up a ``macroqkd`` invocation pays and starts with cold caches.

``--trace 0`` starts three set-up probes, then as many whole rounds as fit in
``--seconds``, and reports the end-to-end metrics: medians over the rounds
of ``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and the median ``setup_s`` over
probes and rounds. ``--trace 1`` runs pairs of one plain round and one
traced round instead and reports the per-layer metrics, medians over the
pairs. The last line of standard output is the JSON result; the result with
every round's figures and trace is also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_PROBES = 3
ATTACK_KINDS = ("none", "intercept_resend", "beamsplitter_tap", "dual_basis", "superior_channel")
# Single-threaded BLAS, and a fixed hash seed so set and dict layouts repeat.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, workdir: Path, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before the next round")
    env = {**os.environ, **CHILD_ENV}
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--t0", repr(t0), "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} round of {workload} ran past the deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} round of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def whole_rounds(seconds: float):
    """Yield while another round, as long as the longest so far, still ends
    within ``seconds`` of the first; always at least once."""
    start = last = time.monotonic()
    longest = 0.0
    while True:
        yield
        now = time.monotonic()
        longest = max(longest, now - last)
        last = now
        if now + longest - start > seconds:
            return


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path, deadline: float):
    setups = [spawn(workload, seed, "probe", workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    for _ in whole_rounds(seconds):
        rounds.append(spawn(workload, seed, "round", workdir, deadline))
    setups += [r["setup_s"] for r in rounds]
    metrics = {
        "wall_s": (median([r["wall_s"] for r in rounds]), "s"),
        "cpu_s": (median([r["cpu_s"] for r in rounds]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rounds]), "MiB"),
    }
    return rounds, metrics, {"setup_samples": setups, "rounds": rounds}


def per_layer(workload: str, seed: int, seconds: float, workdir: Path, deadline: float):
    pairs = []
    for _ in whole_rounds(seconds):
        plain = spawn(workload, seed, "round", workdir, deadline)
        traced = spawn(workload, seed, "traced", workdir, deadline)
        pairs.append((plain, traced))
    plains = [p for p, _ in pairs]
    traces = [t["trace"] for _, t in pairs]
    metrics = {}
    for name in traces[0]["functions"]:
        metrics[f"{name}.calls"] = (median([t["functions"][name]["calls"] for t in traces]), "count")
        metrics[f"{name}.self_s"] = (median([t["functions"][name]["self_s"] for t in traces]), "s")
    for name in traces[0]["hit_ratio"]:
        metrics[f"{name}.hit_ratio"] = (median([t["hit_ratio"][name] for t in traces]), "ratio")
    for name in ("gaussian.states_built", "fock.rotate_exact.amplitudes"):
        metrics[name] = (median([t[name] for t in traces]), "count")
    for kind in ATTACK_KINDS:
        key = f"pulses_per_s.{kind}"
        metrics[f"protocol.{key}"] = (median([p["extras"].get(key, 0.0) for p in plains]), "1/s")
    per_session = plains[0]["extras"].get("pulses_per_session")
    growth = median([p["rss_growth_mb"] for p in plains])
    metrics["protocol.bytes_per_pulse"] = (growth * 2**20 / per_session if per_session else 0.0, "bytes")
    metrics["cli.bytes_written"] = (median([p["extras"].get("bytes_written", 0) for p in plains]), "bytes")
    metrics["trace.overhead_s"] = (
        median([t["wall_s"] for _, t in pairs]) - median([p["wall_s"] for p in plains]), "s"
    )
    metrics["trace.unattributed_s"] = (
        median([
            t["wall_s"] - sum(f["self_s"] for f in t["trace"]["functions"].values()) for _, t in pairs
        ]),
        "s",
    )
    rounds = [r for pair in pairs for r in pair]
    return rounds, metrics, {"pairs": [{"plain": p, "traced": t} for p, t in pairs]}


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("session_attacks", "figure_sweeps", "oracle_ladder"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "macroqkd" / "__init__.py").is_file():
        print(f"no macroqkd source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        rounds, metrics, detail = measure(args.workload, args.seed, args.seconds, workdir, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    if sorted(declared) != sorted(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 1
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not any(r["problem_count"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
