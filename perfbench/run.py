"""Benchmark entry point: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each measurement runs in a fresh worker process (``worker.py``)
with one caller in a closed loop: a replicate starts when the previous one
has finished. ``BENCHMARK.json`` names the metrics and their units.

``--trace 0`` reports the end-to-end metrics. Set-up time is the median over
``SETUP_PROBES`` set-up-only processes, half started before the measuring
process and half after it, and the measuring process itself.
``wall_s`` is the workload's whole job: that set-up plus the job's passes,
each at the run's median pass time. ``replicate_p50_ms`` is the median over
the pass's replicates of each one's mean latency over its repeats: where
the CPU speed swings within seconds, a median over single runs of short
replicates only tells which speed held most of the run (DESIGN.md, Host
noise). ``replicate_tail_ms`` is taken over every replicate run, at the
highest whole percentile with at least ten runs beyond it.

``--trace 1`` reports the per-layer metrics. One process sets up traced and
then alternates untraced and traced passes; ``trace.overhead_ratio`` is the
ratio of their median pass times, less 1. The spans are written to
``perfbench/out/``.

The last line of standard output is the JSON result. A run whose program
cannot be found, or whose worker fails, exits nonzero without one.
"""
from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_PROBES = 4
WORKER_SLACK_S = 60  # a worker's set-up plus the passes that always run


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, *extra: str, timeout: float) -> dict:
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(spawned), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[int, float]:
    """(q, latency at percentile q) for the highest whole q < 100 with at
    least ten replicates beyond it; the median when there are fewer than 20."""
    n = len(latencies)
    q = max([p for p in range(50, 100) if n * (100 - p) / 100 >= 10], default=50)
    ordered = sorted(latencies)
    pos = (n - 1) * q / 100  # linear interpolation between closest ranks
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    # half the set-up probes before the measuring process and half after, so
    # that setup_s samples the host at both ends of the run
    before = SETUP_PROBES // 2
    probes = [spawn(workload, seed, "--setup-only", timeout=WORKER_SLACK_S) for _ in range(before)]
    run = spawn(workload, seed, "--seconds", str(seconds), timeout=seconds + WORKER_SLACK_S)
    probes += [spawn(workload, seed, "--setup-only", timeout=WORKER_SLACK_S) for _ in range(SETUP_PROBES - before)]
    setup_s = statistics.median([p["setup_s"] for p in probes] + [run["setup_s"]])
    pass_s = statistics.median(run["pass_s"])
    lat = [x for per_pass in run["latency_ms"] for x in per_pass if x is not None]
    q, tail = tail_latency(lat)
    repeats = ([x for x in xs if x is not None] for xs in zip(*run["latency_ms"]))
    mean_lat = [statistics.fmean(xs) for xs in repeats if xs]
    metrics = {
        "wall_s": setup_s + run["job_passes"] * pass_s,
        "setup_s": setup_s,
        "replicates_per_s": run["replicates_per_pass"] / pass_s,
        "replicate_p50_ms": statistics.median(mean_lat),
        "replicate_tail_ms": tail,
        "peak_rss_mb": run["peak_rss_mb"],
        "failed_ratio": run["failed"] / run["attempted"],
    }
    notes = [
        f"replicate_tail_ms is p{q} over {len(lat)} replicates",
        f"ran {len(run['pass_s'])} passes of {run['replicates_per_pass']} replicates; "
        f"a job is {run['job_passes']} passes; set-up probes {SETUP_PROBES} + 1",
    ]
    return metrics, run, notes


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    run = spawn(workload, seed, "--seconds", str(seconds), "--trace-out", str(spans_file),
                timeout=seconds + WORKER_SLACK_S)
    notes = [f"{run['spans']} spans of {sum(run['traced'])} traced passes and set-up "
             f"written to {spans_file.relative_to(ROOT)}"]
    return run["layers"], run, notes


def _stop(signum, frame):
    # unwinding through subprocess.run kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cochainlab" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'cochainlab'}; "
              "run from the root of a cochainlab checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            metrics, run, notes = per_layer(args.workload, args.seed, args.seconds)
        else:
            metrics, run, notes = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("run " + json.dumps(run["metadata"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units.get(name, 'ratio')}")
    for note in notes:
        print(note)
    print(f"digest sha256 {run['digest']}")
    for problem in run["problems"]:
        print(f"FAILED {problem}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
