"""One benchmark process: set up a workload, then repeat its pass until the
time is up, and print one JSON line with the raw measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T [--setup-only] [--trace-out FILE]

With ``--trace-out`` the set-up and every second pass run traced, and the
spans go to FILE.

``run.py`` starts this as a fresh process, so set-up includes the interpreter
and the imports a CLI user pays: ``setup_s`` runs from the parent's
CLOCK_MONOTONIC reading just before the spawn (``--spawned-at``; the clock is
system-wide on Linux) to just before the first replicate.

A run repeats the pass while the next one, at the median pass time so far,
would end within ``--seconds``; it always runs at least one.

Every pass runs the same replicates on the same inputs. Each result must
pass its workload check and equal the first pass's result byte for byte;
otherwise the replicate counts as failed. The digest is a sha256 over the
first pass's results.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(replicates, first, tracer=None, pass_no=0):
    """Run every replicate once; returns (records, latencies_ms, problems).
    A replicate that raised has latency None."""
    records, latencies, problems = [], [], []
    for i, rep in enumerate(replicates):
        if tracer is not None:
            tracer.replicate = [pass_no, i]
        t0 = time.perf_counter()
        try:
            record, evidence = rep.work()
        except Exception as exc:  # a replicate that raises counts as failed
            records.append(f"raised {type(exc).__name__}")
            latencies.append(None)
            problems.append(f"{rep.label}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append((time.perf_counter() - t0) * 1e3)
        text = json.dumps(record, sort_keys=True)
        records.append(text)
        problem = rep.check(record, evidence)
        if problem is None and first is not None and text != first[i]:
            problem = "result differs from the first pass"
        if problem is not None:
            problems.append(f"{rep.label}: {problem}")
    if tracer is not None:
        tracer.replicate = None
    return records, latencies, problems


def digest(replicates, records) -> str:
    h = hashlib.sha256()
    for rep, text in zip(replicates, records):
        h.update(f"{rep.label}\t{text}\n".encode())
    return h.hexdigest()


def measure(replicates, seconds: float, tracer=None) -> dict:
    """Repeat the pass for ``seconds``. With a tracer, the passes alternate
    untraced and traced, so that both see the same host; the traced ones
    start with the second pass, and at least one runs."""
    first = None
    pass_s, traced, latencies, problems = [], [], [], []
    attempted = 0
    min_passes = 1 if tracer is None else 2
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(pass_s) % 2 == 1
        with tracer.installed() if on else contextlib.nullcontext():
            t0 = time.perf_counter()
            records, lat, probs = run_pass(replicates, first, tracer if on else None, len(pass_s))
            pass_s.append(time.perf_counter() - t0)
        traced.append(on)
        attempted += len(replicates)
        latencies.append(lat)
        problems += probs
        if first is None:
            first = records
        # stop before a pass that would end past the deadline
        if len(pass_s) >= min_passes and time.perf_counter() - start + statistics.median(pass_s) > seconds:
            break
    return {
        "pass_s": pass_s,
        "traced": traced,
        "latency_ms": latencies,  # [pass][replicate]
        "replicates_per_pass": len(replicates),
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "digest": digest(replicates, first),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's CLOCK_MONOTONIC at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    import workloads  # imports the program: part of set-up

    tracer = None
    if args.trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        replicates = workloads.setup(args.workload, args.seed)
    out = {"setup_s": monotonic() - args.spawned_at, "job_passes": workloads.JOB_PASSES[args.workload]}
    if not args.setup_only:
        out.update(measure(replicates, args.seconds, tracer))
    if args.setup_only:
        print(json.dumps(out))
        return 0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["metadata"] = run_metadata()
    if tracer is not None:
        traced_s = [t for t, on in zip(out["pass_s"], out["traced"]) if on]
        plain_s = [t for t, on in zip(out["pass_s"], out["traced"]) if not on]
        tracer.write(args.trace_out)
        out["spans"] = len(tracer.spans)
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        job_s = out["setup_s"] + statistics.median(traced_s) * out["job_passes"]
        out["layers"] = tracing.summarize(tracer.spans, out["job_passes"], len(traced_s), job_s, names)
        out["layers"]["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    print(json.dumps(out))
    return 0


def run_metadata() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main())
