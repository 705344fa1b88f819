"""Tests of the benchmark itself: it runs what the CLI drivers run, its
checks catch wrong output, its digest and computed counts repeat, and its
metric names match BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from cochainlab import complexes  # noqa: E402
from cochainlab.lab.config import ExperimentConfig  # noqa: E402
from cochainlab.lab.experiments import (  # noqa: E402
    _log_fraction,
    run_betti_trend,
    run_ez1_trend,
    run_layer_audit,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (0, 20250906)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.JOB_PASSES) == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    # every per-layer name resolves to a traced function or a computed count
    names = [m["name"] for m in SPEC["per_layer"]]
    out = tracing.summarize([], 1, 1, 1.0, names)
    assert set(out) | {"trace.overhead_ratio"} == set(names)


# ---------------------------------------------------------------------------
# driver parity: the replicate loop reproduces the lab.experiments drivers


@pytest.mark.parametrize("seed", SEEDS)
def test_hypertree_replicates_match_ez1_trend(seed):
    n, samples = 12, 3
    cfg = ExperimentConfig(seed=seed, model="hypertree", n_values=(n,), samples=samples, group=workloads.Z2)
    table = run_ez1_trend(cfg)
    kernel = complexes.build_kernel(n)
    counts = [workloads.hypertree(cfg, kernel, n, rep)[0]["cocycles_z2"] for rep in range(samples)]
    assert table.column("log_mean_cocycles") == [_log_fraction(Fraction(sum(counts), samples))]


@pytest.mark.parametrize("seed", SEEDS)
def test_one_out_replicates_match_betti_trend(seed):
    n, samples = 14, 4
    cfg = ExperimentConfig(
        seed=seed, model="one-out", n_values=(n,), primes=(2, 3), samples=samples, include_mg=True
    )
    table = run_betti_trend(cfg)
    records = [workloads.one_out(cfg, n, rep)[0] for rep in range(samples)]
    nn = float(n * n)
    mgs = [r["min_generators"] for r in records]
    for row_p, key in ((2, "h1_f2"), (3, "h1_f3")):
        arr = np.asarray([r[key] for r in records], dtype=float)
        row = dict(zip(table.columns, next(r for r in table.rows if r[table.columns.index("p")] == row_p)))
        assert row["min_norm"] == float(arr.min()) / nn
        assert row["median_norm"] == float(np.median(arr)) / nn
        assert row["max_norm"] == float(arr.max()) / nn
        assert row["mean_norm"] == float(arr.mean()) / nn
        assert row["mg_median_norm"] == float(np.median(mgs)) / nn
        assert row["mg_max"] == max(mgs)


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_replicates_match_layer_audit(seed):
    samples = 12
    n = workloads.AUDIT_N
    cfg = ExperimentConfig(seed=seed, n_values=(n,), samples=samples, group=workloads.Z2)
    _, audit = run_layer_audit(cfg)
    nu = workloads.SymmetricDistribution.uniform(workloads.Z2)
    records = [workloads.audit(cfg, nu, rep)[0] for rep in range(samples)]
    slacks = [workloads.audit_slack(n, r["b"], r["log_p"]) for r in records]
    both = sum(1 for r in records if math.isinf(r["b"]) and math.isinf(r["log_p"]))
    assert audit["audited"] == samples
    assert audit["min_slack"] == min(slacks)
    assert audit["both_neg_inf"] == both


# ---------------------------------------------------------------------------
# output checks reject wrong results


def test_checks_accept_real_output_and_reject_corrupted_output():
    cfg = ExperimentConfig(seed=SEEDS[1])
    n = 12
    rec, _ = workloads.hypertree(cfg, complexes.build_kernel(n), n, 0)
    assert workloads.check_hypertree(n, rec, None) is None
    assert workloads.check_hypertree(n, {**rec, "faces": rec["faces"][1:]}, None)
    assert workloads.check_hypertree(n, {**rec, "cocycles_z2": rec["cocycles_z2"] * 3}, None)

    nu4 = workloads.SymmetricDistribution.uniform(workloads.Z4)
    rec, (f, C) = workloads.conv(cfg, nu4, 0)
    assert workloads.check_conv(rec, (f, C)) is None
    C.values[1, 2, 0] += Fraction(1, 10**9)
    assert workloads.check_conv(rec, (f, C))

    rec, D = workloads.cut(cfg, workloads.SMALL_CUT_PARTS, 0)
    assert workloads.check_cut(rec, D) is None
    assert workloads.check_cut({"cut_norm": rec["cut_norm"] / 2}, D)

    rec, _ = workloads.fk(cfg, 0)
    assert workloads.check_fk(rec, None) is None
    assert workloads.check_fk({**rec, "residual": 2 * rec["threshold"]}, None)
    assert workloads.check_fk({**rec, "certified": False}, None)

    assert workloads.check_one_out({"h1_f2": 2, "h1_f3": 0, "min_generators": 1}, None)
    assert workloads.check_audit({"b": -0.5, "log_p": 0.1}, None)
    assert workloads.check_audit({"b": -math.inf, "log_p": -3.0}, None)
    assert workloads.check_ldp_gibbs({"b": 0.1, "entropy": 0.0}, None)
    assert workloads.check_ldp_dual({"rate": 0.3, "attained": 0.2}, None)


# ---------------------------------------------------------------------------
# determinism digest and computed work counts


def _one_pass(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


COMPUTED = (
    "complexes.build_kernel.kernel_mb",
    "complexes.sample_hypertree.update_gflop",
    "homology.smith_normal_form.cells",
    "homology.bareiss_det.order_sum",
    "graphons.max_box_exact.masks",
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_digest_and_computed_counts_repeat(workload, tmp_path):
    spans = str(tmp_path / "spans.jsonl")
    one_pass = _one_pass(workload, 11, "--trace-out", spans)
    longer = _one_pass(workload, 11, "--trace-out", spans, "--seconds", "8")
    plain = _one_pass(workload, 11)
    other = _one_pass(workload, 12)
    assert one_pass["failed"] == longer["failed"] == plain["failed"] == other["failed"] == 0
    assert one_pass["digest"] == longer["digest"] == plain["digest"] != other["digest"]
    # per-job counts do not depend on how many passes the run fitted in
    assert {k: one_pass["layers"][k] for k in COMPUTED} == {k: longer["layers"][k] for k in COMPUTED}
    busy = {
        "hypertree-scan": "complexes.sample_hypertree.update_gflop",
        "exact-scan": "homology.bareiss_det.order_sum",
        "kernel-regularity": "graphons.max_box_exact.masks",
    }[workload]
    assert one_pass["layers"][busy] > 0


def test_tracer_patches_callers_and_restores_them():
    from cochainlab import graphons, homology, regularity

    originals = (complexes.bareiss_det, regularity.max_box_exact, homology.boundary_matrices)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert complexes.bareiss_det is homology.bareiss_det is not originals[0]
        assert regularity.max_box_exact is graphons.max_box_exact is not originals[1]
        complexes.avoidance_probability_exact(5, [])
    assert (complexes.bareiss_det, regularity.max_box_exact, homology.boundary_matrices) == originals
    names = [s.name for s in tracer.spans]
    assert "complexes.avoidance_probability_exact" in names
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "homology.bareiss_det"}
    assert "complexes.avoidance_probability_exact" in parents
