"""Experiment drivers: trend scans, the layer audit, and LDP numerics.

Every driver takes an ExperimentConfig, derives all randomness from
config.replica_rng with structured tags, and returns Table objects so the
CLI can serialize them byte-identically for a fixed seed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..cochains import cocycle_triangles, embed_graphon, random_cochain
from ..complexes import (
    TwoComplex,
    build_kernel,
    check_hypertree_n,
    check_lm_n,
    check_one_out_n,
    log_avoidance_probability_exact,
    sample_hypertree,
    sample_linial_meshulam,
    sample_one_out,
)
from ..graphons import (
    b_functional,
    dual_maximize,
    dual_rate,
    entropy,
    mgf_finite_n,
    mgf_limit,
    random_test_function,
    random_w00,
    rate_function,
    uniform_kernel,
)
from ..groups import MAX_TABLE_ORDER, SymmetricDistribution
from ..homology import MAX_BOUNDARY_EDGES, count_cocycles, dim_h1_mod_p, min_generators_h1
from .config import ExperimentConfig
from .output import Table

NORMAL_MEDIAN_SE = 1.2533141373155003  # sqrt(pi/2), large-sample median factor

# largest n whose layer audit computes the exact containment probability; an
# exact probability is one Bareiss determinant after a sparse elimination,
# about 25 ms a sample at n = 16 on a 2-core x86 host (0.09-0.12 s when it
# took the r x r Gram matrix, r = C(n-1,2))
AUDIT_MAX_N = 16

# the containment bound minus the exact log-probability is >= 0; the bound is
# computed in floats, so the audit fails only when the slack is below
# -AUDIT_SLACK_TOL
AUDIT_SLACK_TOL = 1e-9

# largest n^2 * |G| a layer audit accepts: embed_graphon's kernel and each
# array b_functional builds hold that many floats. It admits --n 1024 over
# Z/2, 16 MB per array and about 200 MB at peak, with the cached index
# arrays of the sample path: 8 MB of edge endpoints (cochains._triu) and
# 16 MB of mirror sources (graphons._mirror_index)
MAX_AUDIT_CELLS = 1 << 21


def _log_fraction(x: Fraction) -> float:
    if x < 0:
        raise ValueError("log of negative value")
    if x == 0:
        return float("-inf")
    return math.log(x.numerator) - math.log(x.denominator)


def _check_sizes(cfg: ExperimentConfig) -> None:
    """Every n against the model sampler's size bounds, before anything is
    drawn: a bad last n fails the run at once, not after the rest."""
    for n in cfg.n_values:
        if cfg.model == "one-out":
            check_one_out_n(n)
        elif cfg.model == "lm":
            check_lm_n(n, cfg.c)
        else:
            check_hypertree_n(n)


def _sampler_factory(cfg: ExperimentConfig, n: int):
    if cfg.model == "one-out":
        return lambda rng: sample_one_out(n, rng)
    if cfg.model == "lm":
        return lambda rng: sample_linial_meshulam(n, cfg.c, rng)
    kern = build_kernel(n)
    return lambda rng: sample_hypertree(kern, rng)


def weakly_decreasing_violations(values, ses) -> int:
    """Count adjacent increases beyond twice the combined standard error."""
    bad = 0
    for i in range(len(values) - 1):
        band = 2.0 * math.hypot(ses[i], ses[i + 1])
        if values[i + 1] > values[i] + band:
            bad += 1
    return bad


def run_ez1_trend(cfg: ExperimentConfig) -> Table:
    """Normalized log of the mean cocycle count, one row per n.

    Cocycle counts are exact integers, so the sample mean is a Fraction and
    the only floats are the final logs. The normalized column is
    log(mean)/n^2; its standard error comes from the delta method.
    """
    table = Table(
        [
            "model",
            "group",
            "n",
            "samples",
            "log_mean_cocycles",
            "normalized_log_mean",
            "se_normalized",
            "skewness",
        ]
    )
    group = cfg.group
    _check_sizes(cfg)
    for n in cfg.n_values:
        sampler = _sampler_factory(cfg, n)
        counts: list[int] = []
        for rep in range(cfg.samples):
            rng = cfg.replica_rng("ez1", n, rep)
            X = sampler(rng)
            counts.append(count_cocycles(X, group))
        m = len(counts)
        mean = Fraction(sum(counts), m)
        log_mean = _log_fraction(mean)
        if m > 1:
            var = sum((Fraction(c) - mean) ** 2 for c in counts) / (m - 1)
        else:
            var = Fraction(0)
        if var > 0 and mean > 0:
            log_se = 0.5 * _log_fraction(var / m)
            se_norm = math.exp(log_se - log_mean) / (n * n)
        else:
            se_norm = 0.0
        if var > 0:
            m3 = sum((Fraction(c) - mean) ** 3 for c in counts) / m
            sign = -1.0 if m3 < 0 else 1.0
            skew = sign * math.exp(_log_fraction(abs(m3)) - 1.5 * _log_fraction(var))
        else:
            skew = 0.0
        table.add(
            model=cfg.model,
            group=str(group),
            n=n,
            samples=m,
            log_mean_cocycles=log_mean,
            normalized_log_mean=log_mean / (n * n),
            se_normalized=se_norm,
            skewness=skew,
        )
    return table


def run_betti_trend(cfg: ExperimentConfig) -> Table:
    """Quantiles of dim H^1 over F_p, normalized by n^2, one row per (n, p)."""
    cols = [
        "model",
        "n",
        "p",
        "samples",
        "min_norm",
        "q25_norm",
        "median_norm",
        "q75_norm",
        "max_norm",
        "mean_norm",
        "se_median_norm",
    ]
    if cfg.include_mg:
        cols += ["mg_median_norm", "mg_max"]
    table = Table(cols)
    _check_sizes(cfg)
    for n in cfg.n_values:
        sampler = _sampler_factory(cfg, n)
        dims: dict[int, list[int]] = {p: [] for p in cfg.primes}
        mgs: list[int] = []
        for rep in range(cfg.samples):
            rng = cfg.replica_rng("betti", n, rep)
            X = sampler(rng)
            for p in cfg.primes:
                dims[p].append(dim_h1_mod_p(X, p))
            if cfg.include_mg:
                mgs.append(min_generators_h1(X))
        nn = float(n * n)
        for p in cfg.primes:
            arr = np.asarray(dims[p], dtype=float)
            row = dict(
                model=cfg.model,
                n=n,
                p=p,
                samples=len(arr),
                min_norm=float(arr.min()) / nn,
                q25_norm=float(np.quantile(arr, 0.25)) / nn,
                median_norm=float(np.median(arr)) / nn,
                q75_norm=float(np.quantile(arr, 0.75)) / nn,
                max_norm=float(arr.max()) / nn,
                mean_norm=float(arr.mean()) / nn,
                se_median_norm=NORMAL_MEDIAN_SE
                * float(arr.std(ddof=1) if len(arr) > 1 else 0.0)
                / math.sqrt(len(arr))
                / nn,
            )
            if cfg.include_mg:
                row["mg_median_norm"] = float(np.median(mgs)) / nn
                row["mg_max"] = int(max(mgs))
            table.add(**row)
    return table


def _layer_index(b: float, eps: float, k: int) -> int:
    """Layer i means -i*eps >= b > -(i+1)*eps; b at or below -k*eps lands in k."""
    if math.isinf(b):
        return k
    i = int(math.floor(-b / eps))
    return max(0, min(i, k))


def run_layer_audit(cfg: ExperimentConfig):
    """Bucket random cochains by the b value of their embedded kernel.

    Returns (table, audit). For n <= AUDIT_MAX_N the audit dict records
    the worst slack of the containment upper bound against the exact
    log-probability over all sampled cochains; beyond that nothing is
    audited and its slack entries are None.
    """
    group = cfg.group
    n = cfg.n_values[0] if cfg.n_values else 6
    cells = n * n * group.order
    # n and |G| past their own bounds (random_cochain's C(n,2), add_table's
    # order) keep those messages; within them, the product is checked here,
    # before the |G|^2 add_table and the first draw
    if cells > MAX_AUDIT_CELLS and math.comb(n, 2) <= MAX_BOUNDARY_EDGES and group.order <= MAX_TABLE_ORDER:
        raise ValueError(
            f"layer audit needs n^2 * |G| <= {MAX_AUDIT_CELLS} kernel cells; n = {n} over {group} has {cells}"
        )
    group.add_table  # bounds |G| (ValueError) before the |G|-sized kernels below
    k = cfg.layers
    eps = math.log(group.order) / k
    nu = SymmetricDistribution.uniform(group)
    counts = [0] * (k + 1)
    audit_enabled = n <= AUDIT_MAX_N
    min_slack = math.inf
    min_finite_slack = math.inf
    both_neg_inf = 0
    audited = 0
    for rep in range(cfg.samples):
        rng = cfg.replica_rng("layer", n, rep)
        f = random_cochain(n, nu, rng)
        W = embed_graphon(f)
        b = b_functional(W)
        counts[_layer_index(b, eps, k)] += 1
        if audit_enabled:
            Y = cocycle_triangles(f)
            logp = log_avoidance_probability_exact(n, Y)
            if math.isinf(b):
                bound = -math.inf
            else:
                bound = (n - 2) * math.log(n) + (n * n / 2.0) * (1.0 - 2.0 / n) * b
            if math.isinf(logp) and math.isinf(bound):
                both_neg_inf += 1
                slack = 0.0
            else:
                slack = bound - logp
                min_finite_slack = min(min_finite_slack, slack)
            min_slack = min(min_slack, slack)
            audited += 1
    total = sum(counts)
    log_labels = math.comb(n, 2) * math.log(group.order)
    table = Table(
        [
            "n",
            "group",
            "layers",
            "eps",
            "layer",
            "count",
            "frequency",
            "log_count_estimate",
            "log_prob_bound",
            "log_product",
        ]
    )
    for i, c in enumerate(counts):
        freq = c / total if total else 0.0
        log_count = (math.log(freq) + log_labels) if c else -math.inf
        log_bound = -(n * n) * (i - 1) * eps / 2.0
        table.add(
            n=n,
            group=str(group),
            layers=k,
            eps=eps,
            layer=i,
            count=c,
            frequency=freq,
            log_count_estimate=log_count,
            log_prob_bound=log_bound,
            log_product=log_count + log_bound if c else -math.inf,
        )
    audit = {
        "n": n,
        "samples": total,
        "audited": audited,
        "both_neg_inf": both_neg_inf,
        "min_slack": (min_slack if audited else None),
        "min_finite_slack": (
            min_finite_slack if audited and math.isfinite(min_finite_slack) else None
        ),
    }
    return table, audit


def run_ldp_numerics(cfg: ExperimentConfig) -> Table:
    """Finite-n MGF gaps, dual attainment, weak duality, and the Gibbs check.

    One long-format table: each row is a named check with the two quantities
    being compared and their gap, so CSV output captures everything.
    """
    group = cfg.group
    group.add_table  # bounds |G| (ValueError) before the |G|-sized kernels below
    nu = SymmetricDistribution.uniform(group)
    table = Table(["check", "item", "value_a", "value_b", "gap"])

    phi = random_test_function(group, 3, cfg.replica_rng("ldp", "phi"), scale=1.0)
    limit = mgf_limit(phi, nu)
    gaps = {}
    for n in (4, 8, 16, 32):
        fin = mgf_finite_n(phi, n, nu)
        gaps[n] = abs(fin - limit)
        table.add(check="mgf_gap", item=f"n={n}", value_a=fin, value_b=limit, gap=gaps[n])
    ratio = gaps[32] / gaps[16] if gaps[16] > 0 else 0.0
    table.add(
        check="mgf_gap_ratio",
        item="16->32",
        value_a=gaps[16],
        value_b=gaps[32],
        gap=ratio,
    )

    worst_attain = 0.0
    trials = min(cfg.samples, 100)
    for rep in range(trials):
        rng = cfg.replica_rng("ldp", "dual", rep)
        kk = 1 + int(rng.integers(4))
        W = random_w00(group, kk, rng, floor=0.2)
        rate = rate_function(W, nu)
        _, attained = dual_maximize(W, nu)
        worst_attain = max(worst_attain, abs(attained - rate))
    table.add(
        check="dual_attained",
        item=f"max_abs_gap_over_{trials}",
        value_a=None,
        value_b=None,
        gap=worst_attain,
    )

    worst_weak = -math.inf
    for rep in range(cfg.samples):
        rng = cfg.replica_rng("ldp", "weak", rep)
        kk = 1 + int(rng.integers(3))
        psi = random_test_function(group, kk, rng, scale=1.5)
        W = random_w00(group, 1 + int(rng.integers(4)), rng)
        viol = dual_rate(psi, W, nu) - rate_function(W, nu)
        worst_weak = max(worst_weak, viol)
    table.add(
        check="weak_duality",
        item=f"max_violation_over_{cfg.samples}",
        value_a=None,
        value_b=None,
        gap=worst_weak,
    )

    worst_gibbs = -math.inf
    for rep in range(cfg.samples):
        rng = cfg.replica_rng("ldp", "gibbs", rep)
        kk = 1 + int(rng.integers(4))
        W = random_w00(group, kk, rng)
        worst_gibbs = max(worst_gibbs, b_functional(W) + entropy(W))
    table.add(
        check="gibbs_slack",
        item=f"max_over_{cfg.samples}",
        value_a=None,
        value_b=None,
        gap=worst_gibbs,
    )
    U = uniform_kernel(group)
    table.add(
        check="gibbs_uniform",
        item="equality",
        value_a=b_functional(U),
        value_b=-entropy(U),
        gap=b_functional(U) + entropy(U),
    )
    return table
