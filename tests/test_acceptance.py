"""Acceptance gate: one test per criterion, each line of `pytest -v` on this
module is one criterion's pass/fail verdict.

Every random draw below is seeded, so reruns are bit-for-bit repeatable;
the Monte Carlo z-scores and chi-square p-values are deterministic numbers,
not flaky samples.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats

from cochainlab.cli import main
from cochainlab.cochains import (
    Cochain,
    cocycle_triangles,
    embed_graphon,
    path_counts,
    random_cochain,
)
from cochainlab.complexes import (
    TwoComplex,
    all_triangles,
    build_kernel,
    enumerate_hypertrees,
    full_two_skeleton,
    log_avoidance_probability_exact,
    log_containment_upper_bound,
    one_out_containment_probability,
    sample_hypertree,
    sample_one_out,
    triangle_edge_counts,
)
from cochainlab.graphons import (
    b_functional,
    b_log_terms,
    convolve,
    dual_maximize,
    dual_rate,
    entropy,
    mgf_finite_n,
    mgf_limit,
    random_test_function,
    random_w00,
    rate_function,
    uniform_kernel,
    z_functional,
)
from cochainlab.groups import Group, SymmetricDistribution
from cochainlab.homology import bareiss_det, boundary_matrices, edge_list, smith_normal_form
from cochainlab.lab.config import ExperimentConfig
from cochainlab.lab.experiments import (
    run_betti_trend,
    run_ez1_trend,
    weakly_decreasing_violations,
)
from cochainlab.regularity import Partition, factor_two_check, fk_decompose, step_matrix

SEED = 2026

GROUPS_4 = [Group((2,)), Group((3,)), Group((4,)), Group((2, 2))]
GROUPS_6 = GROUPS_4 + [Group((5,)), Group((6,))]


def _uniform(group):
    return SymmetricDistribution.uniform(group)


def test_criterion_01_squared_torsion_sums():
    # sum of |H_1|^2 over all spanning acyclic 2-complexes must hit n^C(n-2,2)
    start = time.monotonic()
    for n, expect in [(4, 4), (5, 125), (6, 46656)]:
        trees = enumerate_hypertrees(n)
        total = sum(t * t for _, t in trees)
        assert total == expect, (n, total)
    assert time.monotonic() - start <= 300


def test_criterion_02_kernel_certificate_and_sampler():
    start = time.monotonic()
    n = 5
    kern = build_kernel(n)
    d2 = boundary_matrices(full_two_skeleton(n))
    tris = all_triangles(n)
    # every maximal subset: det(K_S) = squared torsion / 125, or 0 off support;
    # with K = d2^T d2 / 5 that is det(d2_S^T d2_S) = 125 t^2 in integers
    for S in itertools.combinations(range(len(tris)), 6):
        d = smith_normal_form(boundary_matrices(TwoComplex(n, [tris[i] for i in S])))
        t = math.prod(d) if len(d) == 6 else 0
        BS = d2[:, S].astype(object)
        assert bareiss_det(BS.T @ BS) == 125 * t * t, S

    # chi-square of 1e4 draws against the exact weights
    rng = np.random.default_rng([SEED, 2])
    reps = 10_000
    counts = {}
    for _ in range(reps):
        key = sample_hypertree(kern, rng).triangle_set()
        counts[key] = counts.get(key, 0) + 1
    support = {X.triangle_set(): t * t / 125 for X, t in enumerate_hypertrees(n)}
    assert all(k in support for k in counts), "sampler left the support"
    observed = [counts.get(k, 0) for k in support]
    expected = [reps * w for w in support.values()]
    p = stats.chisquare(observed, expected).pvalue
    assert p > 0.01, p
    assert time.monotonic() - start <= 60


def test_criterion_03_self_convolution_counts_paths():
    # (W_f * W_f)(u, v, g) == |{w : f(u,w) + f(w,v) = g}| / n, exactly
    for rep in range(100):
        rng = np.random.default_rng([SEED, 3, rep])
        group = GROUPS_4[rep % 4]
        n = 4 + rep % 9
        f = random_cochain(n, _uniform(group), rng)
        conv = convolve(embed_graphon(f, exact=True))
        P = path_counts(f)
        for u in range(n):
            for v in range(n):
                for g in range(group.order):
                    assert conv.values[u, v, g] == Fraction(int(P[u, v, g]), n)


def test_criterion_04_edge_log_identity():
    # sum over edges of log(t_Y(e)/n) equals (n^2/2) b(W_f), compared as
    # exact multisets of log arguments so simultaneous -inf matches too
    neg_inf_cases = 0
    for rep in range(100):
        rng = np.random.default_rng([SEED, 4, rep])
        group = GROUPS_4[rep % 4]
        n = 4 + rep % 7
        f = random_cochain(n, _uniform(group), rng)
        scaled = {
            arg: coeff * n * n / 2
            for arg, coeff in b_log_terms(embed_graphon(f, exact=True)).items()
        }
        t = triangle_edge_counts(n, cocycle_triangles(f))
        edge_terms: dict = {}
        for u, v in edge_list(n):
            arg = Fraction(int(t[u - 1, v - 1]), n)
            edge_terms[arg] = edge_terms.get(arg, Fraction(0)) + 1
        if Fraction(0) in edge_terms:
            neg_inf_cases += 1
        assert scaled == edge_terms, rep
    assert neg_inf_cases > 0, "no -inf instance hit; identity only half-tested"


def test_criterion_05_avoidance_bound_audit():
    # exact log P(T subset Y_f) <= closed-form bound, slack >= -1e-9
    finite = 0
    for n in (5, 6, 7, 8):
        for rep in range(50):
            rng = np.random.default_rng([SEED, 5, n, rep])
            f = random_cochain(n, _uniform(Group((2,))), rng)
            Y = cocycle_triangles(f)
            exact = log_avoidance_probability_exact(n, Y)
            bound = log_containment_upper_bound(n, Y)
            if exact == -math.inf:
                continue  # slack is +inf, or 0 under the both--inf convention
            finite += 1
            assert bound - exact >= -1e-9, (n, rep, exact, bound)
    assert finite >= 10, "audit was vacuous"


def test_criterion_06_gibbs_inequality():
    for rep in range(1000):
        rng = np.random.default_rng([SEED, 6, rep])
        group = GROUPS_6[rep % 6]
        k = 1 + rep % 6
        W = random_w00(group, k, rng)
        assert b_functional(W) + entropy(W) <= 1e-12, rep
    # equality exactly at the uniform kernel
    for group in GROUPS_6:
        for k in (1, 2, 4):
            U = uniform_kernel(group, k)
            assert abs(b_functional(U) + entropy(U)) <= 1e-12


def _exponential_moment_brute(phi, n, nu):
    """Average exp(n^2 Z_phi) over every labeling, weighted by nu; the
    independent oracle for the per-edge product form."""
    group = phi.group
    m = n * (n - 1) // 2
    total = 0.0
    for labels in itertools.product(range(group.order), repeat=m):
        f = Cochain(group, n, np.array(labels, dtype=np.intp))
        weight = 1.0
        for li in labels:
            weight *= float(nu.probs[li])
        total += weight * math.exp(n * n * z_functional(phi, embed_graphon(f)))
    return math.log(total) / (n * n)


def test_criterion_07_finite_n_moment_and_limit_gap():
    # closed form vs enumeration over all |G|^(n(n-1)/2) labelings
    for rep in range(8):
        rng = np.random.default_rng([SEED, 7, rep])
        group = Group((2,)) if rep % 2 == 0 else Group((3,))
        n = 3 + (rep // 2) % 2
        nu = _uniform(group)
        phi = random_test_function(group, 1 + rep % 3, rng, scale=0.8)
        got = mgf_finite_n(phi, n, nu)
        expect = _exponential_moment_brute(phi, n, nu)
        assert abs(got - expect) <= 1e-12, (rep, got, expect)

    # doubling n from 16 to 32 shrinks the gap to the limit by 0.3x to 0.7x
    group = Group((2,))
    nu = _uniform(group)
    for tag in range(5):
        phi = random_test_function(group, 3, np.random.default_rng([97, tag]))
        lim = mgf_limit(phi, nu)
        gap16 = abs(mgf_finite_n(phi, 16, nu) - lim)
        gap32 = abs(mgf_finite_n(phi, 32, nu) - lim)
        ratio = gap32 / gap16
        assert 0.3 <= ratio <= 0.7, (tag, ratio)


def _random_distribution(group, rng):
    raw = rng.uniform(0.2, 1.0, size=group.order)
    sym = np.empty_like(raw)
    for i in range(group.order):
        j = group.index(group.neg(group.element(i)))
        sym[i] = (raw[i] + raw[j]) / 2
    sym /= sym.sum()
    return SymmetricDistribution(group, sym)


def test_criterion_08_duality():
    # attained: the explicit maximizer phi* = (1/2) log(W/nu) recovers I_nu
    for rep in range(100):
        rng = np.random.default_rng([SEED, 8, rep])
        group = GROUPS_6[rep % 6]
        k = 1 + rep % 5
        W = random_w00(group, k, rng, floor=0.2)
        nu = _uniform(group) if rep % 3 else _random_distribution(group, rng)
        _, value = dual_maximize(W, nu)
        assert abs(value - rate_function(W, nu)) <= 1e-10, rep
    # weak: every test function's bracket stays below the rate
    for rep in range(1000):
        rng = np.random.default_rng([SEED, 80, rep])
        group = GROUPS_6[rep % 6]
        k = 1 + rep % 5
        W = random_w00(group, k, rng)
        phi = random_test_function(group, k, rng)
        nu = _uniform(group)
        assert dual_rate(phi, W, nu) <= rate_function(W, nu) + 1e-12, rep


def test_criterion_09_regularity_partitions():
    eps = 0.2
    cap = math.ceil(1.0 / eps**2)
    for rep in range(20):
        M = np.random.default_rng([SEED, 9, rep]).uniform(-1, 1, size=(20, 20))
        res = fk_decompose(M, eps, np.random.default_rng([SEED, 90, rep]))
        assert res.rounds <= cap
        assert res.partition.num_parts <= 4**cap
        assert res.partition.num_parts <= 4**res.rounds
        assert res.residual_certified  # 20 <= exact-oracle limit
        assert res.residual <= eps * np.abs(M).max() + 1e-12
        assert res.residual <= 0.2 + 1e-12

    # a planted two-block matrix must actually force a refinement
    blocks = np.kron(np.array([[0.9, -0.9], [-0.9, 0.9]]), np.ones((10, 10)))
    M = blocks + np.random.default_rng([SEED, 91]).uniform(-0.05, 0.05, size=(20, 20))
    M = (M + M.T) / 2
    res = fk_decompose(M, eps, np.random.default_rng([SEED, 92]))
    assert res.rounds >= 1
    assert res.residual <= 0.2 + 1e-12

    # stepping error vs twice the cut distance, over random step triples
    for rep in range(1000):
        rng = np.random.default_rng([SEED, 93, rep])
        M1 = rng.uniform(-1, 1, size=(8, 8))
        cut = sorted(rng.choice(range(1, 8), size=2, replace=False))
        P = Partition(
            8,
            [tuple(range(0, cut[0])), tuple(range(cut[0], cut[1])), tuple(range(cut[1], 8))],
        )
        M2 = step_matrix(rng.uniform(-1, 1, size=(8, 8)), P)
        holds, lhs, rhs = factor_two_check(M1, M2, P)
        assert holds, (rep, lhs, rhs)


def test_criterion_10_one_out_product_formula():
    # exact product of t_Y(e)/(n-2) vs Monte Carlo containment frequency
    n, reps = 6, 10_000
    cases = [((2,), 9), ((2,), 0), ((3,), 2)]  # tags picked for p > 0
    for moduli, tag in cases:
        group = Group(moduli)
        rng = np.random.default_rng([41, group.order, tag])
        f1 = random_cochain(n, _uniform(group), rng)
        f2 = random_cochain(n, _uniform(group), rng)
        Y = sorted(set(cocycle_triangles(f1)) | set(cocycle_triangles(f2)))
        p = one_out_containment_probability(n, Y)
        assert p > 0, "test case degenerated"
        Yset = set(Y)
        mc = np.random.default_rng([45, group.order, tag])
        hits = sum(1 for _ in range(reps) if set(sample_one_out(n, mc).triangles) <= Yset)
        se = math.sqrt(float(p) * (1 - float(p)) / reps)
        assert abs(hits / reps - float(p)) <= 3 * se, (moduli, tag, hits)


def test_criterion_11_normalized_trends_decrease():
    start = time.monotonic()
    plans = [
        ("one-out", tuple(range(6, 21))),
        ("hypertree", tuple(range(6, 15))),
    ]
    for model, n_values in plans:
        cfg = ExperimentConfig(
            seed=SEED, model=model, n_values=n_values, samples=200,
            primes=(2,), include_mg=False,
        )
        ez = run_ez1_trend(cfg)
        v = weakly_decreasing_violations(
            ez.column("normalized_log_mean"), ez.column("se_normalized")
        )
        assert v <= 1, (model, "ez1", v)
        bt = run_betti_trend(cfg)
        v = weakly_decreasing_violations(
            bt.column("median_norm"), bt.column("se_median_norm")
        )
        assert v <= 1, (model, "betti", v)
    assert time.monotonic() - start <= 1800


def _run_twice(tmp_path, name, argv):
    a = tmp_path / f"{name}_a.out"
    b = tmp_path / f"{name}_b.out"
    assert main(argv + ["--out", str(a)]) in (0, 1)
    assert main(argv + ["--out", str(b)]) in (0, 1)
    assert a.read_bytes() == b.read_bytes(), name
    return a


def test_criterion_12_byte_identical_reruns(tmp_path):
    # every subcommand, run twice with one seed, must emit identical bytes
    x = _run_twice(tmp_path, "sample", ["sample", "--model", "hypertree", "--n", "6",
                                        "--seed", "3", "--format", "json"])
    w = tmp_path / "w.json"
    from cochainlab.serialize import dump_json, kernel_to_json_dict

    dump_json(kernel_to_json_dict(random_w00(Group((2,)), 5, np.random.default_rng(6))), str(w))

    _run_twice(tmp_path, "certify", ["certify", "--quick", "--seed", "1"])
    _run_twice(tmp_path, "ez1", ["ez1-trend", "--n", "5,6", "--samples", "20", "--seed", "4"])
    _run_twice(tmp_path, "layer", ["layer-audit", "--n", "5", "--samples", "25", "--seed", "4"])
    _run_twice(tmp_path, "layerj", ["layer-audit", "--n", "5", "--samples", "25", "--seed", "4",
                                    "--format", "json"])
    _run_twice(tmp_path, "ldp", ["ldp-numerics", "--samples", "30", "--seed", "4"])
    _run_twice(tmp_path, "betti", ["betti-trend", "--n", "5:7:1", "--samples", "15", "--seed", "4"])
    _run_twice(tmp_path, "sample2", ["sample", "--model", "one-out", "--n", "7", "--seed", "5"])
    _run_twice(tmp_path, "sample3", ["sample", "--model", "lm", "--n", "7", "--seed", "5"])
    _run_twice(tmp_path, "homology", ["homology", "--in", str(x), "--p", "2"])
    _run_twice(tmp_path, "cutnorm", ["graphon", "cutnorm", "--in", str(w), "--seed", "2"])
    _run_twice(tmp_path, "b", ["graphon", "b", "--in", str(w)])
    _run_twice(tmp_path, "rate", ["graphon", "rate", "--in", str(w)])
    _run_twice(tmp_path, "convolve", ["graphon", "convolve", "--in", str(w)])
    _run_twice(tmp_path, "fk", ["graphon", "fk", "--in", str(w), "--eps", "0.25", "--seed", "2"])
    _run_twice(tmp_path, "fkj", ["graphon", "fk", "--in", str(w), "--eps", "0.25", "--seed", "2",
                                 "--format", "json"])
