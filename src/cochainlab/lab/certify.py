"""Certification suite.

Re-derives every numeric artifact the library trusts from an independent
oracle: small-n hypertree enumeration against the closed-form squared-torsion
mass, the projection kernel against that enumeration, the determinantal
sampler against its own law, the convolution and triangle-log identities on
embedded cochains, and Smith normal form against metamorphic invariants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ..cochains import (
    Cochain,
    cocycle_triangles,
    embed_graphon,
    path_counts,
    random_cochain,
)
from ..complexes import (
    TwoComplex,
    all_triangles,
    avoidance_probability_exact,
    build_kernel,
    enumerate_hypertrees,
    sample_hypertree,
    triangle_edge_counts,
)
from ..graphons import b_functional, b_log_terms, convolve
from ..groups import Group, SymmetricDistribution
from ..homology import (
    bareiss_det,
    boundary_matrices,
    dim_h1_mod_p,
    min_generators_h1,
    smith_normal_form,
    torsion_bound_ok,
)
from .output import Table

# Minimal 6-vertex triangulation of the projective plane: 10 faces over the
# complete graph, every edge in exactly two faces, Euler characteristic 1.
PROJECTIVE_PLANE_6 = TwoComplex(
    6,
    [
        (1, 2, 3),
        (1, 2, 6),
        (1, 3, 4),
        (1, 4, 5),
        (1, 5, 6),
        (2, 3, 5),
        (2, 4, 5),
        (2, 4, 6),
        (3, 4, 6),
        (3, 5, 6),
    ],
)

SMALL_GROUPS = (Group((2,)), Group((3,)), Group((4,)), Group((2, 2)))


@dataclass
class CertCheck:
    name: str
    passed: bool
    detail: str
    tolerance: Optional[float] = None


@dataclass
class CertificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> Table:
        t = Table(["check", "passed", "detail", "tolerance"])
        for c in self.checks:
            t.add(check=c.name, passed=c.passed, detail=c.detail, tolerance=c.tolerance)
        return t


def _check_torsion_sums(checks: list, quick: bool):
    """Enumerated squared-torsion mass must equal n^C(n-2,2) exactly."""
    by_n = {}
    for n in (4, 5) if quick else (4, 5, 6):
        trees = enumerate_hypertrees(n)
        by_n[n] = trees
        total = sum(t * t for _, t in trees)
        target = n ** math.comb(n - 2, 2)
        ok = total == target
        detail = f"{len(trees)} hypertrees, sum of squared torsion {total} vs {target}"
        if n == 4:
            ok = ok and len(trees) == 4 and all(t == 1 for _, t in trees)
            detail += "; all four have trivial torsion"
        if n == 6:
            rp = [t for X, t in trees if X.triangles == PROJECTIVE_PLANE_6.triangles]
            ok = ok and rp == [2]
            twos = sum(1 for _, t in trees if t == 2)
            detail += f"; projective plane present with torsion 2 ({twos} torsion-2 trees)"
        checks.append(CertCheck(f"square_torsion_sum_n{n}", ok, detail, 0.0))
    return by_n


def _check_kernel(checks: list, trees5) -> None:
    """Kernel minors against the enumerated law, plus a corruption canary.

    K = d2^T d2 / n, so det(K_S) = t_S^2 / n^C(n-2,2) over a six-face set S
    reads det(d2_S^T d2_S) = n^(6 - 3) t_S^2 = 125 t_S^2 in exact integers,
    t_S the enumerated torsion and 0 off the support."""
    tor = {X.triangles: t for X, t in trees5}
    tris = all_triangles(5)

    def mismatches(edges) -> int:
        d2 = np.zeros((math.comb(5, 2), len(edges)), dtype=object)
        d2[edges, np.arange(len(edges))[:, None]] = (1, -1, 1)
        bad = 0
        for S in itertools.combinations(range(len(tris)), 6):
            BS = d2[:, S]
            t = tor.get(tuple(tris[i] for i in S), 0)
            bad += bareiss_det(BS.T @ BS) != 125 * t * t
        return bad

    bad = mismatches(build_kernel(5).edges)
    checks.append(
        CertCheck(
            "kernel_vs_enumeration_n5",
            bad == 0,
            f"det(d2_S^T d2_S) == 125 t_S^2 exactly on {210 - bad} of 210 six-face subsets",
            0.0,
        )
    )

    corrupted = build_kernel(5).edges.copy()  # the kernel's edges are read-only
    corrupted[0, [0, 1]] = corrupted[0, [1, 0]]  # flips face 0's signs at uv and uw
    bad2 = mismatches(corrupted)
    checks.append(
        CertCheck(
            "kernel_sensitivity",
            bad2 > 0,
            f"flipped entry breaks the identity on {bad2} of 210 six-face subsets",
            0.0,
        )
    )


def _check_sampler(checks: list, trees5, seed: int, quick: bool) -> None:
    from scipy.stats import chisquare  # deferred: importing it takes ~1 s
    kern = build_kernel(5)
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 11])
    cells = {X.triangles: 0 for X, _ in trees5}
    weights = {X.triangles: t * t for X, t in trees5}
    nsamp = 2000 if quick else 10000
    outside = 0
    for _ in range(nsamp):
        X = sample_hypertree(kern, rng)
        if X.triangles in cells:
            cells[X.triangles] += 1
        else:
            outside += 1
    if outside:
        checks.append(
            CertCheck(
                "sampler_chi_square_n5",
                False,
                f"{outside} samples fell outside the enumerated support",
                None,
            )
        )
        return
    keys = sorted(cells)
    obs = np.array([cells[k] for k in keys], dtype=float)
    exp = np.array([nsamp * weights[k] / 125.0 for k in keys])
    stat, p = chisquare(obs, f_exp=exp)
    checks.append(
        CertCheck(
            "sampler_chi_square_n5",
            bool(p > 0.01),
            f"{nsamp} samples over {len(keys)} cells, chi2 {stat:.2f}, p {p:.4f}",
            0.01,
        )
    )


def _check_avoidance(checks: list, trees5, seed: int) -> None:
    """Exact containment probabilities against enumeration."""
    tris = all_triangles(5)
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 13])
    bad = 0
    cases = [tuple(tris), ()]
    for _ in range(20):
        size = int(rng.integers(3, 10))
        idx = rng.choice(len(tris), size=size, replace=False)
        cases.append(tuple(tris[i] for i in sorted(idx)))
    for Y in cases:
        yset = set(Y)
        enum_p = sum(
            (Fraction(t * t, 125) for X, t in trees5 if set(X.triangles) <= yset),
            Fraction(0),
        )
        bad += avoidance_probability_exact(5, Y) != enum_p
    checks.append(
        CertCheck(
            "avoidance_consistency_n5",
            bad == 0,
            f"exact==enumeration on {len(cases) - bad} of {len(cases)} face sets",
            0.0,
        )
    )


def _check_convolution(checks: list, seed: int, reps: int) -> None:
    """Embedded-cochain convolution must equal path counts over n, exactly."""
    bad = ""
    for rep in range(reps):
        rng = np.random.default_rng([seed & 0x7FFFFFFF, 17, rep])
        group = SMALL_GROUPS[rep % len(SMALL_GROUPS)]
        n = 4 + int(rng.integers(7))
        nu = SymmetricDistribution.uniform(group)
        f = random_cochain(n, nu, rng)
        W = embed_graphon(f, exact=True)
        conv = convolve(W)
        # conv.values holds Fractions, so the whole-array == is exact
        hits = np.argwhere(conv.values * n != path_counts(f).astype(object))
        if hits.size:
            a, b, g = hits[0]
            bad = f"rep {rep}: cell ({a},{b},{g}) mismatch"
            break
    checks.append(
        CertCheck(
            "convolution_identity",
            not bad,
            bad or f"{reps} random cochains, all cells exact",
            0.0,
        )
    )


def _check_triangle_log_identity(checks: list, seed: int, reps: int) -> None:
    """Sum over edges of log(t/n), t the cocycle triangles through the edge,
    against (n^2/2) times the b log-terms, compared as exact multisets so
    simultaneous -infinity cases still match. t is counted from the
    triangles, apart from the exact convolution behind the b log-terms."""
    bad = ""
    for rep in range(reps):
        rng = np.random.default_rng([seed & 0x7FFFFFFF, 19, rep])
        group = SMALL_GROUPS[rep % len(SMALL_GROUPS)]
        n = 3 + int(rng.integers(8))
        nu = SymmetricDistribution.uniform(group)
        f = random_cochain(n, nu, rng)
        t = triangle_edge_counts(n, cocycle_triangles(f))
        counts, mult = np.unique(t[np.triu_indices(n, 1)], return_counts=True)
        lhs = {Fraction(int(c), n): int(m) for c, m in zip(counts, mult)}
        terms = b_log_terms(embed_graphon(f, exact=True))
        if {arg: coeff * n * n / 2 for arg, coeff in terms.items()} != lhs:
            bad = f"rep {rep}: log-term multisets differ (n={n})"
            break
    checks.append(
        CertCheck(
            "triangle_log_identity",
            not bad,
            bad or f"{reps} random cochains, multisets equal exactly",
            0.0,
        )
    )


def _check_snf(checks: list, seed: int, reps: int) -> None:
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 23])
    bad = ""
    for rep in range(reps):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 8))
        M = rng.integers(-9, 10, size=(rows, cols))
        base = smith_normal_form(M)
        P = rng.permutation(rows)
        Q = rng.permutation(cols)
        M2 = M[P][:, Q] * rng.choice([-1, 1], size=(1, cols))
        M2 = M2 * rng.choice([-1, 1], size=(rows, 1))
        if smith_normal_form(M2) != base:
            bad = f"rep {rep}: divisors changed under permutation/sign flip"
            break
    if not bad:
        for rep in range(reps):
            size = int(rng.integers(2, 6))
            while True:
                M = rng.integers(-6, 7, size=(size, size))
                det = bareiss_det(M.astype(object))
                if det != 0:
                    break
            divisors = smith_normal_form(M)
            prod = 1
            for d in divisors:
                prod *= d
            if prod != abs(det):
                bad = f"rep {rep}: divisor product {prod} vs |det| {abs(det)}"
                break
    checks.append(
        CertCheck(
            "snf_metamorphic",
            not bad,
            bad or f"{reps} permutation/sign trials and {reps} determinant-product trials",
            0.0,
        )
    )


def _check_projective_plane(checks: list) -> None:
    X = TwoComplex(6, PROJECTIVE_PLANE_6.triangles)  # fresh, so every run reduces it
    divisors = smith_normal_form(boundary_matrices(X))
    ok = divisors == (1,) * 9 + (2,)
    ok = ok and dim_h1_mod_p(X, 2) == 1
    ok = ok and dim_h1_mod_p(X, 3) == 0
    ok = ok and min_generators_h1(X) == 1
    ok = ok and torsion_bound_ok(X)
    checks.append(
        CertCheck(
            "projective_plane_homology",
            ok,
            f"divisors {divisors}, dim over F2 {dim_h1_mod_p(X, 2)}, over F3 {dim_h1_mod_p(X, 3)}",
            0.0,
        )
    )


def _check_identity_cochain(checks: list) -> None:
    """b of the all-identity labeling has the closed form (1-1/n) log((n-2)/n)."""
    worst = 0.0
    group = Group((3,))
    for n in (4, 6, 9):
        f = Cochain(group, n, np.zeros(n * (n - 1) // 2, dtype=np.intp))
        b = b_functional(embed_graphon(f))
        target = (1.0 - 1.0 / n) * math.log((n - 2) / n)
        worst = max(worst, abs(b - target))
    checks.append(
        CertCheck(
            "identity_cochain_b",
            worst <= 1e-12,
            f"max abs gap {worst:.3e} against the closed form",
            1e-12,
        )
    )


def run_certification(seed: int = 0, quick: bool = False) -> CertificationReport:
    """Run every certification check; quick mode caps enumeration at n=5
    and shrinks the Monte Carlo sizes."""
    checks: list = []
    by_n = _check_torsion_sums(checks, quick)
    trees5 = by_n[5]
    _check_kernel(checks, trees5)
    _check_sampler(checks, trees5, seed, quick)
    _check_avoidance(checks, trees5, seed)
    reps = 10 if quick else 30
    _check_convolution(checks, seed, reps)
    _check_triangle_log_identity(checks, seed, reps)
    _check_snf(checks, seed, 15 if quick else 40)
    _check_projective_plane(checks)
    _check_identity_cochain(checks)
    return CertificationReport(checks)
