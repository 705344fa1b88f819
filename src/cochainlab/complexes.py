"""Random 2-complexes on a complete 1-skeleton: the fixed-size determinantal
face model, the one-face-per-edge model, and Bernoulli faces; plus the
projection kernel behind the determinantal measure, exact avoidance
probabilities, and small-n exhaustive enumeration.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cochains import edge_index, edge_list
from .homology import MAX_BOUNDARY_EDGES, _face_rows, _smith_rows, bareiss_det, boundary_matrices


@dataclass(frozen=True)
class TwoComplex:
    """Face set over the complete graph on [n]; triangles are sorted triples
    of 1-based vertices, stored sorted and deduplicated."""

    n: int
    triangles: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, triangles):
        n = int(n)
        if n < 3:
            raise ValueError("need n >= 3")
        norm = set()
        for t in triangles:
            t = tuple(sorted(_vertex(v) for v in t))
            if len(set(t)) != 3:
                raise ValueError(f"triangle {t} has repeated vertices")
            if t[0] < 1 or t[2] > n:
                raise ValueError(f"triangle {t} out of range for n={n}")
            norm.add(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "triangles", tuple(sorted(norm)))

    @property
    def num_faces(self) -> int:
        return len(self.triangles)

    def triangle_set(self) -> frozenset:
        return frozenset(self.triangles)


def _vertex(v) -> int:
    """A vertex must be a true integer: 3.7 or True is rejected, not truncated."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"triangle vertex {v!r} is not an integer")


@lru_cache(maxsize=16)
def all_triangles(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(itertools.combinations(range(1, n + 1), 3))


@lru_cache(maxsize=16)
def _triangle_index_map(n: int) -> dict:
    return {t: i for i, t in enumerate(all_triangles(n))}


def triangle_index(n: int, t) -> int:
    return _triangle_index_map(n)[tuple(sorted(t))]


def full_two_skeleton(n: int) -> TwoComplex:
    return TwoComplex(n, all_triangles(n))


def triangle_edge_counts(n: int, triangles) -> np.ndarray:
    """t[u-1, w-1] = number of the given triangles containing edge {u, w};
    symmetric with zero diagonal."""
    t = np.zeros((n, n), dtype=np.int64)
    for a, b, c in triangles:
        for u, w in ((a, b), (a, c), (b, c)):
            t[u - 1, w - 1] += 1
            t[w - 1, u - 1] += 1
    return t


# ---------------------------------------------------------------------------
# samplers

# Bernoulli faces are drawn over the full triangle list, so it is bounded
# (n <= 185) before that list is built.
MAX_LM_TRIANGLES = 1 << 20

# The sampler holds a C(n-1,2) x C(n,3) float array of Cholesky columns,
# 13 MB at n = 30.
MAX_HYPERTREE_N = 30


# Each sampler's size checks; run_ez1_trend and run_betti_trend run them on
# every n before the first draw.
def check_one_out_n(n: int) -> None:
    if n < 3:
        raise ValueError("need n >= 3")
    E = n * (n - 1) // 2
    if E > MAX_BOUNDARY_EDGES:
        raise ValueError(
            f"one-out sampler needs C(n,2) <= {MAX_BOUNDARY_EDGES} edges; n = {n} has {E}"
        )


def check_lm_n(n: int, c: float) -> None:
    F = math.comb(n, 3)
    if F > MAX_LM_TRIANGLES:
        raise ValueError(
            f"Linial-Meshulam sampler needs C(n,3) <= {MAX_LM_TRIANGLES} triangles;"
            f" n = {n} has {F}"
        )
    if not 0 <= c / n <= 1:
        raise ValueError(f"face probability c/n = {c / n} out of [0, 1]")


def check_hypertree_n(n: int) -> None:
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_HYPERTREE_N:
        raise ValueError(
            f"kernel build capped at n = {MAX_HYPERTREE_N}"
            f" (the sampler's C(n-1,2) x C(n,3) Cholesky array); n = {n}"
        )


def sample_one_out(n: int, rng: np.random.Generator) -> TwoComplex:
    """One face per edge of K_n: each edge {u, v} picks the third vertex
    uniformly from the remaining n - 2; duplicates collapse."""
    check_one_out_n(n)
    faces = []
    for u, v in edge_list(n):
        w = int(rng.integers(0, n - 2))
        # skip over u and v in the order they appear
        for x in sorted((u, v)):
            if w + 1 >= x:
                w += 1
        faces.append((u, v, w + 1))
    return TwoComplex(n, faces)


def sample_linial_meshulam(n: int, c: float, rng: np.random.Generator) -> TwoComplex:
    """Bernoulli(c/n) faces, independently over all triangles."""
    check_lm_n(n, c)
    tris = all_triangles(n)
    keep = rng.random(len(tris)) < c / n
    return TwoComplex(n, [t for t, k in zip(tris, keep) if k])


# ---------------------------------------------------------------------------
# the projection kernel and exact determinantal sampling

@lru_cache(maxsize=8)
def _reduced_boundary(n: int) -> np.ndarray:
    """Rows of d2 indexed by edges inside [n-1]; these span the full row
    space: a 1-cycle supported on the star of vertex n would live on a tree.
    Shape (C(n-1,2), C(n,3)), int64, one column per all_triangles(n) entry;
    cached read-only."""
    keep = [i for i, (u, v) in enumerate(edge_list(n)) if v <= n - 1]
    B = boundary_matrices(full_two_skeleton(n))[keep, :]
    B.flags.writeable = False
    return B


class ProjectionKernel:
    """Orthogonal projection onto the row space of the full-skeleton triangle
    boundary d2; the marginal kernel of the fixed-size determinantal face
    measure.

    On the complete complex d2 d2^T + d1^T d1 = n I and d1 d2 = 0, so
    K = d2^T d2 / n exactly. K is held as the integer d2 (C(n,2) x C(n,3))
    and n, and never formed; rank = trace K = C(n-1,2).
    """

    def __init__(self, n: int):
        self.n = n
        self.triangles = all_triangles(n)
        self.rank = math.comb(n - 1, 2)
        self.d2 = boundary_matrices(full_two_skeleton(n))

    def column(self, i: int) -> np.ndarray:
        """K[:, i]: face (u, v, w) has +1 at uv, -1 at uw, +1 at vw in d2."""
        n, d2 = self.n, self.d2
        u, v, w = self.triangles[i]
        return (d2[edge_index(n, u, v)] - d2[edge_index(n, u, w)] + d2[edge_index(n, v, w)]) / n

    def subset_probability(self, S) -> float:
        """det(K_S) = det(d2_S^T d2_S / n); for |S| = rank, the probability of S."""
        BS = self.d2[:, [triangle_index(self.n, t) for t in S]]
        return float(np.linalg.det(BS.T @ BS / self.n))


def build_kernel(n: int) -> ProjectionKernel:
    """The projection kernel at n, for 3 <= n <= MAX_HYPERTREE_N."""
    check_hypertree_n(n)
    return ProjectionKernel(n)


def sample_hypertree(kernel_or_n, rng: np.random.Generator) -> TwoComplex:
    """Exact fixed-size determinantal sample via sequential conditioning.

    Chain rule for projection kernels: the next point is drawn with
    probability d_i / remaining-rank from the conditioned diagonal d of
    K - C C^T, which starts at K_ii = 3/n; C gains the Cholesky column
    c = (K[:, i] - C C_i^T)/sqrt(d_i) per chosen face; no F x F array is
    formed. Returns exactly rank faces; drift in d is the first
    certificate-visible failure of the chain.
    """
    kern = kernel_or_n if isinstance(kernel_or_n, ProjectionKernel) else build_kernel(kernel_or_n)
    F = len(kern.triangles)
    d = np.full(F, 3 / kern.n)
    C = np.empty((kern.rank, F))  # row t is the t-th Cholesky column
    chosen: list[int] = []
    for t, step in enumerate(range(kern.rank, 0, -1)):
        w = np.clip(d, 0.0, None)
        w[chosen] = 0.0
        total = w.sum()
        if abs(total - step) > 1e-6 * max(step, 1):
            raise ArithmeticError(
                f"conditioned trace {total} drifted from remaining rank {step}"
            )
        u = rng.random() * total
        i = int(np.searchsorted(np.cumsum(w), u, side="right"))
        i = min(i, F - 1)
        chosen.append(i)
        if d[i] <= 1e-9:
            raise ArithmeticError("conditioning picked a numerically null face")
        C[t] = (kern.column(i) - C[:t, i] @ C[:t]) / math.sqrt(d[i])
        d -= C[t] * C[t]
    tris = [kern.triangles[i] for i in chosen]
    if len(set(tris)) != kern.rank:
        raise ArithmeticError("determinantal sample produced a repeated face")
    return TwoComplex(kern.n, tris)


def avoidance_probability(kernel: ProjectionKernel, Y) -> float:
    """P(sample is contained in Y) = det(I - K restricted to the complement
    of Y) = det(I_E - B B^T / n), B the columns of d2 off Y, by Sylvester's
    identity; float path, see avoidance_probability_exact."""
    yset = {tuple(sorted(t)) for t in Y}
    B = kernel.d2[:, [i for i, t in enumerate(kernel.triangles) if t not in yset]]
    return float(np.linalg.det(np.eye(B.shape[0]) - B @ B.T / kernel.n))


def exact_kernel(n: int):
    """The projection kernel in exact integers as (G, n), K = G / n
    elementwise, with G = d2^T d2 of the full skeleton."""
    d2 = boundary_matrices(full_two_skeleton(n))
    return d2.T @ d2, n


def avoidance_probability_exact(n: int, Y) -> Fraction:
    """Exact P(sample within Y) = det(B_Y B_Y^T) / n^C(n-2,2).

    Cauchy-Binet: det(B_Y B_Y^T) sums det(B_S)^2 over the C(n-1,2)-subsets S
    of Y, the squared-torsion weights of the hypertrees inside Y, and the
    full-skeleton sum is n^C(n-2,2). One r x r Bareiss determinant on small
    integers, r = C(n-1,2); no floats anywhere.
    """
    B = _reduced_boundary(n)
    index = _triangle_index_map(n)
    cols = sorted({index[tuple(sorted(t))] for t in Y})
    BY = B[:, cols]
    return Fraction(bareiss_det(BY @ BY.T), n ** math.comb(n - 2, 2))


def log_avoidance_probability_exact(n: int, Y) -> float:
    p = avoidance_probability_exact(n, Y)
    if p == 0:
        return -math.inf
    if p < 0:
        raise ArithmeticError("exact avoidance probability cannot be negative")
    return math.log(p.numerator) - math.log(p.denominator)


def log_containment_upper_bound(n: int, Y) -> float:
    """(n-2) log n + (1 - 2/n) sum over edges of log(t_Y(edge)/n); equals
    -inf when some edge lies in no triangle of Y. Upper-bounds the exact
    log avoidance probability."""
    t = triangle_edge_counts(n, Y)
    total = 0.0
    for u, v in edge_list(n):
        cnt = t[u - 1, v - 1]
        if cnt == 0:
            return -math.inf
        total += math.log(cnt / n)
    return (n - 2) * math.log(n) + (1 - 2 / n) * total


def one_out_containment_probability(n: int, Y, exact: bool = False):
    """P(every face of the one-per-edge complex lands in Y): the per-edge
    choices are independent, giving prod over edges of t_Y(edge)/(n-2)."""
    t = triangle_edge_counts(n, Y)
    if exact:
        p = Fraction(1)
        for u, v in edge_list(n):
            p *= Fraction(int(t[u - 1, v - 1]), n - 2)
        return p
    p = 1.0
    for u, v in edge_list(n):
        p *= t[u - 1, v - 1] / (n - 2)
    return p


# ---------------------------------------------------------------------------
# exhaustive enumeration (small n)

def enumerate_hypertrees(n: int):
    """All complexes with complete 1-skeleton, C(n-1,2) faces and finite H_1,
    each paired with its torsion order |H_1|.

    Candidates are C(n,3)-choose-C(n-1,2) face sets, filtered by the
    determinant of the reduced boundary square: nonzero iff the face set is
    a hypertree. Torsion orders come from Smith normal form of the full
    boundary matrix, taken from the face rows, cross-checked against |det|.
    """
    if n < 3 or n > 6:
        raise ValueError("enumeration supported for 3 <= n <= 6 only")
    B = _reduced_boundary(n).astype(float)
    r = math.comb(n - 1, 2)
    tris = all_triangles(n)
    F = len(tris)
    combos = np.array(list(itertools.combinations(range(F), r)), dtype=np.intp)
    out = []
    chunk = 20000
    for start in range(0, combos.shape[0], chunk):
        batch = combos[start : start + chunk]
        mats = B[:, batch.reshape(-1)].reshape(r, batch.shape[0], r).transpose(1, 0, 2)
        dets = np.linalg.det(mats)
        for row, d in zip(batch, dets):
            ad = abs(d)
            if ad < 0.5:
                continue
            order = round(ad)
            if abs(ad - order) > 0.01:
                raise ArithmeticError("float determinant too ambiguous to round")
            faces = [tris[i] for i in row]
            X = TwoComplex(n, faces)
            divisors = _smith_rows(_face_rows(X))
            torsion = math.prod(divisors)
            if len(divisors) != r or torsion != order:
                raise ArithmeticError(
                    "Smith normal form disagrees with the reduced determinant"
                )
            out.append((X, torsion))
    return out
