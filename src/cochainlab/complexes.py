"""Random 2-complexes on a complete 1-skeleton: the fixed-size determinantal
face model, the one-face-per-edge model, and Bernoulli faces; plus the
projection kernel behind the determinantal measure, exact containment
probabilities, and small-n exhaustive enumeration.

Exact probabilities take one determinant path, Cauchy-Binet over the integer
boundary d2 by Bareiss. enumerate_hypertrees takes every candidate's torsion
from a batched int64 Bareiss of its square of star-reduced face rows; nothing
here factorises in floats.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .homology import (
    MAX_BOUNDARY_EDGES,
    MAX_SKELETON_TRIANGLES,
    _bareiss_abs_dets,
    _check_boundary_size,
    _divisors,
    _eliminate,
    _star_face_rows,
    _triangle_edges,
    _triu,
    bareiss_det,
    boundary_matrices,
    face_edges,
    gram_det_operand,
)


@dataclass(frozen=True)
class TwoComplex:
    """Face set over the complete graph on [n]; triangles are sorted triples
    of 1-based vertices, stored sorted and deduplicated.

    The integer reduction of d2 and its elementary divisors are computed on
    first use and kept on the instance, so every homology question asked of
    one complex shares one elimination, and the cache goes with the complex.
    """

    n: int
    triangles: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, triangles):
        n = int(n)
        object.__setattr__(self, "triangles", face_set(n, triangles))
        object.__setattr__(self, "n", n)

    @classmethod
    def _from_face_set(cls, n: int, faces: tuple) -> TwoComplex:
        """The samplers' constructor, with no checks: faces are already what
        face_set would return, a sorted tuple of sorted distinct triples."""
        X = object.__new__(cls)
        object.__setattr__(X, "n", int(n))
        object.__setattr__(X, "triangles", faces)
        return X

    @cached_property
    def reduction(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(units, core): the unit-pivot elimination (homology._eliminate)
        of the rows of d2^T without the star columns of vertex n
        (homology._star_face_rows), so a face through n is a one-entry row.
        Dropping those columns and every elimination step are unimodular, so
        rank_p(d2) = units + rank_p(core) for every prime p and the
        elementary divisors of d2 are (1,) * units + SNF(core)."""
        return _eliminate(_star_face_rows(self.n, self.triangles))

    @cached_property
    def divisors(self) -> tuple[int, ...]:
        """Nonzero elementary divisors of d2, from the reduction."""
        return _divisors(*self.reduction)

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


def face_set(n: int, triangles) -> tuple[tuple[int, int, int], ...]:
    """The face set Y as sorted distinct triples: the one check on faces, for
    TwoComplex and the containment functions. Each face must have three
    distinct integer vertices in 1..n (ValueError naming the face); vertex
    order and repeated faces do not matter.

    Faces that are already the answer, tuples (u, v, w) of plain ints with
    0 < u < v < w <= n in strictly increasing order, as the samplers and
    cocycle_triangles give, are returned with no sort. Other tuples or lists
    of plain ints are sorted with no per-vertex call; any other vertex
    (bool, float, numpy integer, ...) goes through _vertex in face order, so
    the first bad vertex is named as before."""
    if n < 3:
        raise ValueError("need n >= 3")
    faces = triangles if isinstance(triangles, (tuple, list)) else list(triangles)
    kinds = set(map(type, faces))
    if kinds <= {tuple, list} and set(map(type, itertools.chain.from_iterable(faces))) <= {int}:
        if (
            kinds <= {tuple}
            and set(map(len, faces)) <= {3}
            and all(0 < u < v < w <= n for u, v, w in faces)
            and all(map(operator.lt, faces, itertools.islice(faces, 1, None)))
        ):
            return tuple(faces)
        norm = set(map(tuple, map(sorted, faces)))
    else:
        norm = set()
        for face in faces:
            try:
                norm.add(tuple(sorted(map(_vertex, face))))
            except ValueError as err:
                raise ValueError(f"{err}, in triangle {tuple(face)}") from None
    faces = sorted(norm)
    for t in faces:
        if len(t) != 3 or t[0] == t[1] or t[1] == t[2]:
            raise ValueError(f"triangle {t} needs three distinct vertices")
        if t[0] < 1 or t[2] > n:
            raise ValueError(f"triangle {t} out of range for n={n}")
    return tuple(faces)


def all_triangles(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(itertools.combinations(range(1, n + 1), 3))


def full_two_skeleton(n: int) -> TwoComplex:
    return TwoComplex(n, all_triangles(n))


def _edge_face_counts(n: int, triangles) -> np.ndarray:
    """t_Y(e), the number of faces of the face set Y (face_set) containing
    edge e, for every edge of K_n in lexicographic order."""
    edges = np.array(face_edges(n, face_set(n, triangles)), dtype=np.intp)
    return np.bincount(edges.ravel(), minlength=n * (n - 1) // 2)


def triangle_edge_counts(n: int, triangles) -> np.ndarray:
    """t[u-1, w-1] = number of faces of the face set (face_set) containing
    edge {u, w}; symmetric with zero diagonal."""
    iu, ju = _triu(n)
    t = np.zeros((n, n), dtype=np.int64)
    t[iu, ju] = t[ju, iu] = _edge_face_counts(n, triangles)
    return t


# ---------------------------------------------------------------------------
# samplers

# A draw holds a C(n-1,2) x C(n,2) float array, 11.5 MB and about 0.5 s at
# n = 50; the Smith normal form of a hypertree takes 0.02 s there, 70 s at n = 60.
MAX_HYPERTREE_N = 50


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
    if n < 3:
        raise ValueError("need n >= 3")
    F = math.comb(n, 3)
    if F > MAX_SKELETON_TRIANGLES:
        raise ValueError(
            f"Linial-Meshulam sampler needs C(n,3) <= {MAX_SKELETON_TRIANGLES} triangles;"
            f" n = {n} has {F}"
        )
    if not 0 <= c / n <= 1:
        raise ValueError(f"face probability c/n = {c / n} out of [0, 1]")


def check_hypertree_n(n: int) -> None:
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_HYPERTREE_N:
        raise ValueError(
            f"hypertree sampler capped at n = {MAX_HYPERTREE_N}"
            f" (past it the Smith normal form of a draw takes minutes); n = {n}"
        )


def sample_one_out(n: int, rng: np.random.Generator) -> TwoComplex:
    """One face per edge of K_n: each edge {u, v} picks the third vertex
    uniformly from the remaining n - 2; duplicates collapse.

    One rng.integers call draws every edge's pick, in edge_list order; it
    gives the same values, and leaves the generator in the same state, as
    one scalar call per edge. Each face is coded as the base-n number of its
    sorted 0-based vertices, whose order is the faces' lexicographic order,
    so one sort and one neighbour comparison give the sorted distinct faces.
    """
    check_one_out_n(n)
    u, v = _triu(n)  # 0-based, u < v
    w = rng.integers(0, n - 2, size=len(u))
    w += w >= u  # skip over u, then v
    w += w >= v
    lo, hi = np.minimum(w, u), np.maximum(w, v)
    code = (lo * n + (u + v + w - lo - hi)) * n + hi
    code.sort()
    keep = np.empty(len(code), dtype=bool)
    keep[0] = True
    np.not_equal(code[1:], code[:-1], out=keep[1:])
    code = code[keep]
    ab, c = np.divmod(code, n)
    a, b = np.divmod(ab, n)
    faces = zip((a + 1).tolist(), (b + 1).tolist(), (c + 1).tolist())
    return TwoComplex._from_face_set(n, tuple(faces))


def sample_linial_meshulam(n: int, c: float, rng: np.random.Generator) -> TwoComplex:
    """Bernoulli(c/n) faces, independently over all triangles: one draw per
    triangle in lexicographic order, selected from the stream, no list held."""
    check_lm_n(n, c)
    keep = rng.random(math.comb(n, 3)) < c / n
    faces = itertools.compress(itertools.combinations(range(1, n + 1), 3), keep)
    return TwoComplex._from_face_set(n, tuple(faces))


# ---------------------------------------------------------------------------
# the projection kernel and exact determinantal sampling

class ProjectionKernel:
    """Orthogonal projection onto the row space of the full-skeleton triangle
    boundary d2; the marginal kernel of the fixed-size determinantal face
    measure.

    On the complete complex d2 d2^T + d1^T d1 = n I and d1 d2 = 0, so
    K = d2^T d2 / n exactly. K is held as n and ``edges``, the F x 3 read-only
    view of the cached incidence homology._triangle_edges (face_edges of every
    face), where d2 has +1, -1, +1; rank = trace K = C(n-1,2).
    """

    def __init__(self, n: int):
        self.n = n
        self.triangles = all_triangles(n)
        self.rank = math.comb(n - 1, 2)
        self.edges = _triangle_edges(n).T


def build_kernel(n: int) -> ProjectionKernel:
    """The projection kernel at n, for 3 <= n <= MAX_HYPERTREE_N."""
    check_hypertree_n(n)
    return ProjectionKernel(n)


def sample_hypertree(kernel_or_n, rng: np.random.Generator) -> TwoComplex:
    """Exact fixed-size determinantal sample via sequential conditioning
    (Hough, Krishnapur, Peres and Virag 2006, Alg. 18) in edge space: with
    R = d2, the conditioned kernel is R^T (I/n - U^T U) R, one row of U per
    chosen face. The next face is drawn with probability d_i / remaining-rank
    from its diagonal d, which starts at K_ii = 3/n; face i with edges
    (a, b, c) adds v = (R_i/n - (U_a - U_b + U_c) U)/sqrt(d_i), and d loses
    (R^T v)^2. Returns exactly rank faces; drift in d is the first
    certificate-visible failure of the chain.

    The weights run through buffers allocated once per draw. v at every
    face's edges is one gather by indexing with the read-only incidence
    (ndarray.take would copy a read-only index on every call). A chosen
    face's d is set to -inf after its own update, so max(d, 0) gives it
    weight 0 and the null-face guard still rejects it if the end-of-array
    clamp lands there. The weights' total is add.reduce (the pairwise sum of
    w.sum()) and the sampling scan add.accumulate (the sequential sum of
    cumsum), and the squared gap (v_a - v_b) + v_c is formed in the same
    order, so a seed draws bitwise the same faces as clip, sum and cumsum
    temporaries would.
    """
    kern = kernel_or_n if isinstance(kernel_or_n, ProjectionKernel) else build_kernel(kernel_or_n)
    n, F = kern.n, len(kern.triangles)
    d = np.full(F, 3 / n)
    w = np.empty(F)
    cs = np.empty(F)
    U = np.empty((kern.rank, n * (n - 1) // 2))
    chosen: list[int] = []
    for t, step in enumerate(range(kern.rank, 0, -1)):
        np.maximum(d, 0.0, out=w)
        total = float(np.add.reduce(w))
        if abs(total - step) > 1e-6 * max(step, 1):
            raise ArithmeticError(
                f"conditioned trace {total} drifted from remaining rank {step}"
            )
        u = rng.random() * total
        i = int(np.add.accumulate(w, out=cs).searchsorted(u, side="right"))
        i = min(i, F - 1)
        chosen.append(i)
        if d[i] <= 1e-9:
            raise ArithmeticError("conditioning picked a numerically null face")
        a, b, c = kern.edges[i].tolist()
        U[t] = (U[:t, a] - U[:t, b] + U[:t, c]) @ U[:t]  # -v; U enters as U^T U
        v = U[t]
        v[a], v[b], v[c] = v[a] - 1 / n, v[b] + 1 / n, v[c] - 1 / n
        v /= math.sqrt(d[i])
        x, y, z = v[kern.edges.T]  # v_a, v_b, v_c of every face
        x -= y
        x += z
        x *= x
        d -= x
        d[i] = -np.inf
    tris = [kern.triangles[i] for i in chosen]
    if len(set(tris)) != kern.rank:
        raise ArithmeticError("determinantal sample produced a repeated face")
    return TwoComplex._from_face_set(kern.n, tuple(sorted(tris)))


def exact_kernel(n: int):
    """The projection kernel in exact integers as (G, n), K = G / n
    elementwise, with G = d2^T d2 of the full skeleton."""
    d2 = boundary_matrices(full_two_skeleton(n))
    return d2.T @ d2, n


def avoidance_probability_exact(n: int, Y) -> Fraction:
    """Exact P(sample within Y) = det(B_Y B_Y^T) / n^C(n-2,2), B_Y the rows
    of d2 on the r = C(n-1,2) edges inside [n-1] and its columns on the face
    set Y (face_set).

    Cauchy-Binet: det(B_Y B_Y^T) sums det(B_S)^2 over the r-subsets S of Y,
    the squared-torsion weights |H_1(S)|^2 of the hypertrees inside Y, and
    over the full skeleton that sum is Kalai's weighted hypertree count
    n^C(n-2,2) (Kalai 1983, Enumeration of Q-acyclic simplicial complexes).
    One Bareiss determinant on integers, no floats anywhere, and B_Y B_Y^T
    is never formed (homology.gram_det_operand). The determinant is 0 with
    no elimination when |Y| < r or an edge inside [n-1] lies in no face of
    Y. Otherwise Gauss-Jordan on s +-1 pivots of B_Y's edge rows, by row
    operations only (the keep mode of the unit-pivot engine,
    homology._eliminate), gives B_Y ~ [[I_s, X], [0, C]]: a zero row of C
    certifies 0, and
    det(B_Y B_Y^T) = det(I + X^T X) det(C (I + X^T X)^-1 C^T)
                   = (-1)^(r-s) det([[I + X^T X, C^T], [C, 0]]).
    Bareiss runs on that bordered matrix, of order |Y| + r - 2s, when it is
    smaller than r. Otherwise, and with no keep mode when |Y| >= 2r, it runs
    on the core the drop mode leaves of [[0, B_Y], [B_Y^T, I]], whose |det|
    is det(B_Y B_Y^T).
    """
    # n is bounded as for the full skeleton's d2 (n <= 53), before anything
    # is built
    _check_boundary_size(n, math.comb(n, 3))
    # B_Y's columns are the star-reduced face rows: a face (u, v, n) keeps
    # only its edge uv inside [n-1]
    columns = _star_face_rows(n, face_set(n, Y))
    sign, M = gram_det_operand(columns, math.comb(n - 1, 2))
    det = bareiss_det(M)
    return Fraction(abs(det) if sign is None else sign * det, n ** math.comb(n - 2, 2))


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
    total = 0.0
    for cnt in _edge_face_counts(n, Y).tolist():
        if cnt == 0:
            return -math.inf
        total += math.log(cnt / n)
    return (n - 2) * math.log(n) + (1 - 2 / n) * total


def one_out_containment_probability(n: int, Y) -> Fraction:
    """P(every face of the one-per-edge complex lands in Y): the per-edge
    choices are independent, giving prod over edges of t_Y(edge)/(n-2)."""
    p = Fraction(1)
    for cnt in _edge_face_counts(n, Y).tolist():
        p *= Fraction(cnt, n - 2)
    return p


# ---------------------------------------------------------------------------
# exhaustive enumeration (small n)

def enumerate_hypertrees(n: int):
    """All complexes with complete 1-skeleton, C(n-1,2) faces and finite H_1,
    each paired with its torsion order |H_1|.

    Candidates are the r-subsets S of the C(n,3) faces, r = C(n-1,2), in
    lexicographic order. B_S^T, the faces of S against the edges inside
    [n-1] (scattered from homology._triangle_edges), is S's star-reduced
    face rows (homology._star_face_rows), which keep the SNF of d2. So S
    is a hypertree iff det B_S != 0, and then |H_1| is the product of r
    elementary divisors, |det B_S|. The determinants of 8192 candidates at a
    time come from one batched int64 Bareiss (homology._bareiss_abs_dets).
    """
    if n < 3 or n > 6:
        raise ValueError("enumeration supported for 3 <= n <= 6 only")
    E = _triangle_edges(n)
    face_rows = np.zeros((E.shape[1], n * (n - 1) // 2), dtype=np.int64)
    face_rows[np.arange(E.shape[1]), E] = [[1], [-1], [1]]
    face_rows = face_rows[:, _triu(n)[1] < n - 1]  # B_S^T = face_rows[S]
    r = math.comb(n - 1, 2)
    tris = all_triangles(n)
    candidates = itertools.combinations(range(len(tris)), r)
    out = []
    while True:
        batch = np.fromiter(itertools.islice(candidates, 8192), dtype=(np.intp, r))
        if not len(batch):
            return out
        torsion = _bareiss_abs_dets(face_rows[batch])
        keep = np.flatnonzero(torsion)
        for S, t in zip(batch[keep].tolist(), torsion[keep].tolist()):
            out.append((TwoComplex._from_face_set(n, tuple(tris[i] for i in S)), t))
