import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cochainlab import complexes
from cochainlab.cochains import Cochain, cocycle_triangles, edge_index, edge_list, random_cochain
from cochainlab.complexes import (
    TwoComplex,
    _reduced_boundary,
    all_triangles,
    avoidance_probability_exact,
    build_kernel,
    enumerate_hypertrees,
    exact_kernel,
    full_two_skeleton,
    log_avoidance_probability_exact,
    log_containment_upper_bound,
    one_out_containment_probability,
    sample_hypertree,
    sample_linial_meshulam,
    sample_one_out,
    triangle_edge_counts,
)
from cochainlab.groups import Group, SymmetricDistribution
from cochainlab.homology import (
    _divisors,
    _eliminate,
    _star_face_rows,
    bareiss_det,
    boundary_matrices,
    count_cocycles,
    smith_normal_form,
)
from cochainlab.lab.config import ExperimentConfig


def test_two_complex_normalizes():
    X = TwoComplex(5, [(3, 2, 1), (1, 2, 3), (2, 4, 5)])
    assert X.triangles == ((1, 2, 3), (2, 4, 5))
    assert X.num_faces == 2


def test_two_complex_rejects_bad_input():
    with pytest.raises(ValueError):
        TwoComplex(2, [])
    with pytest.raises(ValueError):
        TwoComplex(5, [(1, 1, 2)])
    with pytest.raises(ValueError):
        TwoComplex(5, [(1, 2, 6)])
    with pytest.raises(ValueError):
        TwoComplex(5, [(0, 1, 2)])


@pytest.mark.parametrize("model", ["one-out", "lm", "hypertree", "enumerate"])
def test_samplers_build_what_the_checked_constructor_builds(model):
    # the samplers and the enumeration skip the public constructor's checks,
    # so each complex must equal what the checks make of its faces
    if model == "enumerate":
        drawn = [X for n in (4, 5) for X, _ in enumerate_hypertrees(n)]
    else:
        drawn = []
        for seed in range(20):
            n = (3, 4, 5, 9, 14)[seed % 5]
            rng = np.random.default_rng([seed, 11])
            if model == "one-out":
                drawn.append(sample_one_out(n, rng))
            elif model == "lm":
                drawn.append(sample_linial_meshulam(n, 2.0, rng))
            else:
                drawn.append(sample_hypertree(n, rng))
    for X in drawn:
        checked = TwoComplex(X.n, X.triangles)
        assert X == checked
        assert X.triangles == checked.triangles and type(X.n) is int


def test_all_triangles_count_and_index():
    n = 7
    tris = all_triangles(n)
    assert len(tris) == math.comb(n, 3)
    assert list(tris) == sorted(tris) and all(a < b < c for a, b, c in tris)


def test_triangle_edge_counts_oracle():
    rng = np.random.default_rng(10)
    n = 6
    tris = [t for t in all_triangles(n) if rng.random() < 0.5]
    t = triangle_edge_counts(n, tris)
    assert (t == t.T).all()
    assert (np.diag(t) == 0).all()
    for u in range(1, n + 1):
        for w in range(u + 1, n + 1):
            expect = sum(1 for tri in tris if u in tri and w in tri)
            assert t[u - 1, w - 1] == expect


def test_one_out_covers_every_edge():
    rng = np.random.default_rng(11)
    for _ in range(20):
        X = sample_one_out(8, rng)
        t = triangle_edge_counts(8, X.triangles)
        for u, v in edge_list(8):
            assert t[u - 1, v - 1] >= 1
        assert X.num_faces <= len(edge_list(8))


def test_one_out_third_vertex_marginal():
    # n=5: triangle (1,2,v) appears iff one of its three edges picked it,
    # so after dedup P = 1 - (1 - 1/3)^3 = 19/27 for each v in {3, 4, 5}
    rng = np.random.default_rng(12)
    counts = {3: 0, 4: 0, 5: 0}
    reps = 6000
    for _ in range(reps):
        X = sample_one_out(5, rng)
        for t in X.triangles:
            if 1 in t and 2 in t:
                third = next(v for v in t if v not in (1, 2))
                counts[third] += 1
    for v, c in counts.items():
        assert abs(c / reps - 19 / 27) < 0.025, (v, c)


# sha256 of repr(X.triangles) of sample_one_out(n, ExperimentConfig(seed)
# .replica_rng("betti", n, rep)) over seeds 1, 3, 11 and reps 0-2, in that
# order; recorded from the scalar draw loop (_sample_one_out_loop)
_ONE_OUT_PINS = {
    3: "3d0d030bb285324bdc5cdc527fb4a23f7cc6474b6e2e8035de281704e8b55881",
    4: "e5a33d59c2ae8dd50a38836dc76d20a94059b908e7f29583d75e77ccc2610caa",
    5: "7dba65d5cde9d8546b590b3ab1ee22cc3c539d627ba6c7693c8f61428acbb474",
    14: "a11acaeaa346af1fdac413f2404b684ca50e108b035e2ea5b160aa8d375247c2",
    18: "dcb170d66ab761a8f470b2bf232e02450b5a3b440ce1ad01c2daaa19a5eb9a29",
    20: "29dcbf670a79df70e4a20f5a3215c63e587267754cd409c5af95b1dff62d761c",
    50: "382b93f5de3b8607d236699936fbb078979dd75c877f23e6273d8bf8a835838f",
}


@pytest.mark.parametrize("n", sorted(_ONE_OUT_PINS))
def test_one_out_draws_are_pinned(n):
    h = hashlib.sha256()
    for seed in (1, 3, 11):
        for rep in range(3):
            X = sample_one_out(n, ExperimentConfig(seed).replica_rng("betti", n, rep))
            h.update(repr(X.triangles).encode())
    assert h.hexdigest() == _ONE_OUT_PINS[n]


def _sample_one_out_loop(n, rng):
    """The oracle of sample_one_out: one scalar draw per edge {u < v} in
    edge_list order, its third vertex uniform on the other n - 2."""
    faces = []
    for u, v in edge_list(n):
        w = int(rng.integers(0, n - 2)) + 1
        # skip over u, then v
        if w >= u:
            w += 1
        if w >= v:
            w += 1
        faces.append(tuple(sorted((u, v, w))))
    return TwoComplex(n, faces)


def test_one_out_matches_the_scalar_loop():
    # the same faces, and the generator left in the same state: C(n,2) is
    # odd at n = 3, 6, 7, so a half-used 64-bit word is left over there too
    for n in (3, 4, 5, 6, 7, 8, 14, 18, 20, 33, 50, 101):
        for seed in range(4):
            fast, slow = np.random.default_rng([n, seed]), np.random.default_rng([n, seed])
            X, Y = sample_one_out(n, fast), _sample_one_out_loop(n, slow)
            assert X.triangles == Y.triangles, (n, seed)
            assert fast.random() == slow.random(), (n, seed)
            assert fast.integers(0, 7) == slow.integers(0, 7), (n, seed)


def test_linial_meshulam_extremes():
    rng = np.random.default_rng(13)
    assert sample_linial_meshulam(6, 0.0, rng).num_faces == 0
    assert sample_linial_meshulam(6, 6.0, rng).num_faces == math.comb(6, 3)
    with pytest.raises(ValueError):
        sample_linial_meshulam(6, 7.0, rng)


# ---------------------------------------------------------------------------
# projection kernel

def test_kernel_invariants():
    for n in (4, 5, 6):
        kern = build_kernel(n)
        d2 = boundary_matrices(full_two_skeleton(n))
        K = d2.T @ d2 / kern.n
        F = math.comb(n, 3)
        assert K.shape == (F, F)
        assert np.allclose(K, K.T, atol=1e-12)
        assert np.allclose(K @ K, K, atol=1e-10)
        assert abs(np.trace(K) - math.comb(n - 1, 2)) < 1e-10
        assert kern.rank == math.comb(n - 1, 2)


def test_kernel_diagonal_n4():
    # at n = 4 every triangle has inclusion probability rank/faces = 3/4
    d2 = boundary_matrices(full_two_skeleton(4))
    K = d2.T @ d2 / 4
    assert np.allclose(np.diag(K), 0.75, atol=1e-12)


def _d1(n):
    """Vertex-by-edge incidence: edge (u, v) gets -1 at u, +1 at v."""
    d1 = np.zeros((n, n * (n - 1) // 2), dtype=np.int64)
    for i, (u, v) in enumerate(edge_list(n)):
        d1[u - 1, i] = -1
        d1[v - 1, i] = 1
    return d1


def test_closed_form_kernel_identities():
    # K = G / n with G = d2^T d2 is the orthogonal projection of rank
    # C(n-1,2): G symmetric, G G = n G and trace G = n C(n-1,2), all in exact
    # integers, from d2 d2^T + d1^T d1 = n I on the complete complex
    for n in range(3, 13):
        d2 = boundary_matrices(full_two_skeleton(n))
        d1 = _d1(n)
        G, m = exact_kernel(n)
        assert m == n
        assert (G == d2.T @ d2).all()
        assert (G == G.T).all()
        assert (G @ G == n * G).all()
        assert np.trace(G) == n * math.comb(n - 1, 2)
        assert (d1 @ d2 == 0).all()
        assert (d2 @ d2.T + d1.T @ d1 == n * np.eye(len(edge_list(n)), dtype=np.int64)).all()


def test_kernel_edges_scatter_to_the_boundary():
    # the kernel's face incidence is d2: +1, -1, +1 at each face's edges
    for n in range(3, 13):
        kern = build_kernel(n)
        assert kern.rank == math.comb(n - 1, 2)
        assert kern.triangles == all_triangles(n)
        assert kern.edges.shape == (len(kern.triangles), 3)
        d2 = np.zeros((len(edge_list(n)), len(kern.triangles)), dtype=np.int64)
        d2[kern.edges, np.arange(len(kern.triangles))[:, None]] = (1, -1, 1)
        assert (d2 == boundary_matrices(full_two_skeleton(n))).all(), n
        # and the edges are those of the cochains' edge order, face by face
        want = [[edge_index(n, u, v), edge_index(n, u, w), edge_index(n, v, w)] for u, v, w in kern.triangles]
        assert kern.edges.tolist() == want, n


def test_kernel_minors_match_adjugate_kernel():
    # det(K_S) from the columns of d2, det(d2_S^T d2_S) / n^|S| in integers,
    # against the Fraction expansion of the minor of the adjugate kernel N / D
    n = 5
    d2 = boundary_matrices(full_two_skeleton(n))
    N, D = _adjugate_kernel(n)
    for size in (1, 2, 3):
        for S in itertools.combinations(range(d2.shape[1]), size):
            BS = d2[:, S].astype(object)
            got = Fraction(bareiss_det(BS.T @ BS), n**size)
            sub = [[Fraction(int(N[i, j]), int(D)) for j in S] for i in S]
            assert got == _det_fraction(sub)


def _det_fraction(rows):
    m = len(rows)
    if m == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(m):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _det_fraction(minor)
    return total


def _fraction_inverse(A):
    """Gauss-Jordan inverse of a square Fraction matrix (list of lists)."""
    r = len(A)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(r)] for i, row in enumerate(A)]
    for c in range(r):
        piv = next((i for i in range(c, r) if aug[i][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(r):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[r:] for row in aug]


def _adjugate_kernel(n):
    """Reference rational kernel K = N / D from the reduced boundary rows B:
    M = B B^T, D = det(M), N = B^T adj(M) B, the adjugate taken as the
    Fraction inverse of M scaled by D."""
    B = _reduced_boundary(n)
    r = B.shape[0]
    M = (B @ B.T).astype(object)
    D = bareiss_det(M)
    A = [[Fraction(int(M[i, j])) for j in range(r)] for i in range(r)]
    inv = _fraction_inverse(A)
    adj = np.empty((r, r), dtype=object)
    for i in range(r):
        for j in range(r):
            entry = inv[i][j] * D
            assert entry.denominator == 1, "adjugate must be integral"
            adj[i, j] = int(entry)
    Bo = B.astype(object)
    return Bo.T @ adj @ Bo, int(D)


def test_exact_kernel_denominator():
    # the closed form G / n equals the adjugate kernel N / D, and D is the
    # squared-torsion mass n^C(n-2,2) of the measure
    for n in range(4, 9):
        N, D = _adjugate_kernel(n)
        G, m = exact_kernel(n)
        assert D == n ** math.comb(n - 2, 2)
        assert m == n
        assert (N * m == G.astype(object) * D).all()


def _sylvester_avoidance(n, Y) -> float:
    """Float oracle: det(I - K) on the complement of Y equals
    det(I_E - B B^T / n), B the columns of d2 off Y, by Sylvester's identity."""
    yset = {tuple(sorted(t)) for t in Y}
    d2 = boundary_matrices(full_two_skeleton(n))
    B = d2[:, [i for i, t in enumerate(all_triangles(n)) if t not in yset]]
    return float(np.linalg.det(np.eye(B.shape[0]) - B @ B.T / n))


def test_avoidance_exact_vs_float():
    rng = np.random.default_rng(14)
    strict = 0
    for n, q in ((5, 0.35), (6, 0.6), (7, 0.75), (8, 0.85)):
        tris = all_triangles(n)
        for _ in range(15):
            Y = [t for t in tris if rng.random() < q]
            p_float = _sylvester_avoidance(n, Y)
            p_exact = avoidance_probability_exact(n, Y)
            assert 0 <= p_exact <= 1
            assert abs(p_float - float(p_exact)) < 1e-10
            strict += 0 < p_exact < 1
    assert strict >= 20, strict


def _expected_z2_cocycles_by_avoidance(n):
    """E|Z^1(T_n, Z/2)| = sum over 1-cochains f of P(T within Y_f), Y_f the
    triangles with df = 0. Y_f depends on f only modulo the 2^(n-1)
    coboundaries, and each class has one f that vanishes on the star of
    vertex 1, so the sum runs over those f alone."""
    z2 = Group((2,))
    free = [i for i, (u, _) in enumerate(edge_list(n)) if u > 1]
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(free)):
        labels = np.zeros(len(edge_list(n)), dtype=np.intp)
        labels[free] = bits
        total += avoidance_probability_exact(n, cocycle_triangles(Cochain(z2, n, labels)))
    return 2 ** (n - 1) * total


def test_expected_cocycle_count_exact_oracle():
    # route 2: sum over the enumerated hypertrees of P(T) |Z^1(T, Z/2)|, with
    # P(T) = t^2 / n^C(n-2,2); it takes seconds at n = 6, so n = 6 checks
    # route 1 against its value, 7784/243, which matched route 2 when taken
    z2 = Group((2,))
    mass = 5 ** math.comb(3, 2)
    by_trees = sum(Fraction(t * t, mass) * count_cocycles(X, z2) for X, t in enumerate_hypertrees(5))
    assert by_trees == _expected_z2_cocycles_by_avoidance(5) == 16
    assert _expected_z2_cocycles_by_avoidance(6) == Fraction(7784, 243)


def _dense_avoidance(n, Y) -> Fraction:
    """Oracle: one Bareiss determinant of the r x r Gram matrix B_Y B_Y^T,
    B_Y the reduced boundary's columns on the distinct faces of Y."""
    index = {t: i for i, t in enumerate(all_triangles(n))}
    BY = _reduced_boundary(n)[:, sorted({index[tuple(sorted(t))] for t in Y})]
    return Fraction(bareiss_det(BY @ BY.T), n ** math.comb(n - 2, 2))


@st.composite
def _face_lists(draw):
    """(n, Y): a random face subset at n = 3..10 at one of several densities,
    or the empty or full set, listed with shuffled vertices and repeats."""
    n = draw(st.integers(3, 10))
    q = draw(st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = [t for t in all_triangles(n) if q == 1.0 or rng.random() < q]
    Y += [Y[i] for i in rng.integers(0, len(Y), size=len(Y) // 4)] if Y else []
    return n, [tuple(rng.permutation(Y[i]).tolist()) for i in rng.permutation(len(Y))]


def test_avoidance_matches_dense_gram_oracle(monkeypatch):
    # the certified zeros, the keep mode's bordered matrix and the drop core
    # all give the dense r x r Bareiss of B_Y B_Y^T, and every route is taken
    branches = set()
    real = complexes.gram_det_operand

    def spy(columns, r):
        sign, M = real(columns, r)
        assert len(M) <= r  # never larger than the Gram matrix on these face sets
        branches.add("zero" if M == [[0]] else "drop" if sign is None else "bordered")
        return sign, M

    monkeypatch.setattr(complexes, "gram_det_operand", spy)

    @given(_face_lists())
    def prop(case):
        n, Y = case
        assert avoidance_probability_exact(n, Y) == _dense_avoidance(n, Y)

    prop()
    assert branches == {"zero", "bordered", "drop"}


def test_kalai_weighted_hypertree_count():
    # det(B B^T) over the full skeleton is Kalai's sum of |H_1(T)|^2 over the
    # hypertrees, n^C(n-2,2), so the full set has probability exactly 1
    for n in range(3, 13):
        assert avoidance_probability_exact(n, all_triangles(n)) == 1, n


@pytest.mark.parametrize("n", [2, 1, 0, -1])
def test_samplers_refuse_fewer_than_three_vertices(n):
    """Every sampler needs n >= 3; LM took n = 2 as an empty complex, and
    n = 0 failed dividing c by n."""
    rng = np.random.default_rng(0)
    for draw in (lambda: sample_one_out(n, rng), lambda: sample_hypertree(n, rng),
                 lambda: sample_linial_meshulam(n, 1.0, rng)):
        with pytest.raises(ValueError, match="need n >= 3"):
            draw()


def test_containment_functions_check_the_face_set():
    # every face needs three distinct integer vertices in 1..n, and the
    # message names the face
    functions = (
        avoidance_probability_exact,
        log_avoidance_probability_exact,
        log_containment_upper_bound,
        one_out_containment_probability,
        triangle_edge_counts,
    )
    for bad, msg in (
        ((1, 1, 2), r"triangle \(1, 1, 2\) needs three distinct vertices"),
        ((1, 2), r"triangle \(1, 2\) needs three distinct vertices"),
        ((1, 2, 3, 4), r"triangle \(1, 2, 3, 4\) needs three distinct vertices"),
        ((0, 1, 2), r"triangle \(0, 1, 2\) out of range for n=4"),
        ((2, 5, 1), r"triangle \(1, 2, 5\) out of range for n=4"),
        ((1, 2, 3.0), r"triangle vertex 3.0 is not an integer, in triangle \(1, 2, 3.0\)"),
        ((1, True, 3), r"triangle vertex True is not an integer, in triangle \(1, True, 3\)"),
    ):
        for f in functions:
            with pytest.raises(ValueError, match=msg):
                f(4, [(1, 2, 3), bad])
    for f in functions:
        with pytest.raises(ValueError, match="need n >= 3"):
            f(2, [])
    # B_Y B_Y^T is r x r: n is bounded as for the full skeleton's d2
    assert avoidance_probability_exact(53, []) == 0
    for n in (54, 1024):
        with pytest.raises(ValueError, match=f"n = {n} with {math.comb(n, 3)} faces"):
            avoidance_probability_exact(n, [])


def _oracle_face_set(n, triangles):
    """face_set's per-vertex loop: every vertex through _vertex."""
    if n < 3:
        raise ValueError("need n >= 3")
    norm = set()
    for face in triangles:
        try:
            norm.add(tuple(sorted(map(complexes._vertex, face))))
        except ValueError as err:
            raise ValueError(f"{err}, in triangle {tuple(face)}") from None
    faces = sorted(norm)
    for t in faces:
        if len(t) != 3 or t[0] == t[1] or t[1] == t[2]:
            raise ValueError(f"triangle {t} needs three distinct vertices")
        if t[0] < 1 or t[2] > n:
            raise ValueError(f"triangle {t} out of range for n={n}")
    return tuple(faces)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError) as err:
        return type(err).__name__, str(err)


def test_face_set_matches_the_vertex_loop():
    rng = np.random.default_rng(23)
    nu = SymmetricDistribution.uniform(Group((3,)))
    cases = []
    for n in range(3, 21):
        Y = cocycle_triangles(random_cochain(n, nu, rng))
        shuffled = tuple(Y[i] for i in rng.permutation(len(Y)))
        cases += [(n, Y), (n, list(Y)), (n, [list(rng.permutation(t).tolist()) for t in Y + Y[:2]])]
        cases += [(n, shuffled), (n, tuple(sorted(Y + Y[:2]))), (n, [list(t) for t in Y])]
        assert complexes.face_set(n, iter(Y)) == _oracle_face_set(n, Y)  # a one-shot iterable
        assert complexes.face_set(n, Y) is Y  # already the answer: returned as it is
    odd = [
        (2, True, 3), (1, 2.0, 3), (1, 2.5, 3), (np.int64(1), 2, 3), (1, np.int32(2), np.int8(3)),
        (1, "2", 3), (1, 2), (1, 2, 2), (0, 1, 2), (1, 2, 9), np.array([3, 1, 2]), [1, 2, 3, 4], 7,
        (1, 3, 2), (3, 4, 5), (1, 2, 3), (3, 4, 6),
    ]
    for bad in odd:
        for pos in (0, 1, 3):
            for base in ([(1, 2, 3), (2, 3, 4), (1, 3, 4)], [(1, 2, 3), (1, 3, 4), (2, 3, 4)]):
                faces = list(base)
                faces.insert(pos, bad)
                cases.append((5, faces))
                cases.append((5, tuple(faces)))
    cases += [(5, []), (2, [(1, 2, 3)]), (5, [(True, 2, 3), 7])]
    seen = set()
    for n, triangles in cases:
        kind, result = _outcome(complexes.face_set, n, triangles)
        assert (kind, result) == _outcome(_oracle_face_set, n, triangles), (n, triangles)
        if kind == "ok":
            assert all(type(v) is int for t in result for v in t)
        seen.add(kind)
    assert seen == {"ok", "ValueError", "TypeError"}


def test_projection_kernel_past_the_boundary_cell_bound():
    # face_edges builds only an F x 3 map, so the dense-d2 cell bound
    # (C(60,2) x C(60,3) = 60,569,400 cells) does not stop the kernel
    kern = complexes.ProjectionKernel(60)
    assert kern.edges.shape == (34220, 3)
    assert kern.edges[-1].tolist() == [edge_index(60, 58, 59), edge_index(60, 58, 60), edge_index(60, 59, 60)]
    with pytest.raises(ValueError, match="hypertree sampler capped at n = 50"):
        build_kernel(60)


def test_containment_functions_read_a_set_of_faces():
    # vertex order and repeated faces do not change any containment value
    rng = np.random.default_rng(19)
    n = 6
    for _ in range(5):
        Y = [t for t in all_triangles(n) if rng.random() < 0.6]
        listed = [tuple(rng.permutation(t).tolist()) for t in Y + Y[:3]][::-1]
        assert avoidance_probability_exact(n, listed) == avoidance_probability_exact(n, Y)
        assert one_out_containment_probability(n, listed) == one_out_containment_probability(n, Y)
        assert log_containment_upper_bound(n, listed) == log_containment_upper_bound(n, Y)
        assert (triangle_edge_counts(n, listed) == triangle_edge_counts(n, Y)).all()


def test_avoidance_extreme_sets():
    # containment in the full skeleton is certain, in the empty set impossible
    tris = all_triangles(5)
    assert avoidance_probability_exact(5, tris) == 1
    assert log_avoidance_probability_exact(5, tris) == 0.0
    assert avoidance_probability_exact(5, []) == 0
    assert log_avoidance_probability_exact(5, []) == -math.inf


def _complement_block_avoidance(n, Y):
    """Reference: P(sample within Y) = det(D I - N) over the complement of Y,
    divided by D^|complement|, from the rational kernel N / D."""
    N, D = exact_kernel(n)
    yset = {tuple(sorted(t)) for t in Y}
    comp = [i for i, t in enumerate(all_triangles(n)) if t not in yset]
    if not comp:
        return Fraction(1)
    sub = [[(D if ci == cj else 0) - N[ci, cj] for cj in comp] for ci in comp]
    return Fraction(bareiss_det(sub), D ** len(comp))


def test_avoidance_cauchy_binet_matches_complement_block():
    # the sets the layer audit draws (seed 3), random face sets, and the extremes
    cfg = ExperimentConfig(seed=3)
    nu = SymmetricDistribution.uniform(Group((2,)))
    rng = np.random.default_rng(18)
    strict = {"cocycle": 0, "random": 0}
    for n in range(4, 9):
        tris = all_triangles(n)
        cocycle = [
            cocycle_triangles(random_cochain(n, nu, cfg.replica_rng("layer", n, rep)))
            for rep in range(12)
        ]
        random = [[t for t in tris if rng.random() < q] for q in (0.3, 0.6, 0.75, 0.85, 0.9)]
        for kind, sets in (("cocycle", cocycle), ("random", random)):
            probs = [avoidance_probability_exact(n, Y) for Y in sets]
            assert probs == [_complement_block_avoidance(n, Y) for Y in sets]
            strict[kind] += sum(0 < p < 1 for p in probs)
        assert avoidance_probability_exact(n, []) == _complement_block_avoidance(n, []) == 0
        assert avoidance_probability_exact(n, tris) == _complement_block_avoidance(n, tris) == 1
    assert min(strict.values()) >= 5, strict


def test_avoidance_vs_enumeration_n4():
    # direct check against the tree list: P(T subset Y) weighted by torsion^2
    trees = enumerate_hypertrees(4)
    total = sum(t * t for _, t in trees)
    tris = all_triangles(4)
    rng = np.random.default_rng(15)
    for _ in range(10):
        Y = frozenset(t for t in tris if rng.random() < 0.6)
        hit = sum(t * t for X, t in trees if X.triangle_set() <= Y)
        assert avoidance_probability_exact(4, Y) == Fraction(hit, total)


def test_log_containment_upper_bound_dominates():
    rng = np.random.default_rng(16)
    n = 6
    tris = all_triangles(n)
    for _ in range(10):
        Y = [t for t in tris if rng.random() < 0.25]
        exact = log_avoidance_probability_exact(n, Y)
        bound = log_containment_upper_bound(n, Y)
        if exact == -math.inf:
            assert bound == -math.inf or bound <= 0
        else:
            assert exact <= bound + 1e-9


def test_one_out_containment_exact_formula():
    # P(complex subset Y) for one-out: product over edges of t_Y(edge)/(n-2),
    # verified by full enumeration of the (n-2)^E outcomes at n = 4
    n = 4
    edges = edge_list(n)
    rng = np.random.default_rng(17)
    tris = all_triangles(n)
    for _ in range(8):
        Y = [t for t in tris if rng.random() < 0.7]
        want = one_out_containment_probability(n, Y)
        choices = []
        for u, v in edges:
            others = [w for w in range(1, n + 1) if w not in (u, v)]
            choices.append([tuple(sorted((u, v, w))) for w in others])
        Yset = set(tuple(sorted(t)) for t in Y)
        hit = total = 0
        for combo in itertools.product(*choices):
            total += 1
            if all(f in Yset for f in combo):
                hit += 1
        assert type(want) is Fraction and want == Fraction(hit, total)


# ---------------------------------------------------------------------------
# sampling and enumeration

def test_sample_hypertree_is_hypertree():
    rng = np.random.default_rng(19)
    for n in (4, 5, 6, 8):
        for _ in range(5):
            T = sample_hypertree(n, rng)
            assert T.num_faces == math.comb(n - 1, 2)
            d2 = boundary_matrices(T)
            d = smith_normal_form(d2)
            assert all(x >= 1 for x in d)
            assert len(d) == T.num_faces  # full column rank: acyclic H_2


def test_sample_hypertree_accepts_kernel_object():
    rng = np.random.default_rng(20)
    kern = build_kernel(5)
    T = sample_hypertree(kern, rng)
    assert isinstance(T, TwoComplex)
    assert T.num_faces == kern.rank


def _schur_sample_hypertree(kern, rng):
    """Reference sampler: sequential Schur complements of the dense F x F
    kernel K = d2^T d2 / n, with the same draws and guards as sample_hypertree."""
    d2 = boundary_matrices(full_two_skeleton(kern.n))
    K = d2.T @ d2 / kern.n
    F = K.shape[0]
    chosen: list[int] = []
    for step in range(kern.rank, 0, -1):
        w = np.clip(np.diag(K).copy(), 0.0, None)
        if chosen:
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
        d = K[i, i]
        if d <= 1e-9:
            raise ArithmeticError("conditioning picked a numerically null face")
        col = K[:, i].copy()
        K -= np.outer(col, col) / d
    tris = [kern.triangles[i] for i in chosen]
    if len(set(tris)) != kern.rank:
        raise ArithmeticError("determinantal sample produced a repeated face")
    return TwoComplex(kern.n, tris)


def test_sample_hypertree_matches_schur_reference():
    for n in range(5, 13):
        kern = build_kernel(n)
        for seed in range(3):
            got = sample_hypertree(kern, np.random.default_rng([seed, n]))
            want = _schur_sample_hypertree(kern, np.random.default_rng([seed, n]))
            assert got.triangles == want.triangles, (n, seed)
    # seed 0 at n = 16, and the benchmark's hypertree-scan draws at n = 20
    for seed, n in ((0, 16), (3, 20), (4, 20)):
        kern = build_kernel(n)
        cfg = ExperimentConfig(seed=seed)
        for rep in range(2):
            got = sample_hypertree(kern, cfg.replica_rng("ez1", n, rep))
            want = _schur_sample_hypertree(kern, cfg.replica_rng("ez1", n, rep))
            assert got.triangles == want.triangles, (seed, n, rep)


@pytest.mark.parametrize(
    "n, digest",
    [
        (30, "3629d1b900cfd641ea568e4d0af2bd332e2f41c35991cba12d4b948906c12c48"),
        (40, "6712c634639ee1efed34c1b10080ca05a619fb79cf85839df64b5da7977abc39"),
    ],
)
def test_sample_hypertree_pinned_past_schur_reference(n, digest):
    # past the dense reference the chain's own rank x C(n,2) product is the
    # cost; these sha256s of repr(faces) were recorded from the unbuffered chain
    T = sample_hypertree(build_kernel(n), ExperimentConfig(seed=3).replica_rng("ez1", n, 0))
    assert T.num_faces == math.comb(n - 1, 2)
    assert hashlib.sha256(repr(T.triangles).encode()).hexdigest() == digest


class _TopRng:
    """An rng whose every draw is the largest float below 1, so each step
    samples at the top of the weights."""

    def random(self):
        return np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("sampler", [sample_hypertree, _schur_sample_hypertree])
def test_sample_hypertree_null_face_guard(sampler):
    # the last face is chosen first; at n = 6 a later step's u exceeds the
    # sequential scan's end, and the end-of-array clamp lands on that face again
    with pytest.raises(ArithmeticError, match="conditioning picked a numerically null face"):
        sampler(build_kernel(6), _TopRng())


def test_sample_hypertree_drift_guard():
    # face 0 given face 1's edges: the conditioned diagonal no longer sums
    # to the remaining rank
    for n in (5, 6, 8):
        for seed in range(20):
            kern = build_kernel(n)
            kern.edges[0] = kern.edges[1]
            with pytest.raises(ArithmeticError, match=r"conditioned trace \S+ drifted from remaining rank \d+"):
                sample_hypertree(kern, np.random.default_rng(seed))


def test_enumerate_counts():
    # n = 4: every 3-subset of the 4 faces works, all torsion-free
    trees4 = enumerate_hypertrees(4)
    assert len(trees4) == 4
    assert all(t == 1 for _, t in trees4)
    trees5 = enumerate_hypertrees(5)
    assert sum(t * t for _, t in trees5) == 5 ** 3
    assert all(t == 1 for _, t in trees5)


@pytest.mark.parametrize("n, count", [(3, 1), (4, 4), (5, 125), (6, 46620)])
def test_enumerated_torsion_is_the_smith_normal_form_of_each_tree(n, count):
    # the census reads |H_1| off one batched determinant; each tree's
    # star-reduced face rows (the same square, as sparse rows) must have
    # C(n-1,2) elementary divisors whose product is that torsion
    r = math.comb(n - 1, 2)
    trees = enumerate_hypertrees(n)
    assert len(trees) == count
    for X, t in trees:
        divisors = _divisors(*_eliminate(_star_face_rows(n, X.triangles)))
        assert len(divisors) == r and math.prod(divisors) == t, X.triangles
    assert sum(t * t for _, t in trees) == n ** math.comb(n - 2, 2)


def test_enumerate_rejects_big_n():
    with pytest.raises(ValueError):
        enumerate_hypertrees(7)
