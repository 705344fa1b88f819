import itertools
import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, strategies as st

from cochainlab.cochains import cocycle_triangles, edge_list, random_cochain
from cochainlab import complexes, homology
from cochainlab.complexes import (
    TwoComplex,
    all_triangles,
    full_two_skeleton,
    sample_hypertree,
    sample_linial_meshulam,
    sample_one_out,
)
from cochainlab.groups import Group, SymmetricDistribution
from cochainlab.homology import (
    _bareiss_abs_dets,
    _dense_smith,
    _divisors,
    _eliminate,
    _matrix_rows,
    _rank_rows,
    _star_face_masks,
    _star_face_rows,
    bareiss_det,
    boundary_matrices,
    count_cocycles,
    cycle_space_dim,
    dim_h1_mod_p,
    gram_det_operand,
    dim_z1_mod_p,
    face_edges,
    homology_report,
    is_prime,
    min_generators_h1,
    rank_mod_p,
    rank_rational,
    smith_normal_form,
    torsion_bound_ok,
    torsion_order,
)
from cochainlab.lab.certify import PROJECTIVE_PLANE_6
from cochainlab.lab.config import ExperimentConfig
from cochainlab.lab.experiments import run_betti_trend


def _vertex_edge_incidence(n):
    """d1: (n, E), edge (u, v) gets -1 at u, +1 at v."""
    d1 = np.zeros((n, n * (n - 1) // 2), dtype=np.int64)
    for i, (u, v) in enumerate(edge_list(n)):
        d1[u - 1, i] = -1
        d1[v - 1, i] = 1
    return d1


def test_boundary_squares_to_zero():
    X = full_two_skeleton(6)
    B = boundary_matrices(X)
    assert (_vertex_edge_incidence(6) @ B == 0).all()


def test_boundary_shapes():
    X = full_two_skeleton(5)
    B = boundary_matrices(X)
    assert _vertex_edge_incidence(5).shape == (5, 10)
    assert B.shape == (10, 10)


def test_boundary_size_checked_before_allocation():
    # the dense boundary and every face-row entry point share both bounds
    faces = [(1, 2, w) for w in range(3, 70)]
    for build in (
        boundary_matrices,
        lambda X: _star_face_rows(X.n, X.triangles),
        lambda X: _star_face_masks(X.n, X.triangles),
        homology_report,
        torsion_order,
        lambda X: dim_h1_mod_p(X, 2),
        lambda X: dim_h1_mod_p(X, 3),
        lambda X: count_cocycles(X, Group((2,))),
    ):
        with pytest.raises(ValueError, match=r"C\(n,2\) <= 524288 edge rows"):
            build(TwoComplex(1025, []))
        with pytest.raises(ValueError, match=r"C\(n,2\) x faces <= 33554432 cells"):
            build(TwoComplex(1024, faces))


def _face_rows(X):
    """The rows of d2^T, one per face, straight from the face list: the
    oracle of the star-reduced rows the complex paths read."""
    return [{a: 1, b: -1, c: 1} for a, b, c in face_edges(X.n, X.triangles)]


def test_face_rows_are_d2_transposed():
    X = sample_one_out(9, np.random.default_rng(8))
    d2 = boundary_matrices(X)
    assert _face_rows(X) == _matrix_rows(d2.T)


def test_star_face_rows_drop_only_the_star_columns():
    X = sample_one_out(9, np.random.default_rng(8))
    star = {i for i, (u, v) in enumerate(edge_list(9)) if v == 9}
    kept = [{j: x for j, x in row.items() if j not in star} for row in _face_rows(X)]
    assert _star_face_rows(X.n, X.triangles) == kept
    assert any(len(row) == 1 for row in kept)
    assert _star_face_masks(X.n, X.triangles) == [sum(1 << j for j in row) for row in kept]


def _rank_oracle_mod_p(M, p):
    """Fraction elimination over integers reduced mod p, no bit tricks."""
    A = [[Fraction(int(x) % p) for x in row] for row in M]
    rank = 0
    rows = len(A)
    cols = len(A[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] % p != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(int(A[r][c]), p - 2, p)
        A[r] = [(v * inv) % p for v in A[r]]
        for i in range(rows):
            if i != r and A[i][c] % p:
                f = A[i][c]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[r])]
        r += 1
        rank += 1
    return rank


def test_rank_mod_p_small_random():
    rng = np.random.default_rng(1)
    for trial in range(20):
        p = [2, 3, 5, 7][trial % 4]
        M = rng.integers(-10, 10, size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert rank_mod_p(M, p) == _rank_oracle_mod_p(M, p)


def test_rank_mod_p_large_prime_and_big_entries():
    # no int64 in the elimination: a prime past 2^32 and entries past 2^64
    p = 4294967311
    M = np.array([[2**70, 1, 0], [p, 2, 2**66 + 1], [3, p + 4, 5]], dtype=object)
    assert rank_mod_p(M, p) == _rank_oracle_mod_p(M, p)
    assert rank_mod_p(np.array([[p, 2 * p], [3 * p, 0]], dtype=object), p) == 0


def test_rank_mod_p_rejects_composite_modulus():
    with pytest.raises(ValueError, match="4 is not prime"):
        rank_mod_p(np.eye(2, dtype=np.int64), 4)


def _trial_division_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime_matches_trial_division_and_strong_pseudoprimes():
    assert [p for p in range(-3, 30000) if is_prime(p)] == [
        p for p in range(-3, 30000) if _trial_division_prime(p)
    ]
    # strong pseudoprimes to every prime base up to 7, 23 and 37
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    for p in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert is_prime(p)
        assert not is_prime(p * 3)
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    # past 2^64 a number no base proves composite is left undecided
    for p in (318665857834031151167461, 2**89 - 1):
        with pytest.raises(ValueError, match="only below 2\\^64"):
            is_prime(p)


def test_rank_rational_vs_numpy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = rng.integers(-5, 6, size=(6, 6))
        assert rank_rational(M) == np.linalg.matrix_rank(M.astype(float))


def test_bareiss_matches_numpy_det():
    rng = np.random.default_rng(3)
    for _ in range(15):
        M = rng.integers(-6, 7, size=(5, 5))
        got = bareiss_det(M.astype(object))
        expect = round(float(np.linalg.det(M.astype(float))))
        assert got == expect


def test_bareiss_singular():
    M = np.array([[1, 2], [2, 4]], dtype=object)
    assert bareiss_det(M) == 0


def test_bareiss_takes_rows_of_big_ints():
    # rows of Python ints go in as they are: numpy would read 2^63 as a float
    assert bareiss_det([[2**63, 1], [1, 1]]) == 2**63 - 1
    assert bareiss_det([[2**70, 3], [5, 2**70]]) == 2**140 - 15


@st.composite
def _square_batches(draw):
    """(N, r, r) int64 batches, r <= 8, entries in -3..3, some draws sparse;
    a drawn matrix may get a repeated row (singular), a zero column, or a
    zero leading entry over a nonzero one (a row swap at the first step)."""
    r = draw(st.integers(1, 8))
    N = draw(st.integers(0, 6))
    entry = draw(st.sampled_from([st.integers(-3, 3), st.sampled_from([0, 0, 0, 1, -1, 3])]))
    A = np.array(draw(st.lists(entry, min_size=N * r * r, max_size=N * r * r)), dtype=np.int64)
    A = A.reshape(N, r, r)
    for k in range(N):
        change = draw(st.sampled_from(["none", "repeat row", "zero column", "swap"]))
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        if change == "repeat row" and r > 1:
            A[k, i] = A[k, (i + 1) % r]
        elif change == "zero column":
            A[k, :, j] = 0
        elif change == "swap" and r > 1:
            A[k, 0, 0], A[k, 1 + i % (r - 1), 0] = 0, draw(st.sampled_from([-2, -1, 1, 3]))
    return A


@given(_square_batches())
@example(np.zeros((0, 3, 3), dtype=np.int64))  # an empty batch
@example(np.array([[[2]], [[0]], [[-3]]], dtype=np.int64))  # r = 1
@example(np.array([[[0, 1, 0], [0, 0, 1], [1, 0, 0]]], dtype=np.int64))  # swaps at every step
@example(np.array([[[1, 0, 2], [3, 0, 1], [2, 0, -1]]], dtype=np.int64))  # a zero column
@example(np.array([[[1, 2], [2, 4]], [[0, 0], [3, 1]], [[2, 3], [3, 2]]], dtype=np.int64))  # singular
def test_batched_bareiss_matches_bareiss_det(A):
    before = A.copy()
    dets = _bareiss_abs_dets(A)
    assert dets.dtype == np.int64 and dets.shape == (len(A),)
    assert dets.tolist() == [abs(bareiss_det(M)) for M in A.tolist()]
    assert (A == before).all()  # not modified


def test_batched_bareiss_refuses_entries_past_its_int64_bound():
    # 2 (r a^2)^r must stay below 2^63: r = 8 takes |entries| up to 5, not 6
    A = np.full((1, 8, 8), 5, dtype=np.int64)
    assert _bareiss_abs_dets(A).tolist() == [0]
    A[0, 0, 0] = -6
    with pytest.raises(ValueError, match=r"int64 Bareiss needs 2 \(r a\^2\)\^r < 2\^63; r = 8"):
        _bareiss_abs_dets(A)


def _gram(columns, r):
    B = np.zeros((r, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, v in col.items():
            B[i, j] = v
    return bareiss_det(B @ B.T)


def test_gram_det_operand_order_rule():
    # M is the 1 x 1 zero when rank B < r is certain (m < r, a row of B with
    # no entry, a zero row of C after the keep mode); the keep mode's bordered
    # matrix when its order m + r - 2s is below r; else the drop mode's core
    # of [[0, B], [B^T, I_m]], whose |det| is det(B B^T) (sign None)
    r = 3
    cases = [
        ([], 1, 1, 0),  # m < r
        ([{0: 1}, {1: 1}], 1, 1, 0),  # m < r
        ([{0: 1}, {1: 1}, {0: 1, 1: 1}], 1, 1, 0),  # row 2 has no entry
        ([{0: 1, 1: -1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 1, 1, 0),  # rank 2: C = [0]
        ([{0: 1}, {1: 1}, {2: 1}, {0: 1, 1: 1}], 1, 4 + 3 - 2 * 3, 3),  # bordered
        ([{0: 2}, {1: 2}, {2: 2}], None, 3, 64),  # no unit pivot: s = 0, drop core -4 I
        ([{i: 1} for i in (0, 1, 2, 0, 1, 2)], None, 3, 8),  # m = 2r: no keep mode
    ]
    for columns, sign, order, det in cases:
        got, M = gram_det_operand(columns, r)
        assert (got, len(M)) == (sign, order), columns
        d = bareiss_det(M)
        assert (abs(d) if got is None else got * d) == _gram(columns, r) == det, columns
    # an entry +-2 can leave a drop core larger than r
    columns = [{3: 1}, {}, {0: -2, 3: 1, 1: 2}, {2: 1}, {3: 2, 2: -1, 0: 2}, {1: -2, 3: 2, 2: -2}]
    sign, M = gram_det_operand(columns, 4)
    assert (sign, len(M)) == (None, 5)
    assert abs(bareiss_det(M)) == _gram(columns, 4) == 592


@st.composite
def _gram_columns(draw):
    """(r, columns): up to 2r + 2 sparse columns with entries in -2..2 over
    row keys 0..r-1, among them empty (all-zero) and repeated columns. Some
    draws lean to +-1 entries, or put a +-1 at row i of the i-th column, so
    that the keep mode finds enough pivots for its bordered matrix to win;
    others lean to +-2, so that it finds too few and the drop mode runs."""
    r = draw(st.integers(1, 8))
    entry = draw(
        st.sampled_from([st.sampled_from([-1, 1, 1, 2]), st.integers(-2, 2), st.sampled_from([-2, 2, 2, 1])])
    )
    column = st.dictionaries(st.integers(0, r - 1), entry, max_size=min(r, 3)).map(
        lambda col: {i: v for i, v in col.items() if v}
    )
    m = draw(st.integers(0, 2 * r + 2))
    columns = draw(st.lists(column, min_size=m, max_size=m))
    if draw(st.booleans()):  # a +-1 at row i of an i-th column: mostly full rank
        for i, col in enumerate(columns[:r]):
            col[i] = draw(st.sampled_from([-1, 1]))
    if columns:
        index = st.integers(0, m - 1)
        for a, b in draw(st.lists(st.tuples(index, index), max_size=3)):
            columns[a] = dict(columns[b])  # a repeated column
    return r, draw(st.permutations(columns))


def _gram_route(monkeypatch, columns, r):
    """(route, sign, M) of gram_det_operand, the route read off the modes
    of the _eliminate calls it makes and the operand it returns."""
    modes = []
    real = _eliminate

    def spy(rows, keep=False):
        modes.append("keep" if keep else "drop")
        return real(rows, keep)

    monkeypatch.setattr(homology, "_eliminate", spy)
    sign, M = gram_det_operand(columns, r)
    monkeypatch.undo()
    if not modes:
        route = "m < r" if len(columns) < r else "row of B without entry"
    elif modes == ["keep"]:
        route = "zero row of C" if M == [[0]] else "keep bordered"
    else:
        route = " then ".join(modes) + (", zero" if M == [[0]] else "")
    return route, sign, M


def test_gram_det_operand_property(monkeypatch):
    # every route on columns that no face set gives, against the dense
    # oracle: the certificates give [[0]], the keep mode's bordered matrix
    # has order below r, and the drop core is square with no +-1 entry left
    # (its order is not bounded by r: see the order rule)
    routes = set()

    @given(_gram_columns())
    @example((3, [{0: 1, 1: -1}, {1: 1, 2: 1}, {0: 1, 2: 1}]))  # rank 2: C = [0]
    @example((3, [{0: 2}, {1: 2}, {2: 2}]))  # keep then drop: no unit pivot
    @example((2, [{0: 1, 1: 1} for _ in range(4)]))  # m = 2r, rank 1: the core loses a row
    def prop(case):
        r, columns = case
        before = [dict(col) for col in columns]
        route, sign, M = _gram_route(monkeypatch, columns, r)
        routes.add(route)
        d = bareiss_det(M)
        assert (abs(d) if sign is None else sign * d) == _gram(columns, r), route
        if M == [[0]]:
            assert sign == 1
        elif route == "keep bordered":
            assert sign in (1, -1) and len(M) < r
        else:
            assert sign is None and all(len(row) == len(M) and 1 not in map(abs, row) for row in M)
        assert columns == before  # not modified

    prop()
    assert routes >= {
        "m < r",
        "row of B without entry",
        "zero row of C",
        "keep bordered",
        "keep then drop",
        "drop",
        "drop, zero",
    }, routes


@pytest.mark.parametrize("modulus, order_sum", [(2, 854), (3, 288)])
def test_gram_det_operand_orders_on_audit_sets(modulus, order_sum):
    # a reduction that misses unit pivots, or a zero it does not certify,
    # stays exact but hands Bareiss a larger matrix: pin the operand orders
    # over the layer audit's 288 seed-3 face sets at n = 8, where r = 21 (over
    # Z/2, 217 zeros of order 1 and a mean order of 9.0 over the other 71)
    group = Group((modulus,))
    cfg = ExperimentConfig(3, group=group)
    nu = SymmetricDistribution.uniform(group)
    total = 0
    for rep in range(288):
        Y = cocycle_triangles(random_cochain(8, nu, cfg.replica_rng("layer", 8, rep)))
        total += len(gram_det_operand(_star_face_rows(8, complexes.face_set(8, Y)), 21)[1])
    assert total == order_sum


def test_snf_of_diagonal():
    M = np.diag([6, 4, 0, 10]).astype(np.int64)
    assert smith_normal_form(M) == (2, 2, 60)


def test_snf_divisibility_chain():
    rng = np.random.default_rng(4)
    for _ in range(25):
        M = rng.integers(-8, 9, size=(rng.integers(2, 7), rng.integers(2, 7)))
        d = smith_normal_form(M)
        assert all(x > 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0


def test_snf_known_2x2():
    # divisors of [[2, 4], [6, 8]]: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form(np.array([[2, 4], [6, 8]])) == (2, 4)


def test_snf_projective_plane():
    d2 = boundary_matrices(PROJECTIVE_PLANE_6)
    assert smith_normal_form(d2) == (1,) * 9 + (2,)
    assert torsion_order(PROJECTIVE_PLANE_6) == 2
    assert min_generators_h1(PROJECTIVE_PLANE_6) == 1
    assert torsion_bound_ok(PROJECTIVE_PLANE_6)


def test_projective_plane_mod_p_dims():
    assert dim_h1_mod_p(PROJECTIVE_PLANE_6, 2) == 1
    assert dim_h1_mod_p(PROJECTIVE_PLANE_6, 3) == 0


def _count_cocycles_brute(X: TwoComplex, group: Group) -> int:
    """Enumerate all labelings of the edges; count those compatible on every
    face. Only usable for tiny instances."""
    n = X.n
    edges = edge_list(n)
    m = len(edges)
    eidx = {e: i for i, e in enumerate(edges)}
    count = 0
    for labels in itertools.product(range(group.order), repeat=m):
        ok = True
        for (u, v, w) in X.triangles:
            a = group.element(labels[eidx[(u, v)]])
            b = group.element(labels[eidx[(v, w)]])
            c = group.element(labels[eidx[(u, w)]])
            if group.add(a, b) != c:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_count_cocycles_brute_force_n4():
    rng = np.random.default_rng(5)
    tris4 = full_two_skeleton(4).triangles
    for trial in range(8):
        keep = [t for t in tris4 if rng.random() < 0.6]
        X = TwoComplex(4, keep) if keep else TwoComplex(4, [])
        for moduli in [(2,), (3,), (4,), (2, 2)]:
            g = Group(moduli)
            assert count_cocycles(X, g) == _count_cocycles_brute(X, g)


def test_count_cocycles_composite_vs_prime_product():
    # Z/6 factors as Z/2 x Z/3, so the cocycle counts multiply
    rng = np.random.default_rng(6)
    tris = full_two_skeleton(5).triangles
    keep = [t for t in tris if rng.random() < 0.5]
    X = TwoComplex(5, keep)
    assert count_cocycles(X, Group((6,))) == count_cocycles(X, Group((2,))) * count_cocycles(
        X, Group((3,))
    )


def test_count_cocycles_full_skeleton_equals_coboundaries():
    # complete 2-skeleton has H^1 = 0, so only the |G|^(n-1) coboundaries remain
    for n in (4, 5):
        X = full_two_skeleton(n)
        for moduli in [(2,), (3,), (2, 2)]:
            g = Group(moduli)
            assert count_cocycles(X, g) == g.order ** (n - 1)


def test_dim_z1_and_h1_relation():
    X = full_two_skeleton(5)
    assert cycle_space_dim(5) == 6
    assert dim_z1_mod_p(X, 2) == 4  # coboundary dim n-1
    assert dim_h1_mod_p(X, 2) == 0


def test_dim_h1_empty_complex():
    X = TwoComplex(5, [])
    assert dim_h1_mod_p(X, 2) == cycle_space_dim(5)


def test_homology_report_roundtrip():
    X = PROJECTIVE_PLANE_6
    rep = homology_report(X)
    assert rep.n == 6
    assert rep.num_faces == 10
    assert rep.torsion_order == 2
    assert rep.min_generators == 1
    d = rep.to_json_dict()
    assert d["torsion_order"] == 2
    rep2 = homology_report(X, p=2, include_snf=False)
    assert rep2.dim_h1 == 1
    assert rep2.elementary_divisors is None


def test_snf_big_entries_stay_exact():
    # entries past float precision; SNF must not round
    M = np.array([[2**40, 1], [1, 2**40]], dtype=object)
    d = smith_normal_form(M)
    prod = d[0] * d[1]
    assert prod == abs(2**80 - 1)


def _dense_divisors(M):
    """The dense min-abs loop alone, on the whole matrix."""
    return _dense_smith([[int(x) for x in row] for row in np.asarray(M)])


def test_snf_unit_elimination_matches_dense():
    cfg = ExperimentConfig(3)
    cases = [
        boundary_matrices(sample_one_out(n, cfg.replica_rng("betti", n, rep)))
        for n in (14, 18, 20)
        for rep in range(3)
    ]
    cases += [
        boundary_matrices(sample_hypertree(n, np.random.default_rng([n, rep])))
        for n in (6, 7, 8)
        for rep in range(2)
    ]
    cases.append(boundary_matrices(PROJECTIVE_PLANE_6))
    cases += [boundary_matrices(full_two_skeleton(n)) for n in range(4, 8)]
    cases.append(np.array([[2**40, 1], [1, 2**40]], dtype=object))
    # tall matrices with no +-1 entry: the core is all of M, and _divisors
    # hands it to the dense loop transposed
    rng = np.random.default_rng(21)
    cases += [rng.choice([-6, -4, -3, -2, 0, 2, 3, 5], size=shape) for shape in ((9, 4), (12, 5), (7, 6))]
    cores = tall = 0
    for M in cases:
        assert smith_normal_form(M) == _dense_divisors(M)
        core = _eliminate(_matrix_rows(M))[1]
        cores += bool(core)
        tall += bool(core) and len(core) > len(core[0])
    assert cores >= 1 and tall >= 3
    # the projective plane's core is where its torsion lives
    units, core = _eliminate(_matrix_rows(boundary_matrices(PROJECTIVE_PLANE_6)))
    assert units == 9 and _dense_smith(core) == (2,)


_SPARSE_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3])
_DENSE_ENTRIES = st.integers(-9, 9)


@st.composite
def _int_matrices(draw, square=False):
    m = draw(st.integers(0, 10))
    k = m if square else draw(st.integers(0, 10))
    entries = draw(st.sampled_from([_SPARSE_ENTRIES, _DENSE_ENTRIES]))
    values = draw(st.lists(entries, min_size=m * k, max_size=m * k))
    return np.array(values, dtype=np.int64).reshape(m, k)


@given(_int_matrices())
def test_snf_property_matches_dense_and_chains(M):
    d = smith_normal_form(M)
    assert d == _dense_divisors(M)
    assert all(x > 0 for x in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))


@given(_int_matrices(square=True))
def test_snf_property_product_is_abs_det(M):
    d = smith_normal_form(M)
    det = bareiss_det(M)
    if det:
        assert math.prod(d) == abs(det)
    else:
        assert len(d) < M.shape[0]


@given(st.data())
def test_snf_property_permutation_and_sign_invariant(data):
    M = data.draw(_int_matrices())
    m, k = M.shape
    P = data.draw(st.permutations(range(m)))
    Q = data.draw(st.permutations(range(k)))
    rs = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m)))
    cs = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k)))
    M2 = M[list(P)][:, list(Q)] * rs.reshape(m, 1) * cs.reshape(1, k)
    assert smith_normal_form(M2) == smith_normal_form(M)


@st.composite
def _complexes(draw):
    n = draw(st.integers(3, 9))
    tris = all_triangles(n)
    k = draw(st.integers(0, len(tris)))
    return TwoComplex(n, draw(st.permutations(tris))[:k])


@given(_complexes())
def test_face_rows_match_dense_boundary(X):
    # the full face rows and the star-reduced ones the complex paths read
    d2 = boundary_matrices(X)
    E = d2.shape[0]
    row_sets = (lambda: _face_rows(X), lambda: _star_face_rows(X.n, X.triangles))
    for p in (2, 3, 5, 7):
        rank = _rank_oracle_mod_p(d2, p)
        for rows in row_sets:
            assert _rank_rows(rows(), p) == rank
        assert dim_z1_mod_p(X, p) == E - rank
        assert dim_h1_mod_p(X, p) == cycle_space_dim(X.n) - rank
    divisors = _dense_divisors(d2)
    for rows in row_sets:
        assert _divisors(*_eliminate(rows())) == divisors
    assert homology_report(X).elementary_divisors == divisors
    assert torsion_order(X) == math.prod(divisors)


def test_star_face_rows_keep_divisors_and_ranks():
    cfg = ExperimentConfig(3)
    cases = [
        TwoComplex(6, PROJECTIVE_PLANE_6.triangles),
        TwoComplex(7, [t for t in all_triangles(7) if t[2] == 7]),  # every row one entry
        TwoComplex(7, []),
    ]
    cases += [sample_one_out(n, cfg.replica_rng("betti", n, rep)) for n, rep in ((9, 0), (14, 1), (18, 6), (20, 2))]
    cases += [sample_linial_meshulam(n, 3.0, np.random.default_rng([n, 2])) for n in (7, 10, 12)]
    cases += [sample_hypertree(n, np.random.default_rng([n, rep])) for n in (7, 9) for rep in range(2)]
    torsion = 0
    for X in cases:
        d2 = boundary_matrices(X)
        divisors = _dense_divisors(d2)
        assert _divisors(*_eliminate(_star_face_rows(X.n, X.triangles))) == divisors, X
        Y = TwoComplex(X.n, X.triangles)
        assert Y.divisors == divisors, X
        for p in (2, 3, 5):
            rank = rank_mod_p(d2, p)
            assert _rank_rows(_star_face_rows(X.n, X.triangles), p) == rank, (X, p)
            assert dim_z1_mod_p(Y, p) == d2.shape[0] - rank, (X, p)  # the masks at p = 2
        torsion += any(d > 1 for d in divisors)
    assert torsion >= 2


# dim H_1 over F_2 of the exact-scan one-out replicates (seed 3, reps 0-23),
# one digit per replicate; over F_3 they agree except at n = 18, rep 6, whose
# H_1 carries Z/2 torsion.
_ONE_OUT_H1_F2 = {
    14: "010011021300011121112010",
    18: "202120310200210121000121",
    20: "100110021010001010001201",
}


def test_face_rows_on_exact_scan_one_out_seeds():
    cfg = ExperimentConfig(3)
    for n, digits in _ONE_OUT_H1_F2.items():
        for rep, h1_f2 in enumerate(digits):
            X = sample_one_out(n, cfg.replica_rng("betti", n, rep))
            d2 = boundary_matrices(X)
            divisors = _dense_divisors(d2)
            torsion = [2] if (n, rep) == (18, 6) else []
            assert [d for d in divisors if d > 1] == torsion
            assert homology_report(X).elementary_divisors == divisors
            assert dim_h1_mod_p(X, 2) == int(h1_f2)
            assert dim_h1_mod_p(X, 3) == int(h1_f2) - len(torsion)
            assert min_generators_h1(X) == int(h1_f2)
            for p in (2, 3):
                # the rank over F_p counts the divisors prime to p
                rank = sum(d % p != 0 for d in divisors)
                assert rank_mod_p(d2, p) == rank
                assert dim_z1_mod_p(X, p) == d2.shape[0] - rank


def test_no_snf_rank_over_q_matches_rational_and_snf():
    cfg = ExperimentConfig(3)
    cases = [PROJECTIVE_PLANE_6]
    cases += [sample_hypertree(n, np.random.default_rng([n, 1])) for n in (5, 6, 7, 8)]
    cases += [sample_one_out(n, cfg.replica_rng("betti", n, 0)) for n in (4, 6, 9, 12, 14)]
    for X in cases:
        rank = rank_rational(boundary_matrices(X))
        full = homology_report(X)
        quick = homology_report(X, include_snf=False)
        assert len(full.elementary_divisors) == rank
        assert quick.dim_z1 == X.n * (X.n - 1) // 2 - rank
        assert quick.dim_h1 == full.dim_h1 == cycle_space_dim(X.n) - rank
        assert quick.elementary_divisors is quick.torsion_order is quick.min_generators is None


# ---------------------------------------------------------------------------
# the per-complex reduction

def _reduction_cases():
    """Fresh complexes of the three models, with torsion among them: one-out
    n = 18 rep 6 at seed 3 has Z/2, as do the projective plane and some of
    the hypertrees."""
    cfg = ExperimentConfig(3)
    cases = [TwoComplex(6, PROJECTIVE_PLANE_6.triangles)]
    cases += [sample_one_out(n, cfg.replica_rng("betti", n, rep)) for n, rep in ((9, 0), (14, 1), (18, 6))]
    cases += [sample_linial_meshulam(n, 3.0, np.random.default_rng([n, 2])) for n in (7, 10)]
    cases += [sample_hypertree(n, np.random.default_rng([n, rep])) for n in (7, 9) for rep in range(2)]
    return cases


def test_dim_h1_matches_matrix_rank_before_and_after_the_reduction():
    # fresh, then with the reduction cached, then with the divisors cached
    for X in _reduction_cases():
        d2 = boundary_matrices(X)
        want = {p: cycle_space_dim(X.n) - rank_mod_p(d2, p) for p in (2, 3, 5, 7)}
        Y = TwoComplex(X.n, X.triangles)
        fresh = {p: dim_h1_mod_p(Y, p) for p in want}
        assert "reduction" in vars(Y) and "divisors" not in vars(Y)  # a rank never runs the SNF
        reduced = {p: dim_h1_mod_p(Y, p) for p in want}
        Y.divisors
        with_divisors = {p: dim_h1_mod_p(Y, p) for p in want}
        assert fresh == reduced == with_divisors == want, X


def test_homology_rejects_an_object_that_is_not_a_two_complex():
    # one with a __dict__, one without: both have .n and .triangles
    Faces = namedtuple("Faces", "n triangles")
    for fake in (SimpleNamespace(n=4, triangles=((1, 2, 3),)), Faces(4, ((1, 2, 3),))):
        for call in (
            lambda: dim_h1_mod_p(fake, 2),
            lambda: dim_h1_mod_p(fake, 3),
            lambda: dim_z1_mod_p(fake, 5),
            lambda: count_cocycles(fake, Group((2, 4))),
            lambda: torsion_order(fake),
            lambda: min_generators_h1(fake),
            lambda: torsion_bound_ok(fake),
            lambda: homology_report(fake, include_snf=False),
        ):
            with pytest.raises(TypeError, match="expected a TwoComplex"):
                call()


def _answers(X, order):
    """The invariants named in ``order``, asked of X in that order."""
    out = {}
    for what in order:
        if what == "mg":
            out[what] = min_generators_h1(X)
        elif what == "cocycles":
            out[what] = count_cocycles(X, Group((2, 4)))
        else:
            out[what] = (dim_h1_mod_p(X, what), dim_z1_mod_p(X, what))
    return out


def test_reduction_answers_do_not_depend_on_call_order():
    items = ["mg", "cocycles", 2, 3, 5]
    for X in _reduction_cases():
        want = {what: _answers(TwoComplex(X.n, X.triangles), [what])[what] for what in items}
        for order in (items, items[::-1], [3, "mg", 2, "cocycles", 5]):
            assert _answers(TwoComplex(X.n, X.triangles), order) == want, (X, order)


def test_cached_core_survives_the_smith_loop():
    for X in _reduction_cases():
        units, core = X.reduction
        rows = [list(row) for row in core]
        torsion_order(X)
        homology_report(X, p=3)
        assert X.reduction == (units, core) and [list(row) for row in core] == rows
        assert _dense_smith(rows) == X.divisors[units:]
        assert [list(row) for row in core] == rows  # _dense_smith works on a copy
        assert X.divisors == smith_normal_form(boundary_matrices(X))


def test_count_cocycles_z4_z3_matches_divisor_formula():
    group = Group((4, 3))
    torsion = 0
    for X in _reduction_cases():
        divisors = smith_normal_form(boundary_matrices(X))
        E = X.n * (X.n - 1) // 2
        want = 1
        for m in (4, 3):
            want *= m ** (E - len(divisors)) * math.prod(math.gcd(m, d) for d in divisors)
        assert count_cocycles(TwoComplex(X.n, X.triangles), group) == want
        torsion += any(d % 2 == 0 for d in divisors)
    assert torsion >= 2


@pytest.fixture
def eliminations(monkeypatch):
    """Counts of the complex reductions and of their Smith loops."""
    calls = {"eliminate": 0, "smith": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(complexes, "_eliminate", counted("eliminate", complexes._eliminate))
    monkeypatch.setattr(complexes, "_divisors", counted("smith", complexes._divisors))
    return calls


@pytest.mark.parametrize("model", ["one-out", "lm", "hypertree"])
def test_betti_trend_reduces_each_complex_once(eliminations, model):
    cfg = ExperimentConfig(5, model=model, n_values=(6, 8), primes=(2, 3, 5), samples=3, include_mg=True)
    run_betti_trend(cfg)
    assert eliminations == {"eliminate": 6, "smith": 6}
    cfg.include_mg = False
    cfg.primes = (2,)
    run_betti_trend(cfg)  # F_2 alone takes the XOR rank
    assert eliminations == {"eliminate": 6, "smith": 6}
    cfg.primes = (2, 3)
    run_betti_trend(cfg)  # an odd prime reduces, but never runs the SNF
    assert eliminations == {"eliminate": 12, "smith": 6}


def test_homology_report_reduces_once(eliminations):
    X = TwoComplex(6, PROJECTIVE_PLANE_6.triangles)
    report = homology_report(X, p=3)
    assert eliminations == {"eliminate": 1, "smith": 1}
    assert report.dim_h1 == 0 and report.torsion_order == 2
    Y = TwoComplex(6, PROJECTIVE_PLANE_6.triangles)
    assert homology_report(Y, p=3, include_snf=False).dim_h1 == 0
    assert homology_report(Y).min_generators == 1
    assert homology_report(Y, p=2).dim_h1 == 1
    assert eliminations == {"eliminate": 2, "smith": 2}
