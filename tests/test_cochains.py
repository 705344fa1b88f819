import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cochainlab.cochains import (
    Cochain,
    cocycle_triangles,
    embed_graphon,
    path_counts,
    random_cochain,
)
from cochainlab.complexes import triangle_edge_counts
from cochainlab.groups import Group, SymmetricDistribution
from cochainlab.homology import MAX_SKELETON_TRIANGLES, edge_index, edge_list


def _uniform(moduli):
    return SymmetricDistribution.uniform(Group(moduli))


def permute(f: Cochain, pi) -> Cochain:
    """Relabels vertices: result(u, v) = f(pi(u), pi(v)); pi[u - 1] is the
    1-based image of u."""
    pi = [int(x) for x in pi]
    if sorted(pi) != list(range(1, f.n + 1)):
        raise ValueError("pi must be a permutation of 1..n")
    return Cochain(f.group, f.n, [f.index_value(pi[u - 1], pi[v - 1]) for u, v in edge_list(f.n)])


def test_edge_list_order_and_index():
    for n in range(2, 13):
        for i, (u, v) in enumerate(edge_list(n)):
            assert u < v
            assert edge_index(n, u, v) == i
            assert edge_index(n, v, u) == i


def test_edge_index_builds_no_table():
    """The index is a closed form; a dict of the C(1024, 2) edges took 77 MB."""
    tracemalloc.start()
    try:
        # edges (a, b) with a < 5 come first, then (5, 6), ..., (5, 899)
        assert edge_index(1024, 5, 900) == edge_index(1024, 900, 5) == sum(1024 - a for a in range(1, 5)) + 894
        assert edge_index(1024, 1023, 1024) == 1024 * 1023 // 2 - 1
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("u, v", [(3, 3), (0, 2), (2, 0), (1, 6), (-1, 2)])
def test_edge_index_refuses_a_pair_that_is_no_edge(u, v):
    with pytest.raises(ValueError, match=rf"^\({u}, {v}\) is not an edge of K_5"):
        edge_index(5, u, v)
    f = Cochain(Group((2,)), 5, np.zeros(10, dtype=int))
    with pytest.raises(ValueError):
        f.value(u, v)


def test_edge_list_cache_is_bounded():
    for n in range(2, 42):
        assert len(edge_list(n)) == n * (n - 1) // 2
        assert edge_index(n, 1, n) == n - 2


def test_antisymmetry():
    nu = _uniform((4,))
    f = random_cochain(6, nu, np.random.default_rng(0))
    g = f.group
    for u, v in edge_list(6):
        assert g.add(f.value(u, v), f.value(v, u)) == g.identity


def test_label_matrix_consistency():
    nu = _uniform((3, 2))
    f = random_cochain(5, nu, np.random.default_rng(1))
    M = f.label_matrix()
    for u, v in edge_list(5):
        assert M[u - 1, v - 1] == f.index_value(u, v)
        assert M[v - 1, u - 1] == f.index_value(v, u)


def test_permute_relabels_vertices():
    nu = _uniform((5,))
    rng = np.random.default_rng(2)
    f = random_cochain(6, nu, rng)
    pi = list(np.random.default_rng(3).permutation(6) + 1)
    h = permute(f, pi)
    for u, v in edge_list(6):
        assert h.value(u, v) == f.value(pi[u - 1], pi[v - 1])


def test_path_counts_against_triple_loop():
    # oracle: count middle vertices directly from the definition
    for seed in range(8):
        rng = np.random.default_rng(seed)
        moduli = [(2,), (3,), (2, 2)][seed % 3]
        nu = _uniform(moduli)
        n = int(rng.integers(3, 8))
        f = random_cochain(n, nu, rng)
        g = f.group
        pc = path_counts(f)
        for u in range(1, n + 1):
            for w in range(1, n + 1):
                for gi in range(g.order):
                    target = g.element(gi)
                    if u == w:
                        expect = (n - 1) if target == g.identity else 0
                    else:
                        expect = sum(
                            1
                            for v in range(1, n + 1)
                            if v != u and v != w
                            and g.add(f.value(u, v), f.value(v, w)) == target
                        )
                    assert pc[u - 1, w - 1, gi] == expect


def test_cocycle_triangles_by_definition():
    nu = _uniform((3,))
    rng = np.random.default_rng(9)
    f = random_cochain(7, nu, rng)
    g = f.group
    Y = cocycle_triangles(f)
    yset = set(Y)
    from itertools import combinations

    for (u, v, w) in combinations(range(1, 8), 3):
        compatible = g.add(f.value(u, v), f.value(v, w)) == f.value(u, w)
        assert ((u, v, w) in yset) == compatible


# t_Y(e) of the cocycle triangles Y_f: the per-edge count behind b(W_f)
EDGE_COUNT_GROUPS = [(2,), (3,), (4,), (2, 2), (2, 3)]


def _edge_count_cases():
    for k, moduli in enumerate(EDGE_COUNT_GROUPS):
        rng = np.random.default_rng([29, k])
        for n in range(3, 15):
            f = random_cochain(n, _uniform(moduli), rng)
            yield f, triangle_edge_counts(n, cocycle_triangles(f))


def test_cocycle_triangle_edge_counts_match_path_counts():
    """t(u, w) = path_counts at the edge's own label f(u, w)."""
    for f, t in _edge_count_cases():
        pc = path_counts(f)
        M = f.label_matrix()
        for u, v in edge_list(f.n):
            assert t[u - 1, v - 1] == pc[u - 1, v - 1, M[u - 1, v - 1]]
            assert t[u - 1, v - 1] == t[v - 1, u - 1]
        assert (np.diag(t) == 0).all()


def test_cocycle_triangle_edge_counts_equal_incident_faces():
    for f, t in _edge_count_cases():
        Y = cocycle_triangles(f)
        for u, v in edge_list(f.n):
            incident = sum(1 for tri in Y if u in tri and v in tri)
            assert t[u - 1, v - 1] == incident


def test_embed_graphon_structure():
    nu = _uniform((3,))
    f = random_cochain(5, nu, np.random.default_rng(6))
    W = embed_graphon(f, exact=True)
    assert W.k == 5
    assert W.exact
    assert all(m == Fraction(1, 5) for m in W.measures)
    g = f.group
    for u in range(5):
        for v in range(5):
            for gi in range(g.order):
                if u == v:
                    assert W.values[u, v, gi] == 0
                else:
                    expect = 1 if f.index_value(u + 1, v + 1) == gi else 0
                    assert W.values[u, v, gi] == expect


def test_embed_graphon_is_step_graphon():
    nu = _uniform((2, 2))
    f = random_cochain(4, nu, np.random.default_rng(7))
    W = embed_graphon(f)
    assert W.is_graphon()


def test_embed_graphon_passes_the_kernel_checks():
    # embed_graphon skips StepKernel's validation, since its scatter is
    # symmetric and finite by construction; the checks run here instead
    for moduli in ((2,), (3,), (4,), (2, 2)):
        nu = _uniform(moduli)
        for n in range(2, 13):
            for seed in range(3):
                f = random_cochain(n, nu, np.random.default_rng([n, seed, len(moduli)]))
                for exact in (False, True):
                    W = embed_graphon(f, exact=exact)
                    assert W.exact == exact
                    W._validate()


def test_cochain_rejects_bad_labels():
    g = Group((2,))
    with pytest.raises(ValueError):
        Cochain(g, 4, np.array([0, 1, 2, 0, 1, 0]))  # 2 out of range
    with pytest.raises(ValueError):
        Cochain(g, 4, np.zeros(5, dtype=np.intp))  # wrong length


# --------------------------------------------------------------------------
# the per-cell loops the array passes replaced, kept as oracles

ORACLE_GROUPS = [(2,), (3,), (4,), (2, 2), (3, 4), (12,), (2, 2, 2)]


def _oracle_label_matrix(f):
    n = f.n
    M = np.zeros((n, n), dtype=np.intp)
    neg = f.group.neg_perm
    for i, (u, v) in enumerate(edge_list(n)):
        M[u - 1, v - 1] = f.labels[i]
        M[v - 1, u - 1] = neg[f.labels[i]]
    return M


def _oracle_embed_values(f, exact):
    n, order = f.n, f.group.order
    M = _oracle_label_matrix(f)
    if exact:
        vals = np.empty((n, n, order), dtype=object)
        vals[...] = Fraction(0)
        one = Fraction(1)
    else:
        vals = np.zeros((n, n, order))
        one = 1.0
    for u in range(n):
        for v in range(n):
            if u != v:
                vals[u, v, M[u, v]] = one
    return vals


def _oracle_cocycle_triangles(f):
    M = _oracle_label_matrix(f)
    tab = f.group.add_table
    return tuple(
        (u + 1, v + 1, w + 1)
        for u, v, w in itertools.combinations(range(f.n), 3)
        if tab[M[u, v], M[v, w]] == M[u, w]
    )


def _oracle_cochains():
    for moduli in ORACLE_GROUPS:
        nu = _uniform(moduli)
        for n in range(3, 21):
            yield random_cochain(n, nu, np.random.default_rng([n, nu.group.order, len(moduli)]))


def test_array_passes_match_the_loops():
    # byte for byte: tobytes() on the int and float arrays, == and the type
    # of every cell on the Fraction slab, the very tuples of Python ints
    for f in _oracle_cochains():
        assert f.label_matrix().tobytes() == _oracle_label_matrix(f).tobytes()
        W = embed_graphon(f)
        assert W.values.tobytes() == _oracle_embed_values(f, exact=False).tobytes()
        assert W.measures.tobytes() == np.array([1.0 / f.n] * f.n).tobytes()
        Y = cocycle_triangles(f)
        assert Y == _oracle_cocycle_triangles(f)
        assert all(type(v) is int for t in Y for v in t)
        if f.n <= 12:
            We = embed_graphon(f, exact=True)
            oracle = _oracle_embed_values(f, exact=True)
            assert We.values.tolist() == oracle.tolist()
            assert all(type(v) is Fraction for v in We.values.flat)
            assert list(We.measures) == [Fraction(1, f.n)] * f.n


def test_cocycle_triangles_bound():
    n = 186  # the first n with C(n,3) above the bound
    assert math.comb(n - 1, 3) <= MAX_SKELETON_TRIANGLES < math.comb(n, 3)
    f = Cochain(Group((2,)), n, np.zeros(n * (n - 1) // 2, dtype=np.intp))
    with pytest.raises(ValueError, match=r"C\(n,3\) <= 1048576 triangles; n = 186 has 1055240"):
        cocycle_triangles(f)
