import numpy as np
import pytest
from fractions import Fraction

from cochainlab.cochains import (
    Cochain,
    cocycle_triangles,
    edge_index,
    edge_list,
    embed_graphon,
    path_counts,
    random_cochain,
    triangle_support_counts,
)
from cochainlab.groups import Group, SymmetricDistribution


def _uniform(moduli):
    return SymmetricDistribution.uniform(Group(moduli))


def test_edge_list_order_and_index():
    n = 5
    for i, (u, v) in enumerate(edge_list(n)):
        assert u < v
        assert edge_index(n, u, v) == i
        assert edge_index(n, v, u) == i


def test_edge_list_cache_is_bounded():
    for n in range(2, 42):
        assert len(edge_list(n)) == n * (n - 1) // 2
        assert edge_index(n, 1, n) == n - 2
    assert edge_list.cache_info().currsize <= 16


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
    h = f.permute(pi)
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


def test_triangle_support_counts_match_path_counts():
    nu = _uniform((2, 3))
    f = random_cochain(6, nu, np.random.default_rng(4))
    t = triangle_support_counts(f)
    pc = path_counts(f)
    M = f.label_matrix()
    for u, v in edge_list(6):
        assert t[u - 1, v - 1] == pc[u - 1, v - 1, M[u - 1, v - 1]]
        assert t[u - 1, v - 1] == t[v - 1, u - 1]
    assert (np.diag(t) == 0).all()


def test_triangle_support_counts_equal_incident_cocycle_triangles():
    nu = _uniform((2,))
    f = random_cochain(6, nu, np.random.default_rng(11))
    t = triangle_support_counts(f)
    Y = cocycle_triangles(f)
    for u, v in edge_list(6):
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


def test_cochain_rejects_bad_labels():
    g = Group((2,))
    with pytest.raises(ValueError):
        Cochain(g, 4, np.array([0, 1, 2, 0, 1, 0]))  # 2 out of range
    with pytest.raises(ValueError):
        Cochain(g, 4, np.zeros(5, dtype=np.intp))  # wrong length
