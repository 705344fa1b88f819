"""Antisymmetric edge labelings of the complete graph.

A cochain assigns a group element f(u, v) to each ordered pair of distinct
vertices with f(v, u) = -f(u, v). Vertices are 1-based. Storage is one label
index per unordered edge in lexicographic order (homology.edge_list); the
accessor negates for reversed pairs.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphons import StepKernel
from .groups import Group, SymmetricDistribution
from .homology import MAX_BOUNDARY_EDGES, _triangle_edges, _triu, edge_index


class Cochain:
    """Group-valued antisymmetric labeling of K_n edges.

    labels[i] is the group element index on the i-th edge (u < v); the value
    on (v, u) is the negation.
    """

    def __init__(self, group: Group, n: int, labels):
        if n < 2:
            raise ValueError("need at least 2 vertices")
        labels = np.asarray(labels, dtype=np.intp)
        m = n * (n - 1) // 2
        if labels.shape != (m,):
            raise ValueError(f"expected {m} edge labels for n={n}, got shape {labels.shape}")
        if labels.min() < 0 or labels.max() >= group.order:
            raise ValueError("label index out of range for the group")
        self.group = group
        self.n = n
        self.labels = labels

    def value(self, u: int, v: int):
        return self.group.element(self.index_value(u, v))

    def index_value(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("cochains are defined on distinct vertex pairs")
        i = self.labels[edge_index(self.n, u, v)]
        if u < v:
            return int(i)
        return int(self.group.neg_perm[i])

    def label_matrix(self) -> np.ndarray:
        """(n, n) matrix of label indices, 0-based vertices; diagonal is 0
        and must be masked out by callers. One scatter of the labels through
        the cached upper-triangle indices, and of their negations below."""
        n = self.n
        iu, ju = _triu(n)
        M = np.zeros((n, n), dtype=np.intp)
        M[iu, ju] = self.labels
        M[ju, iu] = self.group.neg_perm[self.labels]
        return M

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.group == other.group
            and self.n == other.n
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self):
        return f"Cochain(n={self.n}, group={self.group})"


def random_cochain(n: int, nu: SymmetricDistribution, rng: np.random.Generator) -> Cochain:
    """Independent nu-draws on the n(n-1)/2 edges."""
    m = n * (n - 1) // 2
    if m > MAX_BOUNDARY_EDGES:
        raise ValueError(f"random cochain needs C(n,2) <= {MAX_BOUNDARY_EDGES} edges; n = {n} has {m}")
    return Cochain(nu.group, n, nu.sample_indices(rng, m))


def path_counts(f: Cochain) -> np.ndarray:
    """counts[u-1, w-1, g] = #middle vertices v with f(u, v) + f(v, w) = g.

    Shape (n, n, |G|). On the diagonal the two labels cancel, so
    counts[u, u, 0] = n - 1 and the rest of that fiber is zero."""
    n, order = f.n, f.group.order
    M = f.label_matrix()
    tab = f.group.add_table
    counts = np.zeros((n, n, order), dtype=np.int64)
    idx = np.arange(n)
    for u in range(n):
        counts[u, u, 0] = n - 1
        for w in range(n):
            if u == w:
                continue
            sums = tab[M[u, :], M[:, w]]
            mask = (idx != u) & (idx != w)
            counts[u, w] = np.bincount(sums[mask], minlength=order)
    return counts


def cocycle_triangles(f: Cochain) -> tuple[tuple[int, int, int], ...]:
    """Triangles {u < v < w} whose cyclic label sum vanishes, i.e.
    f(u, v) + f(v, w) = f(u, w), in lexicographic order.

    One gather over every triangle's edges (homology._triangle_edges): each
    edge is stored as u < v, so its label is read with no negation."""
    n = f.n
    uv, uw, vw = _triangle_edges(n)
    labels = f.labels
    hit = f.group.add_table[labels[uv], labels[vw]] == labels[uw]
    iu, ju = _triu(n)
    first, last = uv[hit], uw[hit]
    return tuple(zip((iu[first] + 1).tolist(), (ju[first] + 1).tolist(), (ju[last] + 1).tolist()))


def embed_graphon(f: Cochain, exact: bool = False) -> StepKernel:
    """Step kernel of the cochain: n equal parts, indicator values
    1{f(u, v) = g} off the diagonal, all-zero diagonal blocks. One scatter
    of the ones above the diagonal at the labels and below it at their
    negations, in float or Fraction values alike. The scatter is symmetric
    under the group's negation and finite by construction, so StepKernel's
    checks are skipped (the tests run them on embeddings)."""
    n, order = f.n, f.group.order
    if exact:
        vals = np.empty((n, n, order), dtype=object)
        vals[...] = Fraction(0)
        one = Fraction(1)
        measures = [Fraction(1, n)] * n
    else:
        vals = np.zeros((n, n, order))
        one = 1.0
        measures = [1.0 / n] * n
    iu, ju = _triu(n)
    vals[iu, ju, f.labels] = one
    vals[ju, iu, f.group.neg_perm[f.labels]] = one
    return StepKernel(f.group, measures, vals, _validate=False)
