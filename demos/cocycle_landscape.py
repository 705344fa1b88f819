"""Edge labelings, their closed triangles, and the two probability formulas.

A labeling of the edges of K_n by a finite abelian group has a set Y_f of
triangles on which it is additively consistent. Random 2-complexes avoid or
hit Y_f with probabilities this module computes exactly, and an integral
functional of the labeling's kernel embedding reproduces the same numbers.
"""
import math
from fractions import Fraction

import numpy as np

from cochainlab import (
    Group,
    SymmetricDistribution,
    b_functional,
    b_log_terms,
    cocycle_triangles,
    edge_list,
    embed_graphon,
    log_avoidance_probability_exact,
    log_containment_upper_bound,
    one_out_containment_probability,
    random_cochain,
    triangle_edge_counts,
)

n = 7
group = Group((2,))
nu = SymmetricDistribution.uniform(group)
f = random_cochain(n, nu, np.random.default_rng(12))

Y = cocycle_triangles(f)
t = triangle_edge_counts(n, Y)
print(f"labeling over {group} on K_{n}: {len(Y)} of {math.comb(n, 3)} triangles closed")
print("per-edge closed-triangle counts:")
for u, v in edge_list(n):
    print(f"  ({u},{v}): {t[u-1, v-1]}", end="")
print()

# the edge-count logs and the kernel functional agree exactly, term by term
lhs = {}
for u, v in edge_list(n):
    arg = Fraction(int(t[u - 1, v - 1]), n)
    lhs[arg] = lhs.get(arg, 0) + 1
rhs = {a: c * n * n / 2 for a, c in b_log_terms(embed_graphon(f, exact=True)).items()}
print(f"\nlog-argument multiset from edges == from kernel: {lhs == rhs}")
b = b_functional(embed_graphon(f))
edge_sum = sum(math.log(t[u - 1, v - 1] / n) for u, v in edge_list(n))
print(f"sum of edge logs {edge_sum:.10f} vs (n^2/2) b = {n * n / 2 * b:.10f}")

# exact hypertree containment vs its closed-form upper bound
exact = log_avoidance_probability_exact(n, Y)
bound = log_containment_upper_bound(n, Y)
print(f"\nlog P(hypertree inside Y_f): exact {exact:.6f}, bound {bound:.6f}, "
      f"slack {bound - exact:.6f}")

# the one-face-per-edge model has a fully elementary product formula
p = one_out_containment_probability(n, Y)
print(f"one-out containment: {p} = {float(p):.3e}")
