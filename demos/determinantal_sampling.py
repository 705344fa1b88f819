"""Draw spanning acyclic 2-complexes from the squared-torsion measure.

The sampler conditions the projection kernel face by face. On the complete
complex that kernel is K = d2^T d2 / n in closed form, and the sampler reads
it through each face's three edges, conditioning in edge space; here we
check the sampler's output distribution against exact enumeration and exact
avoidance numbers.
"""
import collections
import math

import numpy as np
from scipy import stats

from cochainlab import (
    avoidance_probability_exact,
    boundary_matrices,
    build_kernel,
    enumerate_hypertrees,
    full_two_skeleton,
    sample_hypertree,
)

n = 5
kern = build_kernel(n)
d2 = boundary_matrices(full_two_skeleton(n))
G = d2.T @ d2
print(f"kernel at n={n}: K = d2^T d2 / {n} on {G.shape[0]} faces, rank {kern.rank}; "
      f"trace G = {np.trace(G)} = n * rank, G G == n G: {bool((G @ G == n * G).all())}")

rng = np.random.default_rng(0)
reps = 20_000
counts = collections.Counter(sample_hypertree(kern, rng).triangle_set() for _ in range(reps))

trees = enumerate_hypertrees(n)
weights = {X.triangle_set(): t * t / 125 for X, t in trees}
print(f"{len(counts)} distinct complexes seen of {len(weights)} possible")

observed = [counts.get(k, 0) for k in weights]
expected = [reps * w for w in weights.values()]
res = stats.chisquare(observed, expected)
print(f"chi-square over the full support: stat {res.statistic:.1f}, p {res.pvalue:.3f}")

# the same kernel answers containment questions in closed form
Y = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
     (2, 3, 4), (2, 3, 5), (2, 4, 5)]
p = avoidance_probability_exact(n, Y)
hits = sum(c for k, c in counts.items() if k <= set(Y))
print(f"\nP(sample inside a fixed 9-face set) = {p} = {float(p):.6f}")
print(f"empirical {hits / reps:.6f} over {reps} draws")

# scaling: one draw at n=14 takes 78 chain-rule steps over 364 faces
big = build_kernel(14)
T = sample_hypertree(big, rng)
print(f"\nn=14 draw: {T.num_faces} faces (C(13,2) = {math.comb(13, 2)})")
