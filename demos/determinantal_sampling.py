"""Draw spanning acyclic 2-complexes from the squared-torsion measure.

The sampler conditions the projection kernel face by face, working on its
orthonormal basis; here we check its output distribution against exact
enumeration and exact avoidance numbers.
"""
import collections
import math

import numpy as np
from scipy import stats

from cochainlab import (
    avoidance_probability_exact,
    build_kernel,
    enumerate_hypertrees,
    sample_hypertree,
)

n = 5
kern = build_kernel(n)
V = kern.basis
print(f"kernel at n={n}: basis {V.shape[0]} faces x rank {kern.rank}, "
      f"||V||^2 = trace K = {np.sum(V * V):.12f}")

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

# scaling: one draw at n=14 takes 78 chain-rule steps on the 364x78 basis
big = build_kernel(14)
T = sample_hypertree(big, rng)
print(f"\nn=14 draw: {T.num_faces} faces (C(13,2) = {math.comb(13, 2)})")
