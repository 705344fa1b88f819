"""
Census of spanning acyclic 2-complexes
======================================

Enumerate every complex on n vertices with complete 1-skeleton, C(n-1,2)
triangles and finite first homology, weight each by |H_1|^2, and watch the
weighted count land on n^C(n-2,2) on the nose.
"""
import math

from cochainlab import (
    boundary_matrices,
    enumerate_hypertrees,
    homology_report,
    smith_normal_form,
)

census = {n: enumerate_hypertrees(n) for n in (4, 5, 6)}
for n, trees in census.items():
    total = sum(t * t for _, t in trees)
    expect = n ** math.comb(n - 2, 2)
    print(f"n={n}: {len(trees)} complexes, sum |H1|^2 = {total} (target {expect})")

# every complex with torsion shows up at n = 6, and each one is a 6-vertex
# triangulation of the projective plane
torsion = [(X, t) for X, t in census[6] if t > 1]
print(f"\nn=6 torsion complexes: {len(torsion)}, all with |H1| = "
      f"{sorted({t for _, t in torsion})}")

X, t = torsion[0]
print("\nfirst one, faces:")
for tri in X.triangles:
    print("  ", tri)

rep = homology_report(X, p=2)
print(f"\nelementary divisors of d2: {rep.elementary_divisors}")
print(f"dim H^1 over F_2: {rep.dim_h1}")
print(f"minimal generator count: {rep.min_generators}")

# the square of the torsion is what the determinantal measure weights by,
# so these twelve complexes each carry 4x the probability of an ordinary one
d = smith_normal_form(boundary_matrices(X))
print(f"\nSNF divisor chain: {d}, product {math.prod(d)}")
