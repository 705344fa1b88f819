"""Step kernels on [0,1]^2 x G: cut norms, convolution, rate functionals.

A step kernel is given by k parts with positive measures summing to 1 and a
value slab ``values[i, j, gidx]``. Every kernel in this module satisfies the
mirror symmetry values[i, j, g] == values[j, i, -g] exactly; constructors
validate it and operations restore it by writing canonical entries and
mirroring, so float summation order cannot break it.

Two arithmetic modes share one code path: float64 slabs, or object-dtype
slabs of fractions.Fraction for exact rational work (measures then must be
Fractions too).
"""
from __future__ import annotations

import math
import os
import threading
from fractions import Fraction

import numpy as np

from .groups import Group, SymmetricDistribution

W00_TOL = 1e-9
EXACT_CUT_LIMIT = 24


class StepKernel:
    """Symmetric group-labeled step kernel.

    Attributes:
        group: the label group G.
        measures: part measures, shape (k,); float64 or object (Fraction).
        values: shape (k, k, |G|); float64 or object (Fraction).
        exact: True when both measures and values are rational.
    """

    def __init__(self, group: Group, measures, values, _validate: bool = True):
        self.group = group
        measures = _as_vector(measures)
        values = _as_slab(values)
        self.exact = measures.dtype == object and values.dtype == object
        if measures.dtype == object or values.dtype == object:
            if not self.exact:
                raise ValueError("exact kernels need Fraction measures and Fraction values")
        self.measures = measures
        self.values = values
        k = measures.shape[0]
        if values.shape != (k, k, group.order):
            raise ValueError(
                f"values shape {values.shape} does not match {k} parts and group order {group.order}"
            )
        if _validate:
            self._validate()

    def _validate(self):
        for field, arr in (("part measures", self.measures), ("values", self.values)):
            if not self.exact and not np.isfinite(arr).all():
                raise ValueError(f"{field} must be finite, found NaN or infinity")
        if any(m <= 0 for m in self.measures):
            raise ValueError("part measures must be positive")
        total = self.measures.sum()
        if self.exact:
            if total != 1:
                raise ValueError(f"part measures sum to {total}, not 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"part measures sum to {total!r}, not 1 within 1e-12")
        neg = self.group.neg_perm
        mirrored = self.values[:, :, neg].transpose(1, 0, 2)
        if not np.array_equal(self.values, mirrored):
            i, j, g = np.argwhere(self.values != mirrored)[0]
            raise ValueError(
                f"symmetry violated at part ({i}, {j}), element "
                f"{self.group.label(self.group.element(int(g)))}: "
                f"{self.values[i, j, g]!r} != {self.values[j, i, neg[g]]!r}"
            )

    @property
    def k(self) -> int:
        return self.measures.shape[0]

    def float_values(self) -> np.ndarray:
        return self.values.astype(float) if self.exact else self.values

    def float_measures(self) -> np.ndarray:
        return self.measures.astype(float) if self.exact else self.measures

    def to_float(self) -> "StepKernel":
        if not self.exact:
            return self
        return StepKernel(self.group, self.float_measures(), self.float_values(), _validate=False)

    def is_graphon(self, tol: float = 1e-12):
        if self.exact:
            return all(0 <= v <= 1 for v in self.values.flat)
        return bool((self.values >= -tol).all() and (self.values <= 1 + tol).all())

    def slice_integrals(self):
        """Integral of each g-slice; sums to 1 for probability kernels."""
        mu = self.measures
        outer = mu[:, None] * mu[None, :]
        return np.array([(outer * self.values[:, :, g]).sum() for g in range(self.group.order)])

    def in_w00(self) -> bool:
        """Probability kernel: values in [0, 1] and slice sums 1, both within
        W00_TOL for float kernels and exactly for exact ones."""
        if not self.is_graphon(W00_TOL):
            return False
        sums = self.values.sum(axis=2)
        if self.exact:
            return all(s == 1 for s in sums.flat)
        return bool(np.abs(sums - 1.0).max() <= W00_TOL)

    def boundaries(self):
        """Part boundaries 0 < b_1 < ... < b_k = 1 (cumulative measures);
        Fractions for exact kernels, since object arrays sum exactly."""
        return list(np.cumsum(self.measures))

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"StepKernel(group={self.group}, k={self.k}, {mode})"


def _exact(v) -> Fraction:
    """v as a Fraction; a NaN or infinite float mixed into exact data is
    named, not raised as an OverflowError."""
    try:
        return Fraction(v)
    except (OverflowError, ValueError):
        raise ValueError(f"number {v!r} is not a finite fraction") from None


def _as_vector(x) -> np.ndarray:
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return x.copy() if x.dtype == object else x.astype(float)
    x = list(x)
    if any(isinstance(v, Fraction) for v in x):
        out = np.empty(len(x), dtype=object)
        out[:] = [_exact(v) for v in x]
        return out
    return np.array([float(v) for v in x], dtype=float)


def _as_slab(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        if x.ndim != 3:
            raise ValueError(f"values must be a rank-3 array, got shape {x.shape}")
        return x.copy() if x.dtype == object else x.astype(float)
    arr = np.array(x, dtype=object)
    if arr.ndim != 3:
        raise ValueError(f"values must be a rank-3 array, got shape {arr.shape}")
    if any(isinstance(v, Fraction) for v in arr.flat):
        out = np.empty(arr.shape, dtype=object)
        out[...] = [[[_exact(v) for v in row] for row in plane] for plane in x]
        return out
    return arr.astype(float)


def mirror_canonical(group: Group, values: np.ndarray) -> np.ndarray:
    """Forces values[j, i, -g] = values[i, j, g] by copying canonical entries:
    i < j always, and on the diagonal the lexicographically smaller of (g, -g).
    A mathematical no-op for symmetric data; removes float-order asymmetry.
    """
    neg = group.neg_perm
    out = values.copy()
    k = values.shape[0]
    for g in range(group.order):
        ng = int(neg[g])
        for i in range(k):
            for j in range(i, k):
                if i == j and ng < g:
                    out[i, i, g] = out[i, i, ng]
                elif i < j:
                    out[j, i, ng] = out[i, j, g]
    return out


def constant_kernel(group: Group, nu: SymmetricDistribution, k: int = 1) -> StepKernel:
    """W^g constant nu(g); symmetric because nu is."""
    if nu.exact:
        measures = [Fraction(1, k)] * k
        vals = np.empty((k, k, group.order), dtype=object)
    else:
        measures = [1.0 / k] * k
        vals = np.empty((k, k, group.order), dtype=float)
    for g in range(group.order):
        vals[:, :, g] = nu.probs[g]
    return StepKernel(group, measures, vals)


def uniform_kernel(group: Group, k: int = 1, exact: bool = False) -> StepKernel:
    """The uniform graphon: every slice constant 1/|G|."""
    return constant_kernel(group, SymmetricDistribution.uniform(group, exact), k)


# ---------------------------------------------------------------------------
# common refinement

def _refine_boundaries(bv, bw, exact: bool):
    """Merge two sorted boundary lists ending at 1; returns (merged, map_v, map_w)
    where map_v[r] = part of V containing refined part r. Float boundaries
    within 1e-12 of each other are one cut."""
    merged = []
    iv = iw = 0
    cur = []
    while iv < len(bv) or iw < len(bw):
        cv = bv[iv] if iv < len(bv) else None
        cw = bw[iw] if iw < len(bw) else None
        if cw is None:
            nxt = cv
        elif cv is None:
            nxt = cw
        else:
            nxt = min(cv, cw)
        same_v = cv is not None and (cv == nxt if exact else abs(float(cv) - float(nxt)) <= 1e-12)
        same_w = cw is not None and (cw == nxt if exact else abs(float(cw) - float(nxt)) <= 1e-12)
        cur.append(nxt)
        merged.append((iv, iw))
        if same_v:
            iv += 1
        if same_w:
            iw += 1
    # clamp: float drift in the final boundary must not index past the end
    map_v = np.array([min(p[0], len(bv) - 1) for p in merged], dtype=np.intp)
    map_w = np.array([min(p[1], len(bw) - 1) for p in merged], dtype=np.intp)
    return cur, map_v, map_w


def refine_pair(V: StepKernel, W: StepKernel):
    """Rewrites V and W on the common refinement of their partitions.

    Returns (V', W') with identical measures. Exact when both inputs are.
    """
    if V.group != W.group:
        raise ValueError("kernels live over different groups")
    exact = V.exact and W.exact
    if not exact and (V.exact or W.exact):
        V, W = V.to_float(), W.to_float()
    bv, bw = V.boundaries(), W.boundaries()
    cuts, map_v, map_w = _refine_boundaries(bv, bw, exact)
    if exact:
        meas = np.empty(len(cuts), dtype=object)
        prev = Fraction(0)
    else:
        meas = np.empty(len(cuts), dtype=float)
        prev = 0.0
    for r, b in enumerate(cuts):
        meas[r] = b - prev
        prev = b
    vv = V.values[np.ix_(map_v, map_v)]
    wv = W.values[np.ix_(map_w, map_w)]
    Vr = StepKernel(V.group, meas, vv, _validate=False)
    Wr = StepKernel(W.group, meas, wv, _validate=False)
    return Vr, Wr


def kernel_difference(V: StepKernel, W: StepKernel) -> StepKernel:
    Vr, Wr = refine_pair(V, W)
    return StepKernel(V.group, Vr.measures, Vr.values - Wr.values, _validate=False)


# ---------------------------------------------------------------------------
# cut norm

class CutNormTooLarge(ValueError):
    """Raised when an exact cut norm is requested beyond the part limit."""


_TABLE_ROWS = 13  # rows in the low subset-sum table: 2^13 masks of m floats


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of every subset of ``rows`` (r, m), stored as (m, 2^r):
    column ``mask`` sums the rows whose bits are set in ``mask``."""
    r, m = rows.shape
    out = np.zeros((m, 1 << r))
    for b in range(r):
        h = 1 << b
        out[:, h : 2 * h] = out[:, :h] + rows[b][:, None]
    return out


def _scan_masks(low, low_tot, neg_high, high_tot, masks: range):
    """The scan of max_box_exact over the high masks in ``masks``: the first
    maximum in increasing mask order, as (value, mask, sign), or
    (0.0, 0, 1.0) when no box sum beats zero.

    For S = (high mask h, low mask i), column j sums L_j + H_j, and the best
    positive box sums max(L_j + H_j, 0) = max(L_j, -H_j) + H_j over j. So
    each high mask costs one maximum into one reused buffer, one column sum
    and the scalar high_tot[h].
    """
    lo = low.shape[1].bit_length() - 1
    cols = np.empty_like(low)
    best, best_mask, best_sign = 0.0, 0, 1.0
    for h in masks:
        over = np.maximum(low, neg_high[:, h, None], out=cols).sum(axis=0)
        pos = over + high_tot[h]
        negabs = pos - (low_tot + high_tot[h])
        cand = np.maximum(pos, negabs)
        i = int(np.argmax(cand))
        if cand[i] > best:
            best = float(cand[i])
            best_mask = (h << lo) | i
            best_sign = 1.0 if pos[i] >= negabs[i] else -1.0
    return best, best_mask, best_sign


def _scan_workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mask_blocks(n_high: int) -> list[range]:
    """The high masks as contiguous blocks in increasing order: one per CPU
    (never more than masks) from 4 masks up, else one block."""
    parts = min(_scan_workers(), n_high) if n_high >= 4 else 1
    return [range(n_high * b // parts, n_high * (b + 1) // parts) for b in range(parts)]


_POOL = None  # (pid, threads for the block split), made by the first split scan
_POOL_LOCK = threading.Lock()


def _scan_pool():
    """The thread pool the blocks of a split scan run on; numpy releases the
    GIL inside the scan's ufuncs. Made on first use, so importing this
    module starts no thread and does not import concurrent.futures, and
    again in a forked child, which inherits the pool but not its threads."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _POOL = (os.getpid(), ThreadPoolExecutor(_scan_workers(), thread_name_prefix="max_box"))
        return _POOL[1]


def max_box_exact(A: np.ndarray):
    """max over S, T subseteq rows/cols of |sum_{i in S, j in T} A[i, j]|,
    returned as (value, S, T, signed box sum), as max_box_heuristic does.

    Exhaustive over S (2^k masks); T greedy per sign. A is the already
    measure-weighted matrix, so this is the cut norm contribution of one
    slice. Meet in the middle: the column sums of every subset of the low
    rows and of the high rows are tabulated once, so each mask costs m
    maxima and m additions. For a fixed S the best positive box sums the
    positive column sums, and the best negative one is that less the total
    of S. Masks are scanned in increasing order; the first maximum wins.
    From 4 high masks (k >= 15) up, the high masks are split into one
    contiguous block per CPU, scanned on threads; the blocks' results are
    taken in block order with a strict comparison, so a tie still goes to
    the smallest mask and the witness does not depend on the CPU count.
    The value returned is the witness box's sum in exact rounding
    (math.fsum), so it depends on (S, T) alone, not on the order in which
    the scan added. On an exactly symmetric A the boxes (S, T) and (T, S)
    tie exactly, and the witness is the lexicographically smaller of the
    two, not whichever mask rounded larger.
    """
    k, m = A.shape
    if k > EXACT_CUT_LIMIT:
        raise CutNormTooLarge(
            f"{k} parts exceeds the exact cut-norm limit {EXACT_CUT_LIMIT}; "
            "use the heuristic lower bound instead"
        )
    lo = min(k, _TABLE_ROWS)
    low = _subset_sums(A[:lo])  # (m, 2^lo)
    high = _subset_sums(A[lo:])  # (m, 2^(k - lo))
    tables = (low, low.sum(axis=0), -high, high.sum(axis=0))
    blocks = _mask_blocks(high.shape[1])
    run = map if len(blocks) == 1 else _scan_pool().map  # threads only for a split
    results = run(lambda masks: _scan_masks(*tables, masks), blocks)
    best, best_mask, best_sign = 0.0, 0, 1.0
    for value, mask, sign in results:  # block order; an earlier block wins a tie
        if value > best:
            best, best_mask, best_sign = value, mask, sign
    S = [i for i in range(k) if (best_mask >> i) & 1]
    colsum = A[S].sum(axis=0)
    T = [j for j in range(m) if best_sign * colsum[j] > 0]
    if k == m and np.array_equal(A, A.T):
        S, T = min((S, T), (T, S))
    value = math.fsum(A[np.ix_(S, T)].flat)
    return abs(value), S, T, value


# Random starts of the alternating heuristic per slice (the first start is
# all rows).
HEURISTIC_RESTARTS = 24


def max_box_heuristic(A: np.ndarray, rng: np.random.Generator):
    """Certified lower bound for max_box via alternating sign optimization.

    Each of HEURISTIC_RESTARTS restarts seeds row signs, then alternately
    picks the optimal T for fixed S and vice versa until fixed point. The returned value is exact
    for the witness found, hence a true lower bound.
    """
    k, m = A.shape
    best, bestS, bestT, bestval = 0.0, [], [], 0.0
    for r in range(HEURISTIC_RESTARTS):
        s = rng.integers(0, 2, size=k).astype(float) if r else np.ones(k)
        for _ in range(60):
            colsum = s @ A
            t = (colsum > 0).astype(float)
            rowsum = A @ t
            s_new = (rowsum > 0).astype(float)
            if np.array_equal(s_new, s):
                break
            s = s_new
        for sign in (1.0, -1.0):
            B = A * sign
            sv = s.copy()
            for _ in range(60):
                t = ((sv @ B) > 0).astype(float)
                sv_new = ((B @ t) > 0).astype(float)
                if np.array_equal(sv_new, sv):
                    break
                sv = sv_new
            t = ((sv @ B) > 0).astype(float)
            val = float(sv @ A @ t)
            if abs(val) > best:
                best = abs(val)
                bestS = [i for i in range(k) if sv[i]]
                bestT = [j for j in range(m) if t[j]]
                bestval = val
    return best, bestS, bestT, bestval


def _weighted_slices(W: StepKernel) -> np.ndarray:
    mu = W.float_measures()
    outer = mu[:, None] * mu[None, :]
    return W.float_values() * outer[:, :, None]


def cut_norm(W: StepKernel) -> float:
    """Sum over g of the exact slice cut norms. Raises CutNormTooLarge past
    24 parts; see cut_norm_lower for the heuristic."""
    slabs = _weighted_slices(W)
    return float(sum(max_box_exact(slabs[:, :, g])[0] for g in range(W.group.order)))


def cut_norm_lower(W: StepKernel, rng: np.random.Generator | None = None) -> float:
    """Certified lower bound on the cut norm (alternating heuristic)."""
    if rng is None:
        rng = np.random.default_rng(0)
    slabs = _weighted_slices(W)
    return float(
        sum(max_box_heuristic(slabs[:, :, g], rng)[0] for g in range(W.group.order))
    )


def _permute_parts(W: StepKernel, perm) -> StepKernel:
    perm = np.asarray(perm, dtype=np.intp)
    return StepKernel(
        W.group, W.measures[perm], W.values[np.ix_(perm, perm)], _validate=False
    )


# cut_distance_bounds tries all k! part alignments up to this k, and beyond
# it this many random ones before hill climbing.
EXHAUSTIVE_ALIGN_LIMIT = 7
ALIGN_SAMPLES = 200


def cut_distance_bounds(V: StepKernel, W: StepKernel, rng: np.random.Generator | None = None):
    """(lower, upper) bracket for the alignment-optimized cut distance.

    upper: min over part alignments of ||V - W o sigma||_cut. All k!
    permutations when both kernels have k <= EXHAUSTIVE_ALIGN_LIMIT parts of
    equal measure; otherwise ALIGN_SAMPLES seeded random alignments refined
    by pairwise-swap hill climbing (still a valid upper bound, possibly
    loose).

    lower: alignment-free invariants. Slice masses int W^g are preserved by
    any measure-preserving map, and |int V^g - int W^g| <= ||(V - W)^g||_cut
    with S = T = [0,1], so the summed mass gap is a sound lower bound.
    """
    import itertools as _it

    if rng is None:
        rng = np.random.default_rng(0)
    V = V.to_float()
    W = W.to_float()

    mv = V.slice_integrals()
    mw = W.slice_integrals()
    lower = float(np.abs(mv - mw).sum())

    def aligned_norm(perm):
        return cut_norm(kernel_difference(V, _permute_parts(W, perm)))

    k = W.k
    equal = (
        V.k == k
        and np.allclose(V.float_measures(), 1.0 / k, atol=1e-12)
        and np.allclose(W.float_measures(), 1.0 / k, atol=1e-12)
    )
    if equal and k <= EXHAUSTIVE_ALIGN_LIMIT:
        upper = min(aligned_norm(p) for p in _it.permutations(range(k)))
    else:
        best_perm = np.arange(k)
        upper = aligned_norm(best_perm)
        for _ in range(ALIGN_SAMPLES):
            p = rng.permutation(k)
            val = aligned_norm(p)
            if val < upper:
                upper, best_perm = val, p
        improved = True
        while improved:
            improved = False
            for i in range(k):
                for j in range(i + 1, k):
                    p = best_perm.copy()
                    p[i], p[j] = p[j], p[i]
                    val = aligned_norm(p)
                    if val < upper - 1e-15:
                        upper, best_perm, improved = val, p, True
    upper = max(upper, lower)
    return lower, float(upper)


# ---------------------------------------------------------------------------
# convolution

# Largest float asymmetry |(V * W)[i, j, g] - (V * W)[j, i, -g]| accepted as
# rounding; beyond it the pair is taken to be non-commuting.
CONVOLVE_SYM_TOL = 1e-9

_numerator = np.frompyfunc(lambda x: x.numerator, 1, 1)
_denominator = np.frompyfunc(lambda x: x.denominator, 1, 1)
_fraction = np.frompyfunc(Fraction, 2, 1)


def _row_lcms(dens: np.ndarray) -> np.ndarray:
    """LCM of each row dens[i] (all its entries), as Python ints."""
    out = np.empty(dens.shape[0], dtype=object)
    out[:] = [math.lcm(*row.flat) for row in dens]
    return out


def _integer_factors(Vr: StepKernel, Wr: StepKernel):
    """Integer slabs A, B and the (k, k) denominators D of an exact pair on
    one partition, with (V * W)[i, j, g] = (sum_h A^h @ B^{g-h})[i, j] / D[i, j].

    r_i is the LCM of the denominators in row i of V (all parts and
    elements), c_j the LCM over column j of W, and M the LCM of the part
    measures mu; then A[i, l, h] = V[i, l, h] r_i mu_l M and
    B[l, j, g] = W[l, j, g] c_j are Python ints, and D[i, j] = r_i M c_j.
    Per-row and per-column LCMs keep the integers small where one global LCM
    would multiply every unrelated denominator into every entry.
    """
    mu_den, v_den, w_den = (_denominator(x) for x in (Vr.measures, Vr.values, Wr.values))
    M = math.lcm(*mu_den)
    r = _row_lcms(v_den)
    c = _row_lcms(w_den.transpose(1, 0, 2))
    mu_int = _numerator(Vr.measures) * (M // mu_den)
    A = _numerator(Vr.values) * (r[:, None, None] // v_den) * mu_int[None, :, None]
    B = _numerator(Wr.values) * (c[None, :, None] // w_den)
    return A, B, (r * M)[:, None] * c[None, :]


def convolve(V: StepKernel, W: StepKernel | None = None) -> StepKernel:
    """Kernel convolution (V * W)^g = sum_h V^h o W^{g - h} with the measure
    weight on the inner coordinate.

    Self-convolution (W = None or W is V) is always symmetric. For distinct
    kernels symmetry requires V * W = W * V; the result is checked and a
    ValueError raised for non-commuting pairs, since the symmetric-kernel
    contract cannot hold for them.

    Exact kernels are scaled to integers over row and column common
    denominators (see _integer_factors): each (g, h) product is one
    Python-int matmul, and each cell is divided once at the end.
    """
    if W is None:
        W = V
    Vr, Wr = refine_pair(V, W)
    grp = Vr.group
    mu = Vr.measures
    if Vr.exact:
        weighted, right, dens = _integer_factors(Vr, Wr)
    else:
        weighted, right = Vr.values * mu[None, :, None], Wr.values
    order = grp.order
    out = np.empty_like(weighted)
    for g in range(order):
        # sum over h of V^h @ W^{g-h}; g-h read from the group table
        acc = weighted[:, :, 0] @ right[:, :, _sub_index(grp, g, 0)]
        for h in range(1, order):
            acc = acc + weighted[:, :, h] @ right[:, :, _sub_index(grp, g, h)]
        out[:, :, g] = acc
    if Vr.exact:
        out = _fraction(out, dens[:, :, None])
    sym = mirror_canonical(grp, out)
    if Vr.exact:
        if not np.array_equal(sym, out):
            raise ValueError("convolution of non-commuting kernels is not symmetric")
    else:
        if not np.allclose(sym, out, rtol=0, atol=CONVOLVE_SYM_TOL):
            raise ValueError("convolution of non-commuting kernels is not symmetric")
    return StepKernel(grp, mu, sym, _validate=False)


def _sub_index(group: Group, g: int, h: int) -> int:
    """Index of element(g) - element(h)."""
    return int(group.add_table[g, group.neg_perm[h]])


# ---------------------------------------------------------------------------
# rate functionals

def b_functional(W: StepKernel) -> float:
    """<W, log (W * W)> with 0 log 0 = 0; -inf when W > 0 meets (W*W) = 0.

    Requires a graphon (values in [0, 1])."""
    if not W.is_graphon():
        raise ValueError("b_functional needs values in [0, 1]")
    Wf = W.to_float()
    conv = convolve(Wf)
    mu = Wf.measures
    outer = (mu[:, None] * mu[None, :])[:, :, None]
    vals = Wf.values
    cvals = conv.values
    pos = vals > 0
    if (cvals[pos] == 0).any():
        return -math.inf
    with np.errstate(divide="ignore"):
        logc = np.where(pos, np.log(np.where(pos, cvals, 1.0)), 0.0)
    return float((outer * vals * logc).sum())


def b_log_terms(W: StepKernel) -> dict:
    """Exact decomposition b(W) = sum_r coeff[r] * log(r) over rationals r.

    Only for exact kernels. 0 log 0 terms are dropped; a key Fraction(0)
    with positive coefficient means b = -inf. Coefficients are summed per
    distinct log argument, zero coefficients removed."""
    if not W.exact:
        raise ValueError("b_log_terms needs an exact (Fraction) kernel")
    if not W.is_graphon():
        raise ValueError("b_log_terms needs values in [0, 1]")
    conv = convolve(W)
    mu = W.measures
    terms: dict[Fraction, Fraction] = {}
    k = W.k
    for i in range(k):
        for j in range(k):
            w_ij = mu[i] * mu[j]
            for g in range(W.group.order):
                c = W.values[i, j, g]
                if c == 0:
                    continue
                arg = Fraction(conv.values[i, j, g])
                coeff = Fraction(w_ij * c)
                terms[arg] = terms.get(arg, Fraction(0)) + coeff
    return {a: c for a, c in terms.items() if c != 0}


def rate_function(W: StepKernel, nu: SymmetricDistribution) -> float:
    """Relative-entropy rate (1/2) int sum_g W^g log(W^g / nu(g)); +inf off
    the probability-kernel set (slice sums must be 1 within W00_TOL)."""
    if not W.is_graphon():
        raise ValueError("rate_function needs values in [0, 1]")
    if nu.group != W.group:
        raise ValueError(f"nu is a distribution on {nu.group}, the kernel is over {W.group}")
    if not W.in_w00():
        return math.inf
    Wf = W.to_float()
    mu = Wf.measures
    outer = mu[:, None] * mu[None, :]
    vals = Wf.values
    p = nu.as_float_array()
    pos = vals > 0
    with np.errstate(divide="ignore"):
        logr = np.where(pos, np.log(np.where(pos, vals, 1.0) / p[None, None, :]), 0.0)
    return 0.5 * float((outer[:, :, None] * vals * logr).sum())


def entropy(W: StepKernel) -> float:
    """log|G| - 2 I_uniform(W); -inf off the probability-kernel set."""
    r = rate_function(W, SymmetricDistribution.uniform(W.group))
    if math.isinf(r):
        return -math.inf
    return math.log(W.group.order) - 2.0 * r


def z_functional(phi: StepKernel, W: StepKernel) -> float:
    """<phi, W> = int sum_g phi^g W^g over [0,1]^2."""
    Pr, Wr = refine_pair(phi, W)
    mu = Pr.float_measures()
    outer = mu[:, None] * mu[None, :]
    return float((outer[:, :, None] * Pr.float_values() * Wr.float_values()).sum())


def interpolate_to_uniform(W: StepKernel, t) -> StepKernel:
    """(1 - t) W + t U with U the uniform graphon; exact when W and t are."""
    if W.exact and isinstance(t, (Fraction, int)):
        t = Fraction(t)
        u = Fraction(1, W.group.order)
    else:
        W = W.to_float()
        t = float(t)
        u = 1.0 / W.group.order
    if not (0 <= t <= 1):
        raise ValueError(f"t must be in [0, 1], got {t}")
    vals = W.values * (1 - t) + t * u
    return StepKernel(W.group, W.measures, vals, _validate=False)


# ---------------------------------------------------------------------------
# moment generating functionals and duality

def _log_mgf_slab(phi_vals: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log sum_g nu(g) exp(2 phi[..., g]) elementwise over the leading axes."""
    x = 2.0 * phi_vals
    m = x.max(axis=-1, keepdims=True)
    return (m[..., 0]) + np.log((p * np.exp(x - m)).sum(axis=-1))


def mgf_limit(phi: StepKernel, nu: SymmetricDistribution) -> float:
    """(1/2) int log sum_g nu(g) e^{2 phi(x, y, g)} dx dy on phi's partition."""
    phi = phi.to_float()
    mu = phi.measures
    outer = mu[:, None] * mu[None, :]
    slab = _log_mgf_slab(phi.values, nu.as_float_array())
    return 0.5 * float((outer * slab).sum())


def step_to_grid(phi: StepKernel, n: int) -> np.ndarray:
    """Averages phi over the n x n uniform grid; returns (n, n, |G|) floats.

    This is the conditional-expectation stepping of phi onto the grid
    partition, the finite-n discretization used by mgf_finite_n."""
    phi = phi.to_float()
    bounds = [float(b) for b in phi.boundaries()]
    grid = [(i + 1) / n for i in range(n)]
    cuts, map_phi, map_grid = _refine_boundaries(bounds, grid, exact=False)
    meas = np.diff([0.0] + [float(c) for c in cuts])
    k = len(cuts)
    P = np.zeros((n, k))
    for r in range(k):
        P[map_grid[r], r] = meas[r] * n
    vals_ref = phi.values[np.ix_(map_phi, map_phi)]
    out = np.empty((n, n, phi.group.order))
    for g in range(phi.group.order):
        out[:, :, g] = P @ vals_ref[:, :, g] @ P.T
    return out


def mgf_finite_n(phi: StepKernel, n: int, nu: SymmetricDistribution) -> float:
    """Normalized log moment generating functional of the empirical kernel of
    a nu-random labeling on n vertices at test function phi.

    Equals (1/2) sum_{u != v} (1/n^2) log sum_g nu(g) e^{2 phi_n(u, v, g)}
    with phi_n the grid stepping of phi; the diagonal cells are excluded
    because embedded kernels vanish there."""
    if n < 1:
        raise ValueError("n must be >= 1")
    stepped = step_to_grid(phi, n)
    slab = _log_mgf_slab(stepped, nu.as_float_array())
    np.fill_diagonal(slab, 0.0)
    return 0.5 * float(slab.sum()) / (n * n)


def dual_rate(phi: StepKernel, W: StepKernel, nu: SymmetricDistribution) -> float:
    """Legendre bracket <phi, W> - limit MGF(phi); always <= rate_function."""
    return z_functional(phi, W) - mgf_limit(phi, nu)


def dual_maximize(W: StepKernel, nu: SymmetricDistribution):
    """Optimal test function phi* = (1/2) log(W / nu) on W's partition.

    Requires min W > 0 (strictly positive probability kernel). Returns
    (phi*, dual value); the value equals rate_function(W, nu) up to
    rounding, which is the attained-duality identity."""
    Wf = W.to_float()
    if not Wf.in_w00():
        raise ValueError("dual_maximize needs a probability kernel (slice sums 1)")
    if Wf.values.min() <= 0:
        raise ValueError("dual_maximize needs strictly positive values")
    p = nu.as_float_array()
    vals = 0.5 * np.log(Wf.values / p[None, None, :])
    phi = StepKernel(Wf.group, Wf.measures, mirror_canonical(Wf.group, vals), _validate=False)
    return phi, dual_rate(phi, Wf, nu)


# ---------------------------------------------------------------------------
# random generators (seeded; used by tests, demos and the lab)

def random_measures(k: int, rng: np.random.Generator, exact: bool = False):
    if exact:
        weights = [int(x) for x in rng.integers(1, 20, size=k)]
        total = sum(weights)
        return [Fraction(w, total) for w in weights]
    w = rng.random(k) + 0.05
    return list(w / w.sum())


def random_kernel(
    group: Group,
    k: int,
    rng: np.random.Generator,
    lo: float = -1.0,
    hi: float = 1.0,
    equal_parts: bool = False,
) -> StepKernel:
    """Random symmetric step kernel with values in [lo, hi]."""
    meas = [1.0 / k] * k if equal_parts else random_measures(k, rng)
    vals = rng.uniform(lo, hi, size=(k, k, group.order))
    return StepKernel(group, meas, mirror_canonical(group, vals))


def random_test_function(group: Group, k: int, rng: np.random.Generator, scale: float = 1.0) -> StepKernel:
    return random_kernel(group, k, rng, lo=-scale, hi=scale)


def random_w00(
    group: Group,
    k: int,
    rng: np.random.Generator,
    exact: bool = False,
    floor: float = 0.0,
    equal_parts: bool = False,
) -> StepKernel:
    """Random probability kernel (slice sums exactly 1). floor > 0 bounds all
    values below by floor / |G| via mixing with the uniform kernel."""
    order = group.order
    neg = group.neg_perm
    if exact:
        meas = [Fraction(1, k)] * k if equal_parts else random_measures(k, rng, exact=True)
        vals = np.empty((k, k, order), dtype=object)
        for i in range(k):
            for j in range(i, k):
                w = [int(x) for x in rng.integers(1, 30, size=order)]
                if i == j:
                    w = [w[g] + w[int(neg[g])] for g in range(order)]
                t = sum(w)
                row = [Fraction(x, t) for x in w]
                for g in range(order):
                    vals[i, j, g] = row[g]
                    vals[j, i, int(neg[g])] = row[g]
        if floor:
            f = Fraction(floor).limit_denominator(10**6)
            u = Fraction(1, order)
            vals = vals * (1 - f) + f * u
        return StepKernel(group, meas, mirror_canonical(group, vals))
    meas = [1.0 / k] * k if equal_parts else random_measures(k, rng)
    vals = rng.random((k, k, order)) + 1e-3
    vals = vals / vals.sum(axis=2, keepdims=True)
    vals = mirror_canonical(group, vals)
    # renormalize after mirroring, then mirror once more; diagonal pairs were
    # averaged consistently so this converges immediately
    vals = vals / vals.sum(axis=2, keepdims=True)
    vals = mirror_canonical(group, vals)
    K = StepKernel(group, meas, vals)
    if floor:
        K = interpolate_to_uniform(K, floor)
    return K
