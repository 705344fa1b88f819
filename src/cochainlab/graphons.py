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
from functools import lru_cache

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
    One gather through the cached _mirror_index of the shape and group.
    """
    return values.reshape(-1)[_mirror_index(values.shape[0], group)]


@lru_cache(maxsize=4)
def _mirror_index(k: int, group: Group) -> np.ndarray:
    """Flat source cell of every cell (i, j, g) of a (k, k, |G|) slab under
    mirror_canonical: (i, j, g) above the diagonal, (j, i, -g) below it and
    (i, i, min(g, -g)) on it. Cached read-only, 8 bytes a cell."""
    order = group.order
    neg = group.neg_perm
    g = np.arange(order)
    i = np.arange(k)[:, None, None]
    j = np.arange(k)[None, :, None]
    source_g = np.where(i < j, g, np.where(i > j, neg, np.minimum(g, neg)))
    idx = (np.minimum(i, j) * k + np.maximum(i, j)) * order + source_g
    idx.flags.writeable = False
    return idx


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
# Candidates a scanning thread forms at a time: 8 high masks x 2^13 low masks,
# in two reused 512 KB buffers. A 20-part slice split over two CPUs took
# 12.7 ms with tiles of 2^16 cells, 13.5 ms with 2^15 and 15.6 ms with 2^17;
# with 2^14, 24.3 ms, as more and smaller ufunc calls hand the GIL back and
# forth between the threads. One mask at a time took 19.5 ms (medians of 40
# alternated calls each, 2-core x86 host, numpy 2.4).
_TILE_CELLS = 1 << 16


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of every subset of ``rows`` (r, m), stored as (m, 2^r):
    column ``mask`` sums the rows whose bits are set in ``mask``."""
    r, m = rows.shape
    out = np.empty((m, 1 << r))
    out[:, 0] = 0.0
    for b in range(r):
        h = 1 << b
        np.add(out[:, :h], rows[b, :, None], out=out[:, h : 2 * h])
    return out


def _scan_masks(low, low_tot, neg_high, high_tot, masks: range):
    """The scan of max_box_exact over the high masks in ``masks``: the first
    maximum in increasing mask order, as (value, mask, sign), or
    (0.0, 0, 1.0) when no box sum beats zero.

    For S = (high mask h, low mask i), column j sums L_j + H_j, and the best
    positive box sums max(L_j + H_j, 0) = max(L_j, -H_j) + H_j over j: m
    maxima, their sum and the tabulated high_tot[h]. The high masks go in
    tiles of consecutive masks, _TILE_CELLS candidates a tile (all of
    ``masks`` when they make fewer), whose maxima are added into one buffer
    row by row, j = 0, 1, ..., m-1, for every slice size. A sum over
    axis 0 adds in that order too, so every candidate is the float that a
    scan of one mask at a time forms. Read flat, a tile's candidates are in
    mask order, so its first argmax, kept only when it beats the best so far
    strictly, keeps the first maximum.
    """
    m, width = low.shape
    lo = width.bit_length() - 1
    tile = min(len(masks), _TILE_CELLS // width)  # high masks a tile
    acc, tmp = np.empty((tile, width)), np.empty((tile, width))
    best, best_mask, best_sign = 0.0, 0, 1.0
    for start in range(masks.start, masks.stop, tile):
        h = slice(start, min(start + tile, masks.stop))
        hi = high_tot[h, None]
        pos, cand = acc[: h.stop - start], tmp[: h.stop - start]
        np.maximum(low[0], neg_high[0, h, None], out=pos)
        for j in range(1, m):
            pos += np.maximum(low[j], neg_high[j, h, None], out=cand)
        np.add(low_tot, hi, out=cand)
        pos += hi
        np.subtract(pos, cand, out=cand)  # the best negative box, negated
        np.maximum(pos, cand, out=cand)
        i = int(cand.argmax())  # flat: (start + i // width, i % width)
        if cand.item(i) > best:
            best = cand.item(i)
            best_mask = (start << lo) + i
            best_sign = 1.0 if pos.item(i) == best else -1.0
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


# From this many high masks (k >= 18) max_box_exact screens in float32 first.
# On a standard normal k x k slice the screen and its rescan took 0.83x the
# full scan's time at k = 18, 0.78x at k = 20 and 0.62x at k = 24, but 1.20x
# at k = 15, 1.12x at k = 16 and 1.03x at k = 17 (medians of alternated
# calls, 2-core x86 host, numpy 2.4). Its tiles hold _TILE_CELLS float32
# candidates, half the bytes of a float64 tile.
_SCREEN_MIN_HIGH = 32


def _screen_masks(low, low_tot, neg_high, high_tot, masks: range) -> np.ndarray:
    """The float32 screen of max_box_exact over the high masks in ``masks``:
    each one's largest candidate, as a float32 array in mask order.

    The tables are float32 copies of _scan_masks' (scaled), and each
    candidate is formed by the same algebra, without argmax or sign: the m
    maxima max(L_j, -H_j) are added row by row, and high mask h keeps
    max(max_i pos + high_tot[h], max_i (pos - low_tot)), pos being the sum
    of the maxima. Rounding is monotone, so adding high_tot[h] after the
    maximum gives the maximum of the rounded sums.
    """
    m, width = low.shape
    tile = min(len(masks), _TILE_CELLS // width)
    acc, tmp = np.empty((tile, width), np.float32), np.empty((tile, width), np.float32)
    top = np.empty(len(masks), np.float32)
    for start in range(masks.start, masks.stop, tile):
        h = slice(start, min(start + tile, masks.stop))
        pos, cand = acc[: h.stop - start], tmp[: h.stop - start]
        np.maximum(low[0], neg_high[0, h, None], out=pos)
        for j in range(1, m):
            pos += np.maximum(low[j], neg_high[j, h, None], out=cand)
        out = top[start - masks.start : h.stop - masks.start]
        pos.max(axis=1, out=out)
        out += high_tot[h]
        np.maximum(out, np.subtract(pos, low_tot, out=cand).max(axis=1), out=out)
    return top


def _screened_blocks(tables, total: float) -> list[range]:
    """The high masks that can hold max_box_exact's first maximum, in
    increasing order, as the blocks its float64 scan takes: each run of
    consecutive masks split as _mask_blocks splits a full scan."""
    m = tables[0].shape[0]
    scale = math.ldexp(1.0, -math.frexp(total)[1])  # total * scale in [0.5, 1)
    # one rounding each, with no float64 temporary
    small = [np.multiply(t, scale, out=np.empty(t.shape, np.float32), casting="same_kind") for t in tables]
    blocks = _mask_blocks(tables[2].shape[1])
    run = map if len(blocks) == 1 else _scan_pool().map
    top = np.concatenate(list(run(lambda masks: _screen_masks(*small, masks), blocks)))
    err = (2 * m + 2) * 2.0**-24  # |float32 candidate - float64 candidate * scale|
    # in float64: rounded to float32, the threshold could rise past a mask that must pass
    keep = np.flatnonzero(top >= np.float64(top.max()) - 2 * err)
    runs = np.split(keep, np.flatnonzero(np.diff(keep) != 1) + 1)
    return [range(int(r[0]) + b.start, int(r[0]) + b.stop) for r in runs for b in _mask_blocks(len(r))]


def _check_matrix(A: np.ndarray) -> None:
    """Box sums need a 2-D matrix of finite entries: a NaN compares false
    everywhere, so a scan would return 0.0, and an infinity has no finite box
    to witness."""
    if A.ndim != 2:
        raise ValueError(f"need a 2-D matrix; got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite, found NaN or infinity")


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
    The scan goes in tiles of 8 high masks x 2^13 low masks, adding the m
    maxima row by row (_scan_masks), so each candidate has the value a scan
    of one mask at a time gives it, and so has the witness.
    From 4 high masks (k >= 15) up, the high masks are split into one
    contiguous block per CPU, scanned on threads; the blocks' results are
    taken in block order with a strict comparison, so a tie still goes to
    the smallest mask and the witness does not depend on the CPU count.
    From _SCREEN_MIN_HIGH = 32 high masks (k >= 18) up, when the total
    sigma = sum |A| lies in (2^-1000, 2^1000), a float32 screen
    (_screen_masks) first finds each high mask's largest candidate, and the
    float64 scan visits only the high masks within 2e of the best of these,
    in increasing order, a run of consecutive masks at a time, split per CPU
    as above. This returns the full scan's (value, mask, sign):
    - The screen's tables are the float64 tables times 2^-f, with f from
      frexp(sigma), each rounded once to float32. Scaling by a power of two
      is exact, so the float64 scan of the scaled tables forms each
      candidate times 2^-f. Every table entry, partial sum and candidate
      is, up to rounding, a signed sum of entries of A over distinct cells,
      so scaled it is at most sigma 2^-f < 1 in magnitude and below 2 as
      computed. Each rounding in the screen, a subnormal cast included,
      then errs by at most 2^-24, and each in the float64 scan by 2^-53.
    - A float32 candidate takes m + 1 rounded table entries (the m maxima
      take the error of one of their two arguments), m - 1 additions of
      maxima and one more addition or subtraction: 2m + 1 roundings. The
      float64 candidate takes m + 2 of its own, and both are exact
      arithmetic on the same scaled tables otherwise, so they differ by at
      most e = (2m + 2) 2^-24.
    - Let c* be the scan's maximum. Its high mask screens at >= c* - e, and
      the best screened value is at most c* + e, so every high mask with a
      float64 candidate >= c* screens within 2e of the best. A high mask
      that does not holds only candidates below c*, so the scan of the
      others finds c* at the same first mask, with the same sign.
    The value returned is the witness box's sum in exact rounding
    (math.fsum), so it depends on (S, T) alone, not on the order in which
    the scan added. On an exactly symmetric A the boxes (S, T) and (T, S)
    tie exactly, and the witness is the lexicographically smaller of the
    two, not whichever mask rounded larger.
    """
    _check_matrix(A)
    k, m = A.shape
    if k > EXACT_CUT_LIMIT:
        raise CutNormTooLarge(
            f"{k} parts exceeds the exact cut-norm limit {EXACT_CUT_LIMIT}; "
            "use the heuristic lower bound instead"
        )
    if m == 0:  # no column: every box is empty and sums 0
        return 0.0, [], [], 0.0
    lo = min(k, _TABLE_ROWS)
    low = _subset_sums(A[:lo])  # (m, 2^lo)
    high = _subset_sums(A[lo:])  # (m, 2^(k - lo))
    tables = (low, low.sum(axis=0), -high, high.sum(axis=0))
    n_high = high.shape[1]
    if n_high >= _SCREEN_MIN_HIGH and 2.0**-1000 < (total := float(np.abs(A).sum())) < 2.0**1000:
        blocks = _screened_blocks(tables, total)
    else:
        blocks = _mask_blocks(n_high)
    run = map if len(blocks) == 1 else _scan_pool().map  # threads only for a split
    results = run(lambda masks: _scan_masks(*tables, masks), blocks)
    best, best_mask, best_sign = 0.0, 0, 1.0
    for value, mask, sign in results:  # block order; an earlier block wins a tie
        if value > best:
            best, best_mask, best_sign = value, mask, sign
    S = [i for i in range(k) if (best_mask >> i) & 1]
    rows = A[S]
    colsum = rows.sum(axis=0)
    T = [j for j in range(m) if best_sign * colsum[j] > 0]
    value = math.fsum(rows[:, T].flat)  # the box (T, S) of a symmetric A sums the same
    if k == m and np.array_equal(A, A.T):
        S, T = min((S, T), (T, S))
    return abs(value), S, T, value


# Random starts of the alternating heuristic per slice (the first start is
# all rows), and the most alternations each start and sign may take.
HEURISTIC_RESTARTS = 24
HEURISTIC_ROUNDS = 60


def _alternate(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Each row s of the 0/1 matrix S replaced by s <- [B @ [s @ B > 0] > 0]
    until it repeats, or HEURISTIC_ROUNDS times; a row stops at its own
    fixed point, and the rows still moving advance together."""
    S = S.copy()
    live = np.arange(len(S))
    for _ in range(HEURISTIC_ROUNDS):
        if not len(live):
            break
        T = ((S[live, None, :] @ B)[:, 0] > 0).astype(float)
        new = ((B @ T[:, :, None])[:, :, 0] > 0).astype(float)
        moved = (new != S[live]).any(axis=1)
        S[live] = new
        live = live[moved]
    return S


def max_box_heuristic(A: np.ndarray, rng: np.random.Generator):
    """Certified lower bound for max_box via alternating sign optimization.

    Each of HEURISTIC_RESTARTS restarts seeds row signs, then alternately
    picks the optimal T for fixed S and vice versa until fixed point on A,
    then again on B = A and on B = -A from that S. The returned value is
    exact for the witness found, hence a true lower bound.
    The restarts advance together, as an (R, k) matrix of rows. Every
    product is a stack of vector products (S[:, None, :] @ B, B @ T[:, :,
    None]), which numpy runs as one gemv or dot per row, the call a single
    start's s @ B or B @ t makes; a plain 2-D S @ B would be one gemm, which
    sums in another order, so a row or column sum near 0 could round to the
    other side and change the witness. The first restart in order, then
    the sign +1 before -1, wins a tie, and the random starts are drawn one
    restart at a time, so the witness and the generator's state are those of
    running the restarts one after another.
    """
    _check_matrix(A)
    k, m = A.shape
    starts = np.ones((HEURISTIC_RESTARTS, k))
    for r in range(1, HEURISTIC_RESTARTS):
        starts[r] = rng.integers(0, 2, size=k)
    S = _alternate(starts, A)
    vals = np.empty((HEURISTIC_RESTARTS, 2))
    witnesses = []
    for j, sign in enumerate((1.0, -1.0)):
        B = A * sign
        SV = _alternate(S, B)
        T = ((SV[:, None, :] @ B)[:, 0] > 0).astype(float)
        vals[:, j] = ((SV[:, None, :] @ A) @ T[:, :, None])[:, 0, 0]
        witnesses.append((SV, T))
    score = np.abs(vals.ravel())  # restart-major, then sign
    score[np.isnan(score)] = 0.0  # a NaN sum never beats the best so far
    best = int(np.argmax(score))
    if not score[best] > 0:
        return 0.0, [], [], 0.0
    r, j = divmod(best, 2)
    SV, T = witnesses[j]
    val = float(vals[r, j])
    return abs(val), np.flatnonzero(SV[r]).tolist(), np.flatnonzero(T[r]).tolist(), val


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


def _self_refinement(V: StepKernel) -> StepKernel:
    """What refine_pair(V, V) returns for both kernels, without the merge:
    the parts stay, and each part measure is re-read as the difference of
    consecutive boundaries, which in floats is not always bit-equal to V's.
    The first part keeps its measure, as b_1 - 0 = b_1."""
    cuts = np.cumsum(V.measures)
    measures = np.concatenate((cuts[:1], cuts[1:] - cuts[:-1]))
    return StepKernel(V.group, measures, V.values, _validate=False)


def _within_sym_tol(sym: np.ndarray, out: np.ndarray) -> bool:
    """np.allclose(sym, out, rtol=0, atol=CONVOLVE_SYM_TOL) without its
    set-up: every cell equal (an infinity equals itself) or within the
    tolerance; a NaN is close to nothing."""
    with np.errstate(invalid="ignore"):
        return bool(((sym == out) | (np.abs(sym - out) <= CONVOLVE_SYM_TOL)).all())


def convolve(V: StepKernel, W: StepKernel | None = None) -> StepKernel:
    """Kernel convolution (V * W)^g = sum_h V^h o W^{g - h} with the measure
    weight on the inner coordinate.

    Self-convolution (W = None or W is V) is always symmetric; it skips
    refine_pair and takes _self_refinement, the same measures and values.
    For distinct kernels symmetry requires V * W = W * V; the result is
    checked and a ValueError raised for non-commuting pairs, since the
    symmetric-kernel contract cannot hold for them.

    Exact kernels are scaled to integers over row and column common
    denominators (see _integer_factors): each (g, h) product is one
    Python-int matmul, and each cell is divided once at the end.
    """
    if W is None or W is V:
        Vr = Wr = _self_refinement(V)
    else:
        Vr, Wr = refine_pair(V, W)
    grp = Vr.group
    mu = Vr.measures
    if Vr.exact:
        weighted, right, dens = _integer_factors(Vr, Wr)
    else:
        weighted, right = Vr.values * mu[None, :, None], Wr.values
    order = grp.order
    sub = grp.add_table[:, grp.neg_perm]  # sub[g, h] = index(g - h)
    out = np.empty_like(weighted)
    for g in range(order):
        acc = weighted[:, :, 0] @ right[:, :, sub[g, 0]]
        for h in range(1, order):
            acc = acc + weighted[:, :, h] @ right[:, :, sub[g, h]]
        out[:, :, g] = acc
    if Vr.exact:
        out = _fraction(out, dens[:, :, None])
    sym = mirror_canonical(grp, out)
    if Vr.exact:
        if not np.array_equal(sym, out):
            raise ValueError("convolution of non-commuting kernels is not symmetric")
    elif not _within_sym_tol(sym, out):
        raise ValueError("convolution of non-commuting kernels is not symmetric")
    return StepKernel(grp, mu, sym, _validate=False)


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
