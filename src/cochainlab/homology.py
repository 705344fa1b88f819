"""Exact homological linear algebra: GF(p) ranks, Smith normal form over Z,
cocycle counts for arbitrary finite abelian coefficients.

Everything here is exact. Matrices are held as sparse rows of Python ints;
the homology of a complex reads its face list directly, one row of d2^T per
face with the star columns of vertex n left out (_star_face_rows: a face
through n keeps one entry), and never builds the dense boundary. Dropping
those columns is unimodular, by d1 d2 = 0, so it keeps the Smith normal form
and every F_p rank.

One sparse engine, _eliminate, takes +-1 pivots and clears their columns by
row operations; its two modes differ only in the pivot row. By default the
row leaves and a small core is left: rank_p(M) = units + rank_p(core) for
every prime p, and the elementary divisors are (1,) * units + SNF(core). A
TwoComplex caches this reduction of its face rows; odd-p ranks, cocycle
counts, torsion and generator counts all read it, a rank never runs the
SNF, and the dense min-abs SNF loop runs on the core only. An F_2 rank is
always the cheaper XOR elimination of the same rows as bit masks. With
keep, the pivot rows stay and later pivots clear them too (Gauss-Jordan).

gram_det_operand turns a Gram determinant det(B B^T) into one operand for
bareiss_det, the exact determinant of Python ints, and never forms B B^T.
Three certificates of rank B < r give a 1 x 1 zero with no Bareiss work:
fewer columns than rows, a row of B with no entry, a zero row of C after
the keep mode. Otherwise the operand is the bordered matrix the keep mode
leaves, when it is smaller than B B^T, or the core the drop mode leaves of
[[0, B], [B^T, I]], whose |det| is det(B B^T). _bareiss_abs_dets is the
same elimination over a numpy batch of int64 squares, exact under a bound it
checks, for the hypertree census.
"""
from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# Miller-Rabin with the prime bases up to 37 decides primality exactly below
# 2^64 (Jaeschke 1993; Sorenson and Webster 2017). A witness proves p
# composite at any size, so only a p >= 2^64 that none of them exposes is
# left undecided.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic primality of p; raises ValueError for a p >= 2^64 that
    no base proves composite."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= 1 << 64:
        raise ValueError(f"primality is decided only below 2^64; {p} is not proven composite")
    return True


# Size bounds of the boundary d2, checked before anything is allocated:
# C(n,2) edge rows (n <= 1024; the edge list is cached per n) and int64 cells
# (256 MB) of the dense matrix. The face-row path holds only the nonzeros but
# keeps the same bounds, so every homology entry point accepts the same input.
MAX_BOUNDARY_EDGES = 1 << 19
MAX_BOUNDARY_CELLS = 1 << 25


def _check_edges(n: int) -> None:
    """The edge bound of d2: C(n,2) rows."""
    E = n * (n - 1) // 2
    if E > MAX_BOUNDARY_EDGES:
        raise ValueError(
            f"boundary matrix needs C(n,2) <= {MAX_BOUNDARY_EDGES} edge rows; n = {n} has {E}"
        )


def _check_boundary_size(n: int, num_faces: int) -> None:
    """Both size bounds of d2."""
    _check_edges(n)
    cells = n * (n - 1) // 2 * num_faces
    if cells > MAX_BOUNDARY_CELLS:
        raise ValueError(
            f"boundary matrix needs C(n,2) x faces <= {MAX_BOUNDARY_CELLS} cells;"
            f" n = {n} with {num_faces} faces has {cells}"
        )


def _edge_offset(n: int, a: int) -> int:
    """Edge (a < b) of K_n has lexicographic index _edge_offset(n, a) + b:
    (a - 1)(2n - a)/2 edges start below a, and b - a - 1 before b."""
    return (a - 1) * (2 * n - a) // 2 - a - 1


def face_edges(n: int, triangles) -> list[tuple[int, int, int]]:
    """The lexicographic edge indices (uv, uw, vw) of each face (u < v < w):
    its column of d2 has +1, -1, +1 there, and they increase in that order.
    It builds only this map, three indices a face, so it checks only the
    edge bound; the callers that build d2 or its rows check the cells."""
    _check_edges(n)
    off = [_edge_offset(n, a) for a in range(n + 1)]
    return [(off[u] + v, off[u] + w, off[v] + w) for u, v, w in triangles]


def boundary_matrices(X) -> np.ndarray:
    """The dense int64 triangle boundary d2 of X, (C(n,2), faces): column j
    has +1, -1, +1 at face j's face_edges. The vertex-by-edge incidence d1 is
    not built; d1 @ d2 = 0 is checked in the tests."""
    _check_boundary_size(X.n, len(X.triangles))
    edges = np.array(face_edges(X.n, X.triangles), dtype=np.intp).reshape(-1, 3)
    d2 = np.zeros((X.n * (X.n - 1) // 2, len(edges)), dtype=np.int64)
    d2[edges, np.arange(len(edges))[:, None]] = (1, -1, 1)
    return d2


# ---------------------------------------------------------------------------
# sparse rows: {column: nonzero int}

def _star_face_rows(n: int, faces) -> list[dict[int, int]]:
    """The rows of d2^T, one per face of the face set ``faces``, with the
    star columns (edges vn) of vertex n left out: a face (u, v, w) keeps
    +1, -1, +1 at its face_edges when w < n, and a face (u, v, n) only its
    +1 at uv. Dropping them keeps the Smith normal form and every F_p rank:
    d1 d2 = 0 at vertex v says that d2's row at vn is the sum of its rows at
    the edges av (a < v) less those at vb (v < b < n), so subtracting those
    integer multiples (unimodular column operations on d2^T) zeroes every
    star column. The same identity gives avoidance_probability_exact its
    columns. The complex paths never build the dense d2; this keeps d2's
    size bounds, so every homology entry point accepts the same complexes.
    """
    _check_boundary_size(n, len(faces))
    return [
        {a: 1, b: -1, c: 1} if w < n else {a: 1}
        for (_, _, w), (a, b, c) in zip(faces, face_edges(n, faces))
    ]


def _star_face_masks(n: int, faces) -> list[int]:
    """_star_face_rows as F_2 bit masks, bit j for edge j, built straight
    from face_edges: every entry is +-1, so every entry is a bit."""
    _check_boundary_size(n, len(faces))
    return [
        (1 << a) | (1 << b) | (1 << c) if w < n else 1 << a
        for (_, _, w), (a, b, c) in zip(faces, face_edges(n, faces))
    ]


def _matrix_rows(M) -> list[dict[int, int]]:
    """The rows of an integer matrix, nonzeros only, as Python ints."""
    A = np.asarray(M)
    if A.ndim != 2:
        raise ValueError("need a matrix")
    rows: list[dict[int, int]] = [{} for _ in range(A.shape[0])]
    ri, ci = np.nonzero(A)
    for i, j, v in zip(ri.tolist(), ci.tolist(), A[ri, ci].tolist()):
        v = int(v)
        if v:
            rows[i][j] = v
    return rows


# ---------------------------------------------------------------------------
# ranks

def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _rank_rows(rows, p: int) -> int:
    """Exact rank over the prime field F_p of sparse integer rows (not
    modified).

    Each row is reduced against the pivot rows found so far, always at its
    largest column, until it is zero or its largest column is new and it
    becomes that column's pivot. For p = 2 a row is a Python int bit mask and
    reduction is XOR; for odd p it is a dict of residues and pivot rows are
    scaled to a leading 1.
    """
    if p == 2:
        return _rank_masks(sum(1 << j for j, v in row.items() if v & 1) for row in rows)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        x = {j: r for j, v in row.items() if (r := v % p)}
        while x:
            j = max(x)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(x[j], -1, p)
                pivots[j] = {k: v * inv % p for k, v in x.items()}
                break
            f = x.pop(j)
            for k, v in piv.items():
                if k != j:
                    r = (x.get(k, 0) - f * v) % p
                    if r:
                        x[k] = r
                    else:
                        del x[k]
    return len(pivots)


def _rank_masks(masks) -> int:
    """Rank over F_2 of rows given as Python int bit masks: each is XORed
    with the pivot row of its highest bit until it is zero or that bit is
    new and it becomes the bit's pivot."""
    pivots: dict[int, int] = {}
    for x in masks:
        while x:
            j = x.bit_length() - 1
            y = pivots.get(j)
            if y is None:
                pivots[j] = x
                break
            x ^= y
    return len(pivots)


def rank_mod_p(M, p: int) -> int:
    """Exact rank of an integer matrix over F_p."""
    _check_prime(p)
    return _rank_rows(_matrix_rows(M), p)


def rank_rational(M) -> int:
    """Independent exact rank via Fraction Gaussian elimination (oracle path,
    quadratic-entry-growth-free but slow; keep matrices modest)."""
    A = [[Fraction(int(x)) for x in row] for row in np.asarray(M)]
    m = len(A)
    ncols = len(A[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [v * inv for v in A[r]]
        for i in range(r + 1, m):
            f = A[i][c]
            if f:
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return r


# ---------------------------------------------------------------------------
# integer determinants and Smith normal form

def bareiss_det(M) -> int:
    """Fraction-free exact determinant of an integer matrix (an array or a
    sequence of rows; Python ints of any size)."""
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    if n == 0:
        return 1
    if any(len(row) != n for row in A):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        akk = A[k][k]
        for i in range(k + 1, n):
            Ai, Ak = A[i], A[k]
            aik = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (Ai[j] * akk - aik * Ak[j]) // prev
            Ai[k] = 0
        prev = akk
    return sign * A[n - 1][n - 1]


def _bareiss_abs_dets(A) -> np.ndarray:
    """|det| of every square in a batch of shape (N, r, r), r >= 1, as int64:
    bareiss_det on all N at once.

    A square with a zero column leaves the batch first, and one whose leading
    column has no pivot leaves at that step. Each step swaps up the first row
    with a nonzero leading entry and keeps the trailing block. Only |det| is
    kept, so the swap's sign is dropped, and the exact division by the
    previous pivot is skipped where it is +-1: a block is then +- the true
    one, and the sign squares away in the next step's products.

    int64 is exact: every entry Bareiss forms is a minor, at most
    (r a^2)^(r/2) by Hadamard's bound for entries at most a in absolute
    value, so nothing before a division exceeds 2 (r a^2)^r; that is checked
    first (ValueError). A 0/+-1 boundary square has at most three nonzeros a
    row, so its minors stay within 3^(r/2), 243 at r = 10.
    """
    A = np.array(A, dtype=np.int64)
    N, r = A.shape[0], A.shape[-1]
    a = int(np.abs(A).max()) if A.size else 0
    if 2 * (r * a * a) ** r >= 1 << 63:
        raise ValueError(f"int64 Bareiss needs 2 (r a^2)^r < 2^63; r = {r}, max |entry| a = {a}")
    dets = np.zeros(N, dtype=np.int64)
    live = np.flatnonzero((A != 0).any(axis=1).all(axis=1))
    A = A[live]
    prev = np.ones((len(live), 1, 1), dtype=np.int64)
    while True:
        nonzero = A[:, :, 0] != 0
        has = nonzero.any(axis=1)
        if not has.all():
            A, live, prev, nonzero = A[has], live[has], prev[has], nonzero[has]
        if A.shape[1] == 1:
            break
        at = nonzero.argmax(axis=1)
        s = np.flatnonzero(at)
        A[s, 0], A[s, at[s]] = A[s, at[s]], A[s, 0]
        pivot = A[:, :1, :1]
        X = A[:, 1:, 1:] * pivot
        X -= A[:, 1:, :1] * A[:, :1, 1:]
        np.floor_divide(X, prev, out=X, where=np.abs(prev) > 1)
        A, prev = X, pivot
    dets[live] = np.abs(A[:, 0, 0])
    return dets


def gram_det_operand(columns, r: int) -> tuple[int | None, list[list[int]]]:
    """(sign, M) with det(B B^T) = sign * bareiss_det(M), or with
    det(B B^T) = |bareiss_det(M)| where sign is None, for the integer matrix
    B of r rows whose columns are ``columns``, each a {row key: nonzero}
    dict (not modified; at most r distinct keys overall). B B^T is never
    formed.

    M is the 1 x 1 zero matrix as soon as rank B < r is certain: when B has
    m < r columns, when one of its r rows has no entry, or when the keep
    mode finds a zero row of C. The unit-pivot engine in its keep mode,
    _eliminate(rows, keep=True), runs Gauss-Jordan on s +-1 pivots of B's
    rows by row operations only, which are unimodular on the left, and
    brings B to [[I_s, X], [0, C]] up to row signs and a column permutation.
    B B^T then has the determinant of [[I + X X^T, X C^T], [C X^T, C C^T]],
    which by the Schur complement and I - X^T (I + X X^T)^-1 X =
    (I + X^T X)^-1 is det(I + X^T X) det(C (I + X^T X)^-1 C^T)
    = (-1)^(r - s) det([[0, C], [C^T, I + X^T X]]). M is that bordered
    matrix when its order m + r - 2s is below r.

    Otherwise, and without the keep mode when m >= 2r, where it cannot win,
    M is the core that the drop mode, _eliminate(rows), leaves of
    N = [[0, B], [B^T, I_m]]. det N = det(-B B^T), and the drop mode's
    pivots keep |det|, so det(B B^T) = |det core|, and 0 when a zero row or
    column left the core. That core has no +-1 entry; it is not bounded by
    r (an entry +-2 can leave one of order r + 1).
    """
    m = len(columns)
    zero = (1, [[0]])
    if m < r:
        return zero
    rows: defaultdict[int, dict[int, int]] = defaultdict(dict)  # B's nonzero rows
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    if len(rows) < r:
        return zero
    if m < 2 * r:
        pivots, live = _eliminate(list(rows.values()), keep=True)
        s = len(pivots)
        t = r - s  # rows of C
        if len(live) < t:
            return zero
        if m + r - 2 * s < r:
            at = dict(zip([j for j in range(m) if j not in pivots], range(t, t + m - s)))
            M = [[0] * (t + m - s) for _ in range(t + m - s)]
            for k in range(t, t + m - s):
                M[k][k] = 1
            _add_outer_products(M, pivots.values(), at)  # I + X^T X; a row's sign squares away
            for i, row in enumerate(live):
                for j, v in row.items():
                    M[i][at[j]] = M[at[j]][i] = v
            return (-1) ** t, M
    # N's rows: B's rows again (the keep mode consumed ``rows``), column j
    # keyed ~j (negative), then one row per column j of B, its entries at
    # their row keys and the unit of I_m at ~j
    top: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for j, col in enumerate(columns):
        for i, v in col.items():
            top[i][~j] = v
    units, core = _eliminate([*top.values(), *({**col, ~j: 1} for j, col in enumerate(columns))])
    order = r + m - units
    if len(core) < order or (core and len(core[0]) < order):
        return zero
    return None, list(core)


def _add_outer_products(M, vectors, at) -> None:
    """M += v v^T for each sparse vector v, a {key: value} dict whose entry
    at key lands at index at[key]."""
    for v in vectors:
        entries = [(at[key], x) for key, x in v.items()]
        for a, x in entries:
            Ma = M[a]
            for b, y in entries:
                Ma[b] += x * y


def _eliminate(rows: list[dict[int, int]], keep: bool = False):
    """The sparse unit-pivot engine: (units, core), or with keep (pivots, live).

    ``rows`` holds the nonzeros of each matrix row, {column: value}, and is
    consumed. Each step takes a +-1 pivot and clears its column from every
    other row by row operations. Pivots that need no fill come first, from a
    plain list: a row whose one entry is +-1, or a column whose one nonzero
    is +-1 (a free edge: on face rows both are elementary collapses). With
    none left, the Markowitz choice takes the column holding a unit with the
    fewest nonzeros, then the row in it with the fewest nonzeros, then the
    lowest index. A column that a step changes is pushed on the heap again,
    or onto the list when it has become free.

    The modes differ only in the pivot row. By default it leaves, cleared by
    column operations that touch nothing else, so SNF(M) = (1,) * units +
    SNF(core) and rank_p(M) = units + rank_p(core) for every prime p; the
    core keeps the rows and columns that are still nonzero, columns in
    increasing order, as a tuple of row tuples. With keep (Gauss-Jordan, for
    gram_det_operand) it stays, so only row operations are used: it is
    never chosen again, its entries still count in their columns, and later
    pivots clear their columns from it. That gives M ~ [[I_s, X], [0, C]] up
    to row signs and a column permutation, returned as {pivot column: its
    row of X} (the pivot row less its pivot entry) and the nonzero rows of
    C, all over the non-pivot columns. Keep mode stops at the step that
    empties a row that is not a pivot row: C then has a zero row whatever
    the later pivots do, and that zero is all gram_det_operand reads.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    cols: dict[int, set[int]] = {}
    free: list[tuple[int, int]] = []  # (row, column) candidates, checked when taken
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
        if len(row) == 1:
            ((j, v),) = row.items()
            if v in (1, -1):
                free.append((i, j))
    for j, rs in cols.items():
        if len(rs) == 1:
            (i,) = rs
            if rows[i][j] in (1, -1):
                free.append((i, j))
    heap = None  # built from the live counts when the list first runs dry
    pivots: dict[int, int] = {}  # pivot row: its column
    while True:
        if free:
            r, c = free.pop()
            col = cols[c]
            if r in pivots or rows[r].get(c) not in (1, -1) or (len(rows[r]) > 1 and len(col) > 1):
                continue  # no longer free; the heap holds the column if it can pivot
        else:
            if heap is None:
                heap = [(len(rs), j) for j, rs in cols.items() if rs]
                heapq.heapify(heap)
            if not heap:
                break
            count, c = heappop(heap)
            col = cols[c]
            if count != len(col):
                continue  # stale entry; the live count was pushed when it changed
            r, best = -1, 0
            for i in col:
                row = rows[i]
                if row[c] in (1, -1) and i not in pivots:
                    size = len(row)
                    if r < 0 or size < best or (size == best and i < r):
                        r, best = i, size
            if r < 0:
                continue  # pushed again if a later step changes this column
        prow = rows[r]
        a = prow.pop(c)
        others = prow.items()
        cleared = len(col) > 1
        emptied = False  # a row that is not a pivot row lost its last entry
        for i in col:
            if i == r:
                continue
            row = rows[i]
            f = row.pop(c) * a  # a * a = 1, so row[c] - f * a = 0
            for j, v in others:
                fv = f * v
                x = row.get(j)
                if x is None:
                    row[j] = -fv
                    cols[j].add(i)
                elif x == fv:
                    del row[j]
                    cols[j].discard(i)
                else:
                    row[j] = x - fv
            if len(row) == 1:
                ((j, v),) = row.items()
                if v in (1, -1):
                    free.append((i, j))
            elif not row and i not in pivots:
                emptied = True
        col.clear()
        pivots[r] = c
        if not keep:
            rows[r] = {}
        elif emptied:
            break  # C has a zero row, whatever the later pivots do
        elif not cleared:
            continue  # the column was the pivot row's alone: nothing changed
        for j in prow:
            rs = cols[j]
            if not keep:
                rs.discard(r)
            if rs:
                if len(rs) == 1:
                    (i,) = rs
                    if rows[i][j] in (1, -1):
                        free.append((i, j))
                        continue
                if heap is not None:
                    heappush(heap, (len(rs), j))
    if keep:
        live = [row for i, row in enumerate(rows) if row and i not in pivots]
        return {c: rows[i] for i, c in pivots.items()}, live
    live = sorted(j for j, rs in cols.items() if rs)
    return len(pivots), tuple(tuple(row.get(j, 0) for j in live) for row in rows if row)


def _dense_smith(rows) -> tuple[int, ...]:
    """Nonzero elementary divisors of a dense integer matrix, given as a
    sequence of rows of Python ints (not modified: the loop works on a copy).

    Min-abs pivoting, full row/column reduction, divisibility fix-up by row
    absorption.
    """
    A = [list(row) for row in rows]
    m = len(A)
    ncols = len(A[0]) if m else 0
    divisors: list[int] = []
    t = 0
    while t < min(m, ncols):
        # locate a minimal-magnitude nonzero pivot in the trailing block
        piv = None
        best = 0
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, ncols):
                v = Ai[j]
                if v and (piv is None or abs(v) < best):
                    piv = (i, j)
                    best = abs(v)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i0, j0 = piv
        A[t], A[i0] = A[i0], A[t]
        if j0 != t:
            for row in A:
                row[t], row[j0] = row[j0], row[t]
        while True:
            p = A[t][t]
            # column t: subtract quotients; a nonzero remainder becomes the
            # strictly smaller new pivot, restart
            restart = False
            for i in range(t + 1, m):
                v = A[i][t]
                if v == 0:
                    continue
                q = v // p
                if q:
                    Ai, At = A[i], A[t]
                    for j in range(t, ncols):
                        Ai[j] -= q * At[j]
                if A[i][t]:
                    A[t], A[i] = A[i], A[t]
                    restart = True
                    break
            if restart:
                continue
            # row t: same with column operations
            for j in range(t + 1, ncols):
                v = A[t][j]
                if v == 0:
                    continue
                q = v // p
                if q:
                    for row in A:
                        row[j] -= q * row[t]
                if A[t][j]:
                    for row in A:
                        row[t], row[j] = row[j], row[t]
                    restart = True
                    break
            if restart:
                continue
            p = A[t][t]
            if p in (1, -1):
                break
            # divisibility: pivot must divide the trailing block
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, ncols):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            At, Ai = A[t], A[offender]
            for j in range(t, ncols):
                At[j] += Ai[j]
        divisors.append(abs(A[t][t]))
        t += 1
    return tuple(divisors)


def _divisors(units: int, core) -> tuple[int, ...]:
    """Nonzero elementary divisors from a unit-pivot reduction (_eliminate):
    (1,) * units + SNF(core). SNF(A) = SNF(A^T), so a tall core goes to
    _dense_smith transposed: its column operations run over every row."""
    if core and len(core) > len(core[0]):
        core = tuple(zip(*core))
    return (1,) * units + _dense_smith(core)


def smith_normal_form(M) -> tuple[int, ...]:
    """Nonzero elementary divisors d_1 | d_2 | ... of an integer matrix.

    Unit pivots are eliminated sparsely first (_eliminate); the dense min-abs
    loop (_dense_smith) runs on the remaining core only. Arbitrary precision
    throughout; the divisor count equals the rank and their product is the
    lattice index (|det| for nonsingular square input).
    """
    return _divisors(*_eliminate(_matrix_rows(M)))


# ---------------------------------------------------------------------------
# homology of 2-complexes (complete 1-skeleton throughout)

def cycle_space_dim(n: int) -> int:
    return n * (n - 1) // 2 - (n - 1)


def _complex(X):
    """X itself, checked to be a TwoComplex: the reduction every invariant
    reads is cached on the instance."""
    from .complexes import TwoComplex  # complexes imports this module

    if not isinstance(X, TwoComplex):
        raise TypeError(f"expected a TwoComplex, got {type(X).__name__}")
    return X


def _rank(X, p: int) -> int:
    """rank_p(d2) of a TwoComplex.

    An odd p reads the reduction: units + rank_p(core). p = 2 always XORs
    the star-reduced face rows as bit masks instead, which costs about a
    quarter of a reduction, so a scan over F_2 alone never reduces.
    """
    _check_prime(p)
    if p == 2:
        X = _complex(X)
        return _rank_masks(_star_face_masks(X.n, X.triangles))
    units, core = _complex(X).reduction
    return units + _rank_rows([{j: v for j, v in enumerate(row) if v} for row in core], p)


def dim_z1_mod_p(X, p: int) -> int:
    return X.n * (X.n - 1) // 2 - _rank(X, p)


def dim_h1_mod_p(X, p: int) -> int:
    """dim H_1(X, F_p) = (C(n,2) - (n-1)) - rank_p(d2); the 1-skeleton is
    complete, so ker d1 has dimension C(n,2) - (n-1) over every field."""
    return cycle_space_dim(X.n) - _rank(X, p)


def count_cocycles(X, group) -> int:
    """|Z^1(X, G)| exactly: product over cyclic factors Z/m of
    m^(E - r) * prod_j gcd(m, d_j), the kernel size of d2^T mod m.

    A prime modulus needs only the F_p rank; a composite one reads the
    elementary divisors.
    """
    E = X.n * (X.n - 1) // 2
    total = 1
    for m in group.moduli:
        if is_prime(m):
            total *= m ** (E - _rank(X, m))
        else:
            divisors = _complex(X).divisors
            cnt = m ** (E - len(divisors))
            for d in divisors:
                cnt *= math.gcd(m, d)
            total *= cnt
    return total


def _integral_summary(n: int, divisors) -> tuple[int, int]:
    """(torsion order, minimum generator count) of H_1(X, Z) from the
    elementary divisors of d2. The generator count is the free rank plus the
    largest p-multiplicity among the divisors; the divisors form a chain
    d_1 | d_2 | ..., so every prime of the first divisor > 1 divides all later
    ones and that multiplicity is the number of divisors > 1."""
    free = cycle_space_dim(n) - len(divisors)
    return math.prod(divisors), free + sum(1 for d in divisors if d > 1)


def torsion_order(X) -> int:
    return math.prod(_complex(X).divisors)


def min_generators_h1(X) -> int:
    """Minimum generator count of H_1(X, Z): free rank plus the largest
    p-multiplicity among the torsion divisors; equals sup_p dim H_1(F_p)."""
    return _integral_summary(X.n, _complex(X).divisors)[1]


def torsion_bound_ok(X) -> bool:
    """Torsion order of H_1 is at most 3^(n^2/4); checked in exact integers
    as torsion^4 <= 3^(n^2)."""
    t = torsion_order(X)
    return t**4 <= 3 ** (X.n * X.n)


@dataclass(frozen=True)
class HomologyReport:
    n: int
    num_faces: int
    p: int | None
    dim_z1: int
    dim_h1: int
    elementary_divisors: tuple | None
    torsion_order: int | None
    min_generators: int | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "num_faces": self.num_faces,
            "p": self.p,
            "dim_z1": self.dim_z1,
            "dim_h1": self.dim_h1,
            "elementary_divisors": (
                None
                if self.elementary_divisors is None
                else [int(d) for d in self.elementary_divisors]
            ),
            "torsion_order": None if self.torsion_order is None else int(self.torsion_order),
            "min_generators": self.min_generators,
        }


def homology_report(X, p: int | None = None, include_snf: bool = True) -> HomologyReport:
    """Field dimensions (over F_p if p given, else over Q) plus, when
    include_snf, integral data: divisors, torsion, minimum generators.

    Without p or the SNF, the rank over Q is units + rank_Q(core) of the
    complex's reduction, which is exact because every step is unimodular.
    """
    divisors = _complex(X).divisors if include_snf else None
    if p is not None:
        rank = _rank(X, p)
    elif divisors is not None:
        rank = len(divisors)
    else:
        units, core = _complex(X).reduction
        rank = units + rank_rational(core)
    tor, mg = (None, None) if divisors is None else _integral_summary(X.n, divisors)
    return HomologyReport(
        n=X.n,
        num_faces=len(X.triangles),
        p=p,
        dim_z1=X.n * (X.n - 1) // 2 - rank,
        dim_h1=cycle_space_dim(X.n) - rank,
        elementary_divisors=divisors,
        torsion_order=tor,
        min_generators=mg,
    )
