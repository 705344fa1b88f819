"""Weak regularity machinery: partitions of index sets, block-averaging
(stepping), exact matrix cut norms, and an energy-increment decomposition
with witnessed violations.

Operates on two carriers through one core: plain square matrices (uniform
vertex weights) and step kernels (part measures). Thresholds follow the
carrier: eps * max|M| for matrices, eps / |G| per group slice for kernels.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphons import (
    StepKernel,
    _check_matrix,
    max_box_exact,
    max_box_heuristic,
    mirror_canonical,
    EXACT_CUT_LIMIT,
)


@dataclass(frozen=True)
class Partition:
    """Ordered set partition of range(size); blocks are sorted tuples."""

    size: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, size: int, blocks):
        size = int(size)
        norm = tuple(tuple(sorted(int(x) for x in b)) for b in blocks if len(b))
        seen = [x for b in norm for x in b]
        if sorted(seen) != list(range(size)):
            raise ValueError("blocks must partition range(size) exactly")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "blocks", norm)

    @classmethod
    def single_block(cls, size: int) -> "Partition":
        return cls(size, [tuple(range(size))])

    @property
    def num_parts(self) -> int:
        return len(self.blocks)

    def block_index(self) -> np.ndarray:
        out = np.empty(self.size, dtype=np.intp)
        for b, members in enumerate(self.blocks):
            for x in members:
                out[x] = b
        return out

    def refine_by_sets(self, S, T) -> "Partition":
        """Common refinement with the four-cell Venn diagram of S and T."""
        S, T = set(S), set(T)
        new = []
        for block in self.blocks:
            cells = {}
            for x in block:
                key = (x in S, x in T)
                cells.setdefault(key, []).append(x)
            new.extend(cells.values())
        return Partition(self.size, new)

    def to_json_dict(self) -> dict:
        return {"size": self.size, "blocks": [list(b) for b in self.blocks]}


def _step(A: np.ndarray, mu: np.ndarray, P: Partition) -> np.ndarray:
    """A averaged over the blocks of P x P under vertex weights mu, at A's
    shape."""
    bm = np.array([mu[list(b)].sum() for b in P.blocks])
    agg = np.zeros((P.num_parts, len(mu)))
    for b, members in enumerate(P.blocks):
        agg[b, list(members)] = mu[list(members)]
    idx = P.block_index()
    return (agg @ A @ agg.T / np.outer(bm, bm))[np.ix_(idx, idx)]


def step_matrix(M: np.ndarray, P: Partition) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or P.size != n:
        raise ValueError("partition size must match a square matrix")
    return _step(M, np.full(n, 1.0 / n), P)


def step_kernel(W: StepKernel, P: Partition) -> StepKernel:
    Wf = W.to_float()
    if P.size != Wf.k:
        raise ValueError("partition size must match the kernel part count")
    mu = Wf.float_measures()
    vals = np.stack([_step(Wf.values[:, :, g], mu, P) for g in range(Wf.group.order)], axis=2)
    return StepKernel(Wf.group, Wf.measures, mirror_canonical(Wf.group, vals), _validate=False)


def matrix_cut_norm(M: np.ndarray) -> float:
    """Exact normalized cut norm (1/n^2) max_{S,T} |sum_{S x T} M|;
    exhaustive over row subsets, so limited to n <= 24."""
    M = np.asarray(M, dtype=float)
    _check_matrix(M)  # before n is read: a 0-D array has no shape[0]
    n = M.shape[0]
    return float(max_box_exact(M / (n * n))[0])


def matrix_cut_norm_lower(M: np.ndarray, rng: np.random.Generator | None = None) -> float:
    if rng is None:
        rng = np.random.default_rng(0)
    M = np.asarray(M, dtype=float)
    _check_matrix(M)
    n = M.shape[0]
    return float(max_box_heuristic(M / (n * n), rng)[0])


# ---------------------------------------------------------------------------
# energy-increment decomposition

@dataclass
class FKResult:
    partition: Partition
    rounds: int
    threshold: float
    eps: float
    residual: float | None
    residual_certified: bool
    capped_slices: tuple[int, ...]
    trace: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "partition": self.partition.to_json_dict(),
            "rounds": self.rounds,
            "threshold": self.threshold,
            "eps": self.eps,
            "residual": self.residual,
            "residual_certified": self.residual_certified,
            "capped_slices": list(self.capped_slices),
            "trace": self.trace,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _slice_energy(S: np.ndarray, mu: np.ndarray) -> float:
    """The energy int S^2 of an already stepped slice S."""
    return float(((mu[:, None] * mu[None, :]) * S * S).sum())


def _slice_box(D: np.ndarray, mu: np.ndarray, rng):
    """(value, S, T, signed) of the largest box of the residual slice D
    weighted by mu x mu: the exact oracle up to EXACT_CUT_LIMIT rows, the
    heuristic lower bound beyond."""
    A = D * np.outer(mu, mu)
    if len(mu) <= EXACT_CUT_LIMIT:
        return max_box_exact(A)
    return max_box_heuristic(A, rng)


def fk_decompose(obj, eps: float, rng: np.random.Generator | None = None) -> FKResult:
    """Weak regularity partition by repeated witnessed violations.

    Finds (S, T) with |box integral of the residual| > threshold via the
    cut-norm oracle (exact up to 24 rows, heuristic beyond), refines by the
    Venn cells of S and T, and stops when no slice yields a violation or a
    slice hits its energy-bound round cap ceil(1/threshold^2). Each accepted
    round raises the stepped energy by at least threshold^2, which is the
    termination certificate recorded in the trace. eps must be finite and
    positive, and give a threshold whose square and cap are finite and
    nonzero; otherwise a ValueError names eps before the first round.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive; got {eps!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    if isinstance(obj, StepKernel):
        Wf = obj.to_float()
        mu = Wf.float_measures()
        slices = [Wf.values[:, :, g] for g in range(Wf.group.order)]
        threshold = eps / Wf.group.order
        size = Wf.k
    else:
        M = np.asarray(obj, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("need a square matrix or a step kernel")
        _check_matrix(M)
        size = M.shape[0]
        mu = np.full(size, 1.0 / size)
        scale = float(np.abs(M).max())
        if scale == 0:
            scale = 1.0
        slices = [M]
        threshold = eps * scale
    certified = size <= EXACT_CUT_LIMIT  # _slice_box runs the exact oracle
    square = threshold**2
    if not (0 < square < math.inf and 1.0 / square < math.inf):
        raise ValueError(
            f"eps = {eps!r} gives threshold {threshold!r}: the round cap"
            " ceil(1/threshold^2) needs threshold^2 and its inverse finite and nonzero"
        )
    cap = math.ceil(1.0 / square)
    P = Partition.single_block(size)
    per_slice_rounds = [0] * len(slices)
    trace: list[dict] = []
    rounds = 0
    while True:
        found = False
        swept = {}  # slice -> exact max box of its residual under the current P
        for g, A in enumerate(slices):
            if per_slice_rounds[g] >= cap:
                continue
            stepped = _step(A, mu, P)
            best, S, T, boxval = _slice_box(A - stepped, mu, rng)
            if best <= threshold:
                swept[g] = best
                continue
            e_before = _slice_energy(stepped, mu)
            P = P.refine_by_sets(S, T)
            e_after = _slice_energy(_step(A, mu, P), mu)
            if e_after < e_before - 1e-12:
                raise AssertionError("stepped energy decreased; decomposition bug")
            per_slice_rounds[g] += 1
            rounds += 1
            trace.append(
                {
                    "round": rounds,
                    "slice": g,
                    "S": list(S),
                    "T": list(T),
                    "box_integral": boxval,
                    "energy_before": e_before,
                    "energy_after": e_after,
                    "parts": P.num_parts,
                }
            )
            found = True
            break
        if not found:
            break
    if P.num_parts > 4**rounds:
        raise AssertionError("partition grew past the 4^rounds bound")
    residual = 0.0
    for g, A in enumerate(slices):
        if certified and g in swept:  # the final sweep scanned this slice under P
            residual += swept[g]
        else:
            residual += _slice_box(A - _step(A, mu, P), mu, rng)[0]
    return FKResult(
        partition=P,
        rounds=rounds,
        threshold=threshold,
        eps=eps,
        residual=float(residual),
        residual_certified=certified,
        capped_slices=tuple(g for g, r in enumerate(per_slice_rounds) if r >= cap),
        trace=trace,
    )


def factor_two_check(W1, W2, P: Partition):
    """For P-measurable W2: the stepping error of W1 under P is at most twice
    the cut distance from W1 to W2, up to 1e-12. Returns (holds, lhs, rhs).

    Both arguments matrices, or both step kernels on identical partitions."""
    from .graphons import cut_norm, kernel_difference

    if isinstance(W1, StepKernel) != isinstance(W2, StepKernel):
        raise ValueError("mixed carrier types")
    if isinstance(W1, StepKernel):
        if W1.k != W2.k or not np.allclose(W1.float_measures(), W2.float_measures(), atol=1e-12):
            raise ValueError("kernels must share one partition")
        stepped2 = step_kernel(W2, P)
        if np.abs(stepped2.float_values() - W2.float_values()).max() > 1e-9:
            raise ValueError("W2 is not measurable with respect to P")
        lhs = cut_norm(kernel_difference(W1, step_kernel(W1, P)))
        rhs = 2.0 * cut_norm(kernel_difference(W1, W2))
    else:
        M1 = np.asarray(W1, dtype=float)
        M2 = np.asarray(W2, dtype=float)
        if np.abs(step_matrix(M2, P) - M2).max() > 1e-9:
            raise ValueError("W2 is not measurable with respect to P")
        lhs = matrix_cut_norm(M1 - step_matrix(M1, P))
        rhs = 2.0 * matrix_cut_norm(M1 - M2)
    return lhs <= rhs + 1e-12, float(lhs), float(rhs)
