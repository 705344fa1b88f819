import itertools
import json
import math
import re

import numpy as np
import pytest

from cochainlab import regularity
from cochainlab.graphons import (
    StepKernel,
    cut_norm,
    kernel_difference,
    max_box_exact,
    max_box_heuristic,
    random_kernel,
)
from cochainlab.groups import Group
from cochainlab.regularity import (
    FKResult,
    Partition,
    factor_two_check,
    fk_decompose,
    matrix_cut_norm,
    matrix_cut_norm_lower,
    step_kernel,
    step_matrix,
)


def singletons(size: int) -> Partition:
    return Partition(size, [(i,) for i in range(size)])


def is_refinement_of(P: Partition, Q: Partition) -> bool:
    """Every block of P lies inside one block of Q."""
    idx = Q.block_index()
    return all(len({idx[x] for x in b}) == 1 for b in P.blocks)


def test_partition_validation():
    P = Partition(4, [(2, 0), (1, 3)])
    assert P.blocks == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        Partition(4, [(0, 1), (2,)])  # 3 missing
    with pytest.raises(ValueError):
        Partition(4, [(0, 1), (1, 2, 3)])  # 1 repeated
    with pytest.raises(ValueError):
        Partition(3, [(0, 1, 2, 3)])


def test_partition_constructors():
    assert singletons(3).num_parts == 3
    assert Partition.single_block(5).num_parts == 1
    assert is_refinement_of(singletons(4), Partition.single_block(4))
    assert not is_refinement_of(Partition.single_block(4), singletons(4))


def test_partition_block_index():
    P = Partition(5, [(0, 3), (1, 2, 4)])
    assert list(P.block_index()) == [0, 1, 1, 0, 1]


def test_refine_by_sets_venn():
    P = Partition.single_block(6)
    Q = P.refine_by_sets({0, 1, 2}, {2, 3})
    # cells: {0,1} in S only, {2} in both, {3} in T only, {4,5} in neither
    assert set(Q.blocks) == {(0, 1), (2,), (3,), (4, 5)}
    assert is_refinement_of(Q, P)
    # refining by the same sets again is a fixed point
    assert Q.refine_by_sets({0, 1, 2}, {2, 3}).blocks == Q.blocks


def test_step_matrix_idempotent_and_mean_preserving():
    rng = np.random.default_rng(30)
    M = rng.normal(size=(6, 6))
    P = Partition(6, [(0, 1), (2, 3, 4), (5,)])
    S = step_matrix(M, P)
    assert np.allclose(step_matrix(S, P), S, atol=1e-12)
    assert abs(S.mean() - M.mean()) < 1e-12
    # block constancy
    for b1 in P.blocks:
        for b2 in P.blocks:
            block = S[np.ix_(b1, b2)]
            assert np.ptp(block) < 1e-12


def test_step_matrix_extremes():
    rng = np.random.default_rng(31)
    M = rng.normal(size=(5, 5))
    assert np.allclose(step_matrix(M, singletons(5)), M)
    flat = step_matrix(M, Partition.single_block(5))
    assert np.allclose(flat, M.mean())


def test_step_matrix_shape_mismatch():
    with pytest.raises(ValueError):
        step_matrix(np.zeros((3, 4)), singletons(3))
    with pytest.raises(ValueError):
        step_matrix(np.zeros((3, 3)), singletons(4))


def _cut_norm_oracle(M):
    n = M.shape[0]
    best = 0.0
    idx = range(n)
    for r in range(n + 1):
        for S in itertools.combinations(idx, r):
            for c in range(n + 1):
                for T in itertools.combinations(idx, c):
                    if S and T:
                        v = abs(M[np.ix_(S, T)].sum())
                        best = max(best, v)
    return best / (n * n)


def test_matrix_cut_norm_oracle():
    rng = np.random.default_rng(32)
    for _ in range(10):
        M = rng.normal(size=(5, 5))
        assert abs(matrix_cut_norm(M) - _cut_norm_oracle(M)) < 1e-12


def _entry_calls(bad):
    """The cut-norm entry points on a 5 x 5 matrix with one entry ``bad``;
    for a shape ``bad``, the four that take a matrix, on ones of that shape."""
    if isinstance(bad, tuple):
        M = np.ones(bad)
    else:
        M = np.ones((5, 5))
        M[2, 3] = bad
    calls = {
        "max_box_exact": lambda: max_box_exact(M),
        "max_box_heuristic": lambda: max_box_heuristic(M, np.random.default_rng(0)),
        "matrix_cut_norm": lambda: matrix_cut_norm(M),
        "matrix_cut_norm_lower": lambda: matrix_cut_norm_lower(M),
    }
    if isinstance(bad, tuple):
        return calls
    values = np.zeros((5, 5, 2))
    values[2, 3, 1] = values[3, 2, 1] = bad
    W = StepKernel(Group((2,)), np.full(5, 0.2), values, _validate=False)
    return {**calls, "cut_norm": lambda: cut_norm(W), "fk_decompose": lambda: fk_decompose(M, 0.2)}


@pytest.mark.parametrize("entry", list(_entry_calls(0.0)))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_cut_norm_entry_points_reject_non_finite_entries(entry, bad):
    # a NaN compares false in every scan, so an unchecked oracle reads 0.0;
    # each entry point refuses the matrix and names the invariant
    with pytest.raises(ValueError, match="matrix entries must be finite, found NaN or infinity"):
        _entry_calls(bad)[entry]()


@pytest.mark.parametrize("entry", list(_entry_calls((5,))))
@pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)], ids=["0-D", "1-D", "3-D"])
def test_cut_norm_entry_points_name_a_bad_shape(entry, shape):
    # unpacking A.shape would fail with "not enough values to unpack", and
    # reading the size of a 0-D array as shape[0] with an IndexError
    with pytest.raises(ValueError, match=re.escape(f"need a 2-D matrix; got shape {shape}")):
        _entry_calls(shape)[entry]()


def test_matrix_cut_norm_lower_bounds_exact():
    rng = np.random.default_rng(33)
    for _ in range(5):
        M = rng.normal(size=(7, 7))
        exact = matrix_cut_norm(M)
        lower = matrix_cut_norm_lower(M, np.random.default_rng(1))
        assert lower <= exact + 1e-12
        assert lower >= 0.25 * exact  # heuristic should not be hopeless


def test_step_kernel_preserves_slice_integrals():
    rng = np.random.default_rng(34)
    g = Group((3,))
    W = random_kernel(g, 5, rng)
    P = Partition(5, [(0, 2), (1, 3, 4)])
    S = step_kernel(W, P)
    mu = W.float_measures()
    w = np.outer(mu, mu)
    for gi in range(g.order):
        a = (W.float_values()[:, :, gi] * w).sum()
        b = (S.float_values()[:, :, gi] * w).sum()
        assert abs(a - b) < 1e-12


def test_step_kernel_matches_step_matrix_per_slice():
    # with equal part measures, stepping a kernel steps each group slice as a matrix
    rng = np.random.default_rng(35)
    W = random_kernel(Group((2,)), 4, rng)
    W = StepKernel(W.group, [0.25] * 4, W.values)
    for P in (Partition.single_block(4), Partition(4, [(0, 2), (1, 3)])):
        S = step_kernel(W, P)
        assert isinstance(S, StepKernel)
        for g in range(W.group.order):
            assert np.allclose(S.values[:, :, g], step_matrix(W.values[:, :, g], P))


# ---------------------------------------------------------------------------
# the decomposition driver

def test_fk_rejects_bad_eps():
    W = random_kernel(Group((2,)), 4, np.random.default_rng(43))
    # nan used to die in math.ceil, and inf to certify after zero rounds
    for eps in (0.0, -0.5, math.nan, math.inf, -math.inf):
        for obj in (np.zeros((3, 3)), W):
            with pytest.raises(ValueError, match=r"^eps must be finite and positive; got "):
                fk_decompose(obj, eps)
    # threshold^2 underflows to 0 (1e-300 was a ZeroDivisionError), its
    # inverse overflows (1e-160), or the threshold itself overflows
    cases = [(eps, obj) for eps in (1e-300, 1e-200, 1e-160) for obj in (np.eye(4), W)]
    for eps, obj in cases + [(1e300, np.eye(4) * 1e300)]:
        with pytest.raises(ValueError, match=r"^eps = \S+ gives threshold \S+: the round cap"):
            fk_decompose(obj, eps)
    # an eps whose cap is finite still runs
    assert fk_decompose(np.eye(4), 1e-150).residual == 0.0


def test_fk_constant_matrix_trivial():
    res = fk_decompose(np.full((6, 6), 2.5), 0.1)
    assert res.rounds == 0
    assert res.partition.num_parts == 1
    assert res.residual <= 1e-12
    assert res.residual_certified


def test_fk_matrix_contract():
    rng = np.random.default_rng(36)
    M = rng.normal(size=(12, 12))
    res = fk_decompose(M, 0.25, np.random.default_rng(0))
    scale = np.abs(M).max()
    assert res.threshold == pytest.approx(0.25 * scale)
    assert res.partition.num_parts <= 4**res.rounds
    assert res.residual_certified
    assert res.residual <= res.threshold + 1e-12
    # trace invariants: energies never decrease, each violation beats threshold
    for t in res.trace:
        assert t["energy_after"] >= t["energy_before"] - 1e-12
        assert t["box_integral"] > res.threshold
    parts_seen = [t["parts"] for t in res.trace]
    assert parts_seen == sorted(parts_seen)


def test_fk_energy_increments_lower_bounded():
    # each accepted round must add at least box_integral^2 of stepped energy
    rng = np.random.default_rng(37)
    M = rng.normal(size=(10, 10))
    res = fk_decompose(M, 0.3, np.random.default_rng(0))
    for t in res.trace:
        gain = t["energy_after"] - t["energy_before"]
        assert gain >= t["box_integral"] ** 2 - 1e-9


def test_fk_deterministic():
    rng = np.random.default_rng(38)
    M = rng.normal(size=(9, 9))
    a = fk_decompose(M, 0.2, np.random.default_rng(7)).to_json()
    b = fk_decompose(M, 0.2, np.random.default_rng(7)).to_json()
    assert a == b


def test_fk_kernel_contract():
    rng = np.random.default_rng(39)
    g = Group((2,))
    W = random_kernel(g, 10, rng)
    res = fk_decompose(W, 0.4, np.random.default_rng(0))
    assert res.threshold == pytest.approx(0.4 / g.order)
    assert res.partition.size == 10
    assert res.partition.num_parts <= 4**res.rounds
    # certified residual over both slices
    assert res.residual <= g.order * res.threshold + 1e-12
    assert res.residual_certified


def test_fk_result_json_roundtrip():
    rng = np.random.default_rng(40)
    M = rng.normal(size=(8, 8))
    res = fk_decompose(M, 0.3, np.random.default_rng(0))
    d = json.loads(res.to_json())
    assert d["rounds"] == res.rounds
    assert d["partition"]["blocks"] == [list(b) for b in res.partition.blocks]
    assert len(d["trace"]) == res.rounds


def test_fk_cap_stops_runaway():
    # a tiny eps forces the cap to bind before the residual certifies small
    rng = np.random.default_rng(41)
    M = rng.normal(size=(10, 10))
    eps = 0.02
    res = fk_decompose(M, eps, np.random.default_rng(0))
    cap = math.ceil(1.0 / res.threshold**2)
    assert res.rounds <= cap
    if res.capped_slices:
        assert res.residual > res.threshold


def test_fk_residual_reuses_final_sweep(monkeypatch):
    # acceptance criterion 9's planted two-block matrix, seed 2026
    blocks = np.kron(np.array([[0.9, -0.9], [-0.9, 0.9]]), np.ones((10, 10)))
    M = blocks + np.random.default_rng([2026, 91]).uniform(-0.05, 0.05, size=(20, 20))
    M = (M + M.T) / 2
    calls = []
    oracle = regularity.max_box_exact

    def counted(A, *args, **kwargs):
        calls.append(A.shape)
        return oracle(A, *args, **kwargs)

    monkeypatch.setattr(regularity, "max_box_exact", counted)
    res = fk_decompose(M, 0.2, np.random.default_rng([2026, 92]))
    # one scan per accepted round plus the final sweep; the residual reuses it
    assert len(calls) == res.rounds + 1
    mu = np.full(20, 1.0 / 20)
    D = (M - step_matrix(M, res.partition)) * np.outer(mu, mu)
    assert res.residual == oracle(D)[0]
    half = list(range(10))
    assert res.rounds == 1
    assert res.partition.blocks == (tuple(half), tuple(range(10, 20)))
    assert [(t["S"], t["T"]) for t in res.trace] == [(half, half)]


# ---------------------------------------------------------------------------
# the factor-of-two comparison

def test_factor_two_matrix_property():
    rng = np.random.default_rng(42)
    for _ in range(50):
        M1 = rng.normal(size=(6, 6))
        P = Partition(6, [(0, 1, 2), (3, 4, 5)])
        M2 = step_matrix(rng.normal(size=(6, 6)), P)
        holds, lhs, rhs = factor_two_check(M1, M2, P)
        assert holds
        assert lhs <= rhs + 1e-12


def test_factor_two_rejects_non_measurable():
    rng = np.random.default_rng(43)
    M1 = rng.normal(size=(6, 6))
    M2 = rng.normal(size=(6, 6))  # not a step function of P
    P = Partition(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError):
        factor_two_check(M1, M2, P)


def test_factor_two_rejects_mixed_types():
    rng = np.random.default_rng(44)
    W = random_kernel(Group((2,)), 4, rng)
    with pytest.raises(ValueError):
        factor_two_check(W, np.zeros((4, 4)), Partition.single_block(4))


def test_factor_two_kernel_property():
    rng = np.random.default_rng(45)
    g = Group((2,))
    for _ in range(10):
        W1 = random_kernel(g, 6, rng, equal_parts=True)
        P = Partition(6, [(0, 1, 2), (3, 4, 5)])
        W2 = step_kernel(random_kernel(g, 6, rng, equal_parts=True), P)
        holds, lhs, rhs = factor_two_check(W1, W2, P)
        assert holds
