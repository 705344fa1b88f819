import itertools
import math
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from cochainlab import graphons
from cochainlab.cli import main
from cochainlab.cochains import embed_graphon, path_counts, random_cochain
from cochainlab.graphons import (
    CutNormTooLarge,
    StepKernel,
    b_functional,
    b_log_terms,
    constant_kernel,
    convolve,
    cut_distance_bounds,
    cut_norm,
    cut_norm_lower,
    dual_maximize,
    dual_rate,
    entropy,
    interpolate_to_uniform,
    kernel_difference,
    max_box_exact,
    max_box_heuristic,
    mgf_finite_n,
    mgf_limit,
    mirror_canonical,
    random_kernel,
    random_test_function,
    random_w00,
    rate_function,
    refine_pair,
    uniform_kernel,
    z_functional,
)
from cochainlab.groups import Group, SymmetricDistribution
from cochainlab.serialize import dump_json, dumps_json, kernel_to_json_dict


def _uniform(moduli):
    return SymmetricDistribution.uniform(Group(moduli))


# --------------------------------------------------------------------------
# kernel construction and validation

def test_mirror_symmetry_violation_is_named():
    g = Group((3,))
    vals = np.zeros((2, 2, 3))
    vals[0, 1, 1] = 0.5
    vals[1, 0, 2] = 0.4  # should be 0.5 to mirror (0,1,1)
    with pytest.raises(ValueError, match="symmetry violated at part"):
        StepKernel(g, [0.5, 0.5], vals)


def test_measures_must_be_positive_and_sum_to_one():
    g = Group((2,))
    vals = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        StepKernel(g, [0.7, 0.4], vals)
    with pytest.raises(ValueError):
        StepKernel(g, [1.0, 0.0], vals)


def test_uniform_kernel_in_w00():
    W = uniform_kernel(Group((4,)), 3)
    assert W.is_graphon()
    assert W.in_w00()
    assert np.allclose(W.slice_integrals(), 0.25)


def test_constant_kernel_carries_nu():
    g = Group((3,))
    nu = SymmetricDistribution(g, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    W = constant_kernel(g, nu, 2)
    assert W.in_w00()
    assert np.allclose(W.slice_integrals(), [0.5, 0.25, 0.25])


def test_random_w00_is_valid():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        g = Group((2, 2)) if seed % 2 else Group((5,))
        W = random_w00(g, 1 + seed % 4, rng)
        assert W.in_w00()
    We = random_w00(Group((3,)), 3, np.random.default_rng(1), exact=True)
    assert We.exact
    sums = We.values.sum(axis=2)
    off = ~np.eye(3, dtype=bool)
    assert all(s == 1 for s in sums[off].ravel())


def test_mirror_canonical_idempotent():
    g = Group((4,))
    rng = np.random.default_rng(3)
    raw = rng.random((3, 3, 4))
    sym = mirror_canonical(g, raw)
    neg = g.neg_perm
    for gi in range(4):
        assert np.allclose(sym[:, :, gi], sym[:, :, neg[gi]].T)
    assert np.allclose(mirror_canonical(g, sym), sym)


# --------------------------------------------------------------------------
# refinement

def test_refine_pair_preserves_integrals():
    rng = np.random.default_rng(8)
    g = Group((2,))
    V = random_kernel(g, 3, rng)
    W = random_kernel(g, 4, rng)
    Vr, Wr = refine_pair(V, W)
    assert Vr.k == Wr.k
    assert np.allclose(Vr.slice_integrals(), V.slice_integrals(), atol=1e-12)
    assert np.allclose(Wr.slice_integrals(), W.slice_integrals(), atol=1e-12)


def test_kernel_difference_signed_values():
    g = Group((2,))
    rng = np.random.default_rng(2)
    V = random_kernel(g, 2, rng)
    W = random_kernel(g, 3, rng)
    D = kernel_difference(V, W)
    assert np.allclose(D.slice_integrals(), V.slice_integrals() - W.slice_integrals(), atol=1e-12)


# --------------------------------------------------------------------------
# cut norm: brute force oracle over all subset pairs

def _cut_norm_oracle(W):
    Wf = W.to_float()
    mu = Wf.float_measures()
    total = 0.0
    k = Wf.k
    for gi in range(W.group.order):
        A = Wf.float_values()[:, :, gi] * np.outer(mu, mu)
        best = 0.0
        for smask in range(1 << k):
            S = [i for i in range(k) if smask >> i & 1]
            if not S:
                continue
            for tmask in range(1 << k):
                T = [j for j in range(k) if tmask >> j & 1]
                if not T:
                    continue
                best = max(best, abs(A[np.ix_(S, T)].sum()))
        total += best
    return total


def test_cut_norm_matches_subset_oracle():
    rng = np.random.default_rng(5)
    for trial in range(10):
        g = Group((2,)) if trial % 2 else Group((3,))
        k = 2 + trial % 3
        V = random_kernel(g, k, rng)
        W = random_kernel(g, k, rng)
        D = kernel_difference(V, W)
        assert cut_norm(D) == pytest.approx(_cut_norm_oracle(D), abs=1e-12)


def test_cut_norm_rejects_oversized_exact_request():
    g = Group((2,))
    W = uniform_kernel(g, 26)
    with pytest.raises(CutNormTooLarge):
        cut_norm(W)


def test_heuristic_lower_bounds_exact():
    rng = np.random.default_rng(7)
    g = Group((3,))
    for _ in range(5):
        D = kernel_difference(random_kernel(g, 5, rng), random_kernel(g, 5, rng))
        lo = cut_norm_lower(D, np.random.default_rng(1))
        assert lo <= cut_norm(D) + 1e-12


def test_max_box_witness_reproduces_value():
    rng = np.random.default_rng(11)
    A = rng.random((5, 5)) - 0.5
    best, S, T, signed = max_box_exact(A)
    assert abs(signed) == pytest.approx(best, abs=1e-15)
    assert A[np.ix_(sorted(S), sorted(T))].sum() == pytest.approx(signed, abs=1e-12)
    hval, *_ = max_box_heuristic(A, np.random.default_rng(0))
    assert hval <= best + 1e-12


def _chunked_max_box(A):
    """Reference oracle: every row subset as an indicator row, times A, in
    chunks of 2^14 masks; first maximum in increasing mask order."""
    k = A.shape[0]
    best, best_mask, best_sign = 0.0, 0, 1.0
    chunk = 1 << 14
    for start in range(0, 1 << k, chunk):
        masks = np.arange(start, min(start + chunk, 1 << k), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(k)) & 1).astype(float)
        cols = bits @ A
        pos = np.where(cols > 0, cols, 0.0).sum(axis=1)
        neg = np.where(cols < 0, cols, 0.0).sum(axis=1)
        cand = np.maximum(pos, -neg)
        i = int(np.argmax(cand))
        if cand[i] > best:
            best = float(cand[i])
            best_mask = start + i
            best_sign = 1.0 if pos[i] >= -neg[i] else -1.0
    S = [i for i in range(k) if (best_mask >> i) & 1]
    colsum = A[S].sum(axis=0) if S else np.zeros(A.shape[1])
    T = [j for j in range(A.shape[1]) if best_sign * colsum[j] > 0]
    return best, S, T


@pytest.mark.parametrize("k", [1, 2, 12, 13, 14, 17, 20])
@pytest.mark.parametrize("shape", ["square", "symmetric", "rectangular"])
def test_max_box_matches_chunked_reference(k, shape):
    rng = np.random.default_rng([k, len(shape)])
    m = int(rng.integers(1, 30)) if shape == "rectangular" else k
    A = rng.random((k, m)) - 0.5
    if shape == "symmetric":
        A = A + A.T
    ref, ref_S, ref_T = _chunked_max_box(A)
    best, S, T, signed = max_box_exact(A)
    assert best == pytest.approx(ref, abs=1e-12)
    assert max_box_exact(A)[0] == best
    assert abs(signed) == best
    assert A[np.ix_(S, T)].sum() == pytest.approx(signed, abs=1e-12)
    if shape != "symmetric":  # there (S, T) and (T, S) tie exactly
        assert (S, T) == (ref_S, ref_T)


def test_max_box_symmetric_tie_takes_smaller_witness():
    """On an exactly symmetric slice (S, T) and (T, S) have the same sum;
    the witness is the lexicographically smaller one, whichever mask the
    scan rounded larger."""
    swapped = 0
    for seed in range(24):
        rng = np.random.default_rng([seed, 9])
        k = int(rng.integers(2, 16))
        A = rng.random((k, k)) - 0.5
        A = A + A.T
        best, S, T, signed = max_box_exact(A)
        ref, ref_S, ref_T = _chunked_max_box(A)
        assert best == pytest.approx(ref, abs=1e-12)
        assert (S, T) == min((ref_S, ref_T), (ref_T, ref_S))
        assert math.fsum(A[np.ix_(T, S)].flat) == signed
        swapped += (ref_S, ref_T) > (ref_T, ref_S)
    assert swapped  # some reference witnesses come out in the larger order


def _max_box_on_cpus(A, cpus):
    """max_box_exact as it runs on ``cpus`` CPUs: one block of high masks per
    CPU from four masks up, one block over all of them on one CPU."""
    with mock.patch.object(graphons, "_scan_workers", lambda: cpus):
        return max_box_exact(A)


@settings(max_examples=40)
@given(
    k=st.integers(13, 20),
    shape=st.sampled_from(["square", "symmetric", "rectangular"]),
    m=st.integers(1, 24),
    halves=st.booleans(),
    zero_row=st.integers(0, 30),
    cpus=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_box_split_scan_matches_single_block(k, shape, m, halves, zero_row, cpus, seed):
    """Splitting the high masks into blocks, whichever the CPU count, keeps
    the single scan's witness; half-integer entries make exact ties, also
    between blocks."""
    rng = np.random.default_rng(seed)
    A = rng.random((k, m if shape == "rectangular" else k)) - 0.5
    if halves:
        A = np.round(4 * A) / 2
    if shape == "symmetric":
        A = A + A.T
    if zero_row < k:
        A[zero_row] = 0.0
        if shape == "symmetric":
            A[:, zero_row] = 0.0
    assert repr(_max_box_on_cpus(A, cpus)) == repr(_max_box_on_cpus(A, 1))


@pytest.mark.parametrize("cpus", [2, 4])
def test_max_box_tie_across_blocks_takes_earlier_block(cpus):
    """Rows 13 and 14 give equal boxes from high masks 1 and 2, which sit in
    different blocks; the earlier block's mask, S = {13}, wins."""
    A = np.zeros((15, 2))
    A[13] = [1.0, -1.0]
    A[14] = [-1.0, 1.0]
    with mock.patch.object(graphons, "_scan_workers", lambda: cpus):
        blocks = graphons._mask_blocks(4)
    assert next(b for b in blocks if 1 in b) != next(b for b in blocks if 2 in b)
    assert _max_box_on_cpus(A, cpus) == (1.0, [13], [0], 1.0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_max_box_split_scan_runs_in_forked_child():
    """A child forked after a split scan inherits the thread pool without
    its threads; its own split scans must still finish."""
    A = np.random.default_rng(41).random((15, 15)) - 0.5
    expected = _max_box_on_cpus(A, 2)
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            signal.alarm(20)  # a hung child ends itself
            code = 0 if _max_box_on_cpus(A, 2) == expected else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (status := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.05)
    if not status[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status[0] and os.waitstatus_to_exitcode(status[1]) == 0


# --------------------------------------------------------------------------
# cut distance

def test_cut_distance_zero_for_relabeled_kernel():
    rng = np.random.default_rng(13)
    g = Group((2,))
    f = random_cochain(5, SymmetricDistribution.uniform(g), rng)
    W = embed_graphon(f)
    V = embed_graphon(f.permute([3, 1, 4, 5, 2]))
    lower, upper = cut_distance_bounds(V, W)
    assert lower <= 1e-12
    assert upper <= 1e-12


def test_cut_distance_bracket_orders():
    rng = np.random.default_rng(14)
    g = Group((3,))
    V = random_w00(g, 4, rng)
    W = random_w00(g, 4, rng)
    lower, upper = cut_distance_bounds(V, W)
    assert 0 <= lower <= upper + 1e-15
    assert upper <= cut_norm(kernel_difference(V, W)) + 1e-12


def test_cut_distance_detects_mass_gap():
    g = Group((2,))
    nu = SymmetricDistribution(g, [0.8, 0.2])
    V = constant_kernel(g, nu)
    W = uniform_kernel(g)
    lower, _ = cut_distance_bounds(V, W)
    assert lower == pytest.approx(0.6, abs=1e-12)


# --------------------------------------------------------------------------
# convolution

def test_convolution_of_constants_matches_group_algebra():
    g = Group((4,))
    nu = SymmetricDistribution(g, [Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)])
    mu = SymmetricDistribution(g, [Fraction(1, 4)] * 4)
    V = constant_kernel(g, nu)
    W = constant_kernel(g, mu)
    C = convolve(V, W)
    # scalar convolution of the two weight sequences
    for gi in range(4):
        expect = sum(
            float(nu.probs[h]) * float(mu.probs[g.add_table[gi, g.neg_perm[h]]])
            for h in range(4)
        )
        assert C.values[0, 0, gi] == pytest.approx(expect, abs=1e-14)


def test_convolution_matches_embedded_path_counts():
    nu = _uniform((2, 2))
    f = random_cochain(7, nu, np.random.default_rng(15))
    W = embed_graphon(f, exact=True)
    C = convolve(W)
    pc = path_counts(f)
    for a in range(7):
        for b in range(7):
            for gi in range(4):
                assert C.values[a, b, gi] == Fraction(int(pc[a, b, gi]), 7)


def test_convolution_float_tracks_exact():
    nu = _uniform((3,))
    f = random_cochain(6, nu, np.random.default_rng(16))
    Ce = convolve(embed_graphon(f, exact=True))
    Cf = convolve(embed_graphon(f))
    assert np.allclose(Cf.values, Ce.values.astype(float), atol=1e-12)


def test_noncommuting_pair_raises():
    g = Group((2,))
    A = np.zeros((2, 2, 2))
    A[:, :, 0] = [[0.0, 1.0], [1.0, 0.0]]
    B = np.zeros((2, 2, 2))
    B[:, :, 0] = [[1.0, 0.0], [0.0, 0.0]]
    V = StepKernel(g, [0.5, 0.5], A)
    W = StepKernel(g, [0.5, 0.5], B)
    with pytest.raises(ValueError, match="non-commuting"):
        convolve(V, W)


def test_self_convolution_stays_symmetric():
    rng = np.random.default_rng(17)
    for _ in range(5):
        W = random_w00(Group((3,)), 3, rng)
        C = convolve(W)
        neg = W.group.neg_perm
        for gi in range(3):
            assert np.allclose(C.values[:, :, gi], C.values[:, :, neg[gi]].T, atol=1e-12)


# --------------------------------------------------------------------------
# exact convolution against the Fraction oracle

def _fraction_convolve(V, W=None):
    """Oracle for exact convolve: the Fraction matmul of every (g, h) term on
    the common refinement, unmirrored. Returns (measures, values)."""
    if W is None:
        W = V
    Vr, Wr = refine_pair(V, W)
    grp = Vr.group
    weighted = Vr.values * Vr.measures[None, :, None]
    out = np.empty_like(Vr.values)
    for g in range(grp.order):
        sub = [int(grp.add_table[g, grp.neg_perm[h]]) for h in range(grp.order)]
        acc = weighted[:, :, 0] @ Wr.values[:, :, sub[0]]
        for h in range(1, grp.order):
            acc = acc + weighted[:, :, h] @ Wr.values[:, :, sub[h]]
        out[:, :, g] = acc
    return Vr.measures, out


def _assert_matches_oracle(V, W=None):
    C = convolve(V, W)
    measures, values = _fraction_convolve(V, W)
    assert C.exact
    assert all(type(x) is Fraction for x in C.values.flat)
    assert np.array_equal(C.measures, measures)
    assert np.array_equal(C.values, values)
    return C


def _split_part(W, p, t):
    """W on a finer partition: part p split into pieces of measure t and 1 - t
    of it. The same kernel, so it commutes with W and with W * W."""
    idx = list(range(p + 1)) + list(range(p, W.k))
    meas = list(W.measures[: p + 1]) + list(W.measures[p:])
    meas[p], meas[p + 1] = meas[p] * t, meas[p] * (1 - t)
    return StepKernel(W.group, meas, W.values[np.ix_(idx, idx)])


def _primes(lo, hi):
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(hi**0.5) + 1):
        sieve[q * q :: q] = False
    return [int(q) for q in np.flatnonzero(sieve) if q >= lo]


def _prime_denominator_kernel(group, k, rng):
    """Exact kernel whose every value has its own random prime denominator
    near 2^15, and whose measures share one prime denominator."""
    primes = _primes(1 << 14, 1 << 16)
    vals = np.empty((k, k, group.order), dtype=object)
    for idx in np.ndindex(vals.shape):
        vals[idx] = Fraction(int(rng.integers(-(1 << 15), 1 << 15)), primes[int(rng.integers(len(primes)))])
    q = primes[int(rng.integers(len(primes)))]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, q), size=k - 1, replace=False))
    meas = [Fraction(b - a, q) for a, b in zip([0] + cuts, cuts + [q])]
    return StepKernel(group, meas, mirror_canonical(group, vals))


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 2)])
def test_exact_convolution_matches_oracle_on_embedded_cochains(moduli):
    nu = _uniform(moduli)
    for seed in range(3):
        f = random_cochain(8, nu, np.random.default_rng([seed, len(moduli), moduli[0]]))
        C = _assert_matches_oracle(embed_graphon(f, exact=True))
        expected = path_counts(f)
        assert all(C.values[idx] == Fraction(int(expected[idx]), 8) for idx in np.ndindex(expected.shape))


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 2)])
def test_exact_convolution_matches_oracle_with_unequal_measures(moduli):
    rng = np.random.default_rng([31, len(moduli), moduli[0]])
    for k in (1, 3, 6):
        W = random_w00(Group(moduli), k, rng, exact=True)
        if k > 1:
            assert len(set(W.measures)) > 1
        _assert_matches_oracle(W)


def test_exact_convolution_of_commuting_pair_on_different_partitions():
    g = Group((3,))
    W = random_w00(g, 4, np.random.default_rng(32), exact=True)
    pairs = [
        (_split_part(W, 1, Fraction(1, 3)), W),
        (_split_part(convolve(W), 0, Fraction(2, 5)), W),
        (uniform_kernel(g, 3, exact=True), W),  # U * W = W * U = U on probability kernels
    ]
    for V, W2 in pairs:
        Vr, _ = refine_pair(V, W2)
        assert Vr.k > min(V.k, W2.k)  # refine_pair re-cuts at least one of them
        C = _assert_matches_oracle(V, W2)
        assert np.array_equal(C.values, convolve(W2, V).values)


@pytest.mark.parametrize("moduli, k", [((2,), 3), ((2,), 6), ((3,), 5), ((2, 2), 4)])
def test_exact_convolution_matches_oracle_on_prime_denominators(moduli, k):
    W = _prime_denominator_kernel(Group(moduli), k, np.random.default_rng([33, k]))
    for i in range(k):
        row = [v.denominator for v in W.values[i].flat]
        assert math.lcm(*row) > 1 << 64  # each row's common denominator passes 64 bits
    _assert_matches_oracle(W)


def test_exact_noncommuting_pair_raises():
    g = Group((2,))
    A = np.full((2, 2, 2), Fraction(0), dtype=object)
    A[0, 1, 0] = A[1, 0, 0] = Fraction(1)
    B = np.full((2, 2, 2), Fraction(0), dtype=object)
    B[0, 0, 0] = Fraction(1)
    V = StepKernel(g, [Fraction(1, 2)] * 2, A)
    W = StepKernel(g, [Fraction(1, 2)] * 2, B)
    with pytest.raises(ValueError, match="non-commuting"):
        convolve(V, W)


@st.composite
def _exact_kernels(draw):
    group = Group(draw(st.sampled_from([(2,), (3,), (4,), (2, 2)])))
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    vals = np.empty((k, k, group.order), dtype=object)
    size = vals.size
    nums = draw(st.lists(st.integers(-24, 24), min_size=size, max_size=size))
    dens = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    for idx, a, b in zip(np.ndindex(vals.shape), nums, dens):
        vals[idx] = Fraction(a, b)
    measures = [Fraction(w, sum(weights)) for w in weights]
    return StepKernel(group, measures, mirror_canonical(group, vals))


@given(_exact_kernels(), st.data())
def test_exact_convolution_property_matches_oracle(W, data):
    _assert_matches_oracle(W)
    p = data.draw(st.integers(0, W.k - 1))
    t = data.draw(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6, 7), max_denominator=7))
    _assert_matches_oracle(_split_part(W, p, t), W)


def test_cli_exact_convolve_writes_oracle_result(tmp_path):
    g = Group((3,))
    W = random_w00(g, 4, np.random.default_rng(34), exact=True)
    assert len(set(W.measures)) > 1
    src, out = tmp_path / "w.json", tmp_path / "c.json"
    dump_json(kernel_to_json_dict(W), str(src))
    assert main(["graphon", "convolve", "--exact", "--in", str(src), "--out", str(out)]) == 0
    measures, values = _fraction_convolve(W)
    assert out.read_text() == dumps_json(kernel_to_json_dict(StepKernel(g, measures, values)))


# --------------------------------------------------------------------------
# b functional and entropy

def test_b_of_uniform_kernel():
    for moduli in [(2,), (5,), (2, 3)]:
        g = Group(moduli)
        W = uniform_kernel(g, 2)
        assert b_functional(W) == pytest.approx(-math.log(g.order), abs=1e-12)


def test_b_minus_inf_sentinel():
    # two-part kernel supported on mismatched labels so a positive cell of W
    # meets a vanishing product cell
    g = Group((2,))
    vals = np.zeros((2, 2, 2))
    vals[0, 0, 1] = 1.0
    vals[1, 1, 1] = 1.0
    vals[0, 1, 0] = 1.0
    vals[1, 0, 0] = 1.0
    W = StepKernel(g, [0.5, 0.5], vals)
    # (W*W)^1 vanishes on the diagonal blocks where W^1 = 1
    assert b_functional(W) == -math.inf


def test_b_log_terms_sum_to_b():
    rng = np.random.default_rng(19)
    f = random_cochain(6, _uniform((3,)), rng)
    W = embed_graphon(f, exact=True)
    terms = b_log_terms(W)
    b = b_functional(W.to_float())
    if any(a == 0 for a in terms):
        assert b == -math.inf
    else:
        s = sum(float(c) * math.log(float(a)) for a, c in terms.items())
        assert s == pytest.approx(b, abs=1e-12)


def test_rate_function_zero_at_matching_constant():
    g = Group((3,))
    nu = SymmetricDistribution(g, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    W = constant_kernel(g, nu, 2)
    assert rate_function(W, nu) == pytest.approx(0.0, abs=1e-15)
    assert rate_function(W, _uniform((3,))) > 0


def test_rate_function_infinite_off_w00():
    g = Group((2,))
    vals = np.full((1, 1, 2), 0.3)
    W = StepKernel(g, [1.0], vals)  # slice sum 0.6, not a probability kernel
    assert rate_function(W, _uniform((2,))) == math.inf


def test_entropy_peaks_at_uniform():
    g = Group((4,))
    U = uniform_kernel(g)
    assert entropy(U) == pytest.approx(math.log(4), abs=1e-12)
    rng = np.random.default_rng(21)
    for _ in range(10):
        W = random_w00(g, 3, rng)
        assert entropy(W) <= math.log(4) + 1e-12


def test_interpolation_endpoints():
    rng = np.random.default_rng(23)
    W = random_w00(Group((2,)), 2, rng)
    W0 = interpolate_to_uniform(W, 0.0)
    assert np.allclose(W0.values, W.values)
    W1 = interpolate_to_uniform(W, 1.0)
    assert np.allclose(W1.values, 0.5)
    with pytest.raises(ValueError):
        interpolate_to_uniform(W, 1.5)


def test_interpolation_exact_mode():
    f = random_cochain(4, _uniform((2,)), np.random.default_rng(24))
    W = embed_graphon(f, exact=True)
    Wt = interpolate_to_uniform(W, Fraction(1, 3))
    assert Wt.exact
    vals = {v for v in Wt.values.ravel()}
    assert vals <= {Fraction(1, 6), Fraction(2, 3) + Fraction(1, 6)}


# --------------------------------------------------------------------------
# z functional and moment generating functionals

def test_z_functional_direct_sum():
    g = Group((2,))
    rng = np.random.default_rng(25)
    # equal halves on both sides so the common refinement is the partition itself
    phi = random_kernel(g, 2, rng, lo=-1.0, hi=1.0, equal_parts=True)
    W = random_w00(g, 2, rng, equal_parts=True)
    phi_f, W_f = phi.to_float(), W.to_float()
    mu = phi_f.float_measures()
    expect = 0.0
    for i in range(2):
        for j in range(2):
            for gi in range(2):
                expect += mu[i] * mu[j] * phi_f.float_values()[i, j, gi] * W_f.float_values()[i, j, gi]
    assert z_functional(phi, W) == pytest.approx(expect, abs=1e-14)


def test_mgf_limit_single_part_closed_form():
    g = Group((3,))
    nu = _uniform((3,))
    c = np.zeros((1, 1, 3))
    c[0, 0, :] = [0.3, -0.1, -0.1]
    phi = StepKernel(g, [1.0], c)
    expect = 0.5 * math.log(sum(math.exp(2 * v) / 3 for v in [0.3, -0.1, -0.1]))
    assert mgf_limit(phi, nu) == pytest.approx(expect, abs=1e-14)


def _mgf_brute_force(phi, n, nu):
    """Enumerate every cochain; average exp(n^2 Z_phi(embedded f)) under nu."""
    from cochainlab.cochains import Cochain, edge_list

    g = phi.group
    m = n * (n - 1) // 2
    total = 0.0
    for labels in itertools.product(range(g.order), repeat=m):
        f = Cochain(g, n, np.array(labels, dtype=np.intp))
        weight = 1.0
        for li in labels:
            weight *= float(nu.probs[li])
        total += weight * math.exp(n * n * z_functional(phi, embed_graphon(f)))
    return math.log(total) / (n * n)


def test_mgf_finite_n_matches_brute_force():
    g = Group((2,))
    nu = SymmetricDistribution(g, [Fraction(2, 3), Fraction(1, 3)])
    rng = np.random.default_rng(27)
    phi = random_test_function(g, 2, rng, scale=0.7)
    got = mgf_finite_n(phi, 3, nu)
    expect = _mgf_brute_force(phi, 3, nu)
    assert got == pytest.approx(expect, abs=1e-12)


def test_mgf_finite_n_approaches_limit():
    g = Group((2,))
    nu = _uniform((2,))
    phi = random_test_function(g, 3, np.random.default_rng(28))
    lim = mgf_limit(phi, nu)
    gaps = [abs(mgf_finite_n(phi, n, nu) - lim) for n in (8, 16, 32, 64)]
    assert gaps[-1] < gaps[0]


# --------------------------------------------------------------------------
# duality

def test_dual_attains_rate_on_interior_kernels():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = Group((3,))
        nu = _uniform((3,))
        W = random_w00(g, 3, rng, floor=0.15)
        phi_star, value = dual_maximize(W, nu)
        assert value == pytest.approx(rate_function(W, nu), abs=1e-10)
        assert dual_rate(phi_star, W, nu) == pytest.approx(value, abs=1e-12)


def test_weak_duality():
    rng = np.random.default_rng(31)
    g = Group((2, 2))
    nu = _uniform((2, 2))
    for _ in range(50):
        phi = random_test_function(g, 2, rng, scale=1.5)
        W = random_w00(g, 3, rng)
        assert dual_rate(phi, W, nu) <= rate_function(W, nu) + 1e-12
