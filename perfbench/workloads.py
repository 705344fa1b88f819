"""The benchmark's three workloads, as a set-up step and one fixed pass.

A pass is a list of replicates. Each replicate draws its randomness from
``ExperimentConfig(seed).replica_rng`` with the tags the ``lab.experiments``
drivers use, so the benchmark measures what the CLI runs. Replicates call the
program through its modules (``complexes.sample_hypertree``, never a name
imported here): the traced run wraps each function in every module that
looks it up, and the untraced run pays nothing for that.

A replicate's ``work`` is the timed part. It returns ``(record, evidence)``:
the record is JSON-able and feeds the determinism digest; the evidence is
whatever the untimed ``check`` needs beyond the record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable

import numpy as np

from cochainlab import cochains, complexes, graphons, homology, regularity
from cochainlab.groups import Group, SymmetricDistribution
from cochainlab.lab.config import ExperimentConfig

Z2 = Group((2,))
Z4 = Group((4,))

# hypertree-scan: the `ez1-trend --model hypertree` replicate
HYPERTREE_N = (12, 16, 20)
HYPERTREE_REPS = 2

# exact-scan: `layer-audit --n 8` and `betti-trend --model one-out --include-mg`
AUDIT_N = 8
AUDIT_REPS = 288
ONE_OUT_N = (14, 18, 20)
ONE_OUT_REPS = 24

# kernel-regularity: criterion-9 shaped fk inputs, the exact cut-norm oracle,
# exact self-convolution and the `ldp-numerics` float functionals. The
# replicate_p50_ms and replicate_tail_ms of this mix fall on replicates whose
# cost does not depend on the seed. The median is a 14-part cut norm: the
# sub-millisecond LDP items, when they were the median, spread 0.26 over ten
# seeds, as this host's speed swings. The tail is an fk_decompose run: three
# a pass outnumber the runs beyond the tail percentile at four passes or more.
FK_EPS = 0.2
FK_REPS = 3
CUT_PARTS = 20
CUT_REPS = 1
SMALL_CUT_PARTS = 14
SMALL_CUT_REPS = 24
CONV_N = 12
CONV_REPS = 4
LDP_REPS = 8

WORKLOADS = ("hypertree-scan", "exact-scan", "kernel-regularity")

# A workload's whole job is JOB_PASSES passes, sized like the CLI runs the
# profiles quote (exact-scan: 360 replicates, as a 420-replicate prototype),
# so that set-up does not swamp the work. Runs time several passes and scale
# the median, which is steadier than timing one long job. Exact-scan's cost
# depends on its inputs, so its pass holds many distinct replicates: with 90,
# the pass time alone spread about 0.1 (IQR/median) over ten seeds.
JOB_PASSES = {"hypertree-scan": 3, "exact-scan": 1, "kernel-regularity": 2}


@dataclass(frozen=True)
class Replicate:
    label: str
    work: Callable[[], tuple[dict, Any]]
    check: Callable[[dict, Any], str | None]


def interleave(heavy: list[Replicate], light: list[Replicate]) -> list[Replicate]:
    """The pass: an equal share of ``light`` before each of ``heavy``, the
    rest at the end. A slow moment of the host then falls on few heavy
    replicates, and the light ones are timed at many moments, not one."""
    share = len(light) // len(heavy)
    reps = []
    for i, rep in enumerate(heavy):
        reps += light[i * share:(i + 1) * share] + [rep]
    return reps + light[len(heavy) * share:]


def setup(workload: str, seed: int) -> list[Replicate]:
    """Everything a CLI user pays before the first replicate, then the pass."""
    cfg = ExperimentConfig(seed=seed)
    if workload == "hypertree-scan":
        return _setup_hypertree(cfg)
    if workload == "exact-scan":
        return _setup_exact(cfg)
    if workload == "kernel-regularity":
        return _setup_kernel(cfg)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# hypertree-scan

def hypertree(cfg: ExperimentConfig, kernel, n: int, rep: int):
    X = complexes.sample_hypertree(kernel, cfg.replica_rng("ez1", n, rep))
    record = {
        "faces": X.triangles,
        "cocycles_z2": homology.count_cocycles(X, Z2),
        "h1_f3": homology.dim_h1_mod_p(X, 3),
    }
    return record, None


def check_hypertree(n: int, record: dict, _evidence) -> str | None:
    faces = record["faces"]
    if len(faces) != math.comb(n - 1, 2) or len(set(faces)) != len(faces):
        return f"{len(faces)} faces, expected C({n - 1},2) distinct"
    count = record["cocycles_z2"]
    if count < 2 ** (n - 1) or count & (count - 1):
        return f"cocycle count {count} is not a power of two >= 2^{n - 1}"
    return None


def _setup_hypertree(cfg):
    kernels = {n: complexes.build_kernel(n) for n in HYPERTREE_N}
    return [
        Replicate(
            f"hypertree n={n} rep={rep}",
            partial(hypertree, cfg, kernels[n], n, rep),
            partial(check_hypertree, n),
        )
        for rep in range(HYPERTREE_REPS)
        for n in HYPERTREE_N
    ]


# ---------------------------------------------------------------------------
# exact-scan

def audit(cfg: ExperimentConfig, nu, rep: int):
    n = AUDIT_N
    f = cochains.random_cochain(n, nu, cfg.replica_rng("layer", n, rep))
    b = graphons.b_functional(cochains.embed_graphon(f))
    log_p = complexes.log_avoidance_probability_exact(n, cochains.cocycle_triangles(f))
    return {"b": b, "log_p": log_p}, None


def audit_slack(n: int, b: float, log_p: float) -> float:
    """The containment bound minus the exact log-probability, computed as
    ``run_layer_audit`` does; 0 when both sides are -inf."""
    if math.isinf(b):
        bound = -math.inf
    else:
        bound = (n - 2) * math.log(n) + (n * n / 2.0) * (1.0 - 2.0 / n) * b
    if math.isinf(log_p) and math.isinf(bound):
        return 0.0
    return bound - log_p


def check_audit(record: dict, _evidence) -> str | None:
    # log p <= 0 is p <= 1; a negative p raises ArithmeticError in the program
    if not record["log_p"] <= 0.0:
        return f"exact probability exp({record['log_p']}) is outside [0, 1]"
    slack = audit_slack(AUDIT_N, record["b"], record["log_p"])
    if slack < -1e-9:
        return f"audit slack {slack} below -1e-9"
    return None


def one_out(cfg: ExperimentConfig, n: int, rep: int):
    X = complexes.sample_one_out(n, cfg.replica_rng("betti", n, rep))
    record = {
        "faces": X.triangles,
        "h1_f2": homology.dim_h1_mod_p(X, 2),
        "h1_f3": homology.dim_h1_mod_p(X, 3),
        "min_generators": homology.min_generators_h1(X),
    }
    return record, None


def check_one_out(record: dict, _evidence) -> str | None:
    mg = record["min_generators"]
    if record["h1_f2"] > mg or record["h1_f3"] > mg:
        return f"dim H1 over F2/F3 = {record['h1_f2']}/{record['h1_f3']} exceeds {mg} generators"
    return None


def _setup_exact(cfg):
    complexes.exact_kernel(AUDIT_N)
    nu = SymmetricDistribution.uniform(Z2)
    audits = [
        Replicate(f"audit n={AUDIT_N} rep={rep}", partial(audit, cfg, nu, rep), check_audit)
        for rep in range(AUDIT_REPS)
    ]
    one_outs = [
        Replicate(f"one-out n={n} rep={rep}", partial(one_out, cfg, n, rep), check_one_out)
        for rep in range(ONE_OUT_REPS)
        for n in ONE_OUT_N
    ]
    return interleave(one_outs, audits)


# ---------------------------------------------------------------------------
# kernel-regularity

def planted_two_block(rng: np.random.Generator) -> np.ndarray:
    """Acceptance criterion 9's planted matrix: +-0.9 blocks plus noise."""
    blocks = np.kron(np.array([[0.9, -0.9], [-0.9, 0.9]]), np.ones((10, 10)))
    M = blocks + rng.uniform(-0.05, 0.05, size=(20, 20))
    return (M + M.T) / 2


def fk(cfg: ExperimentConfig, rep: int):
    rng = cfg.replica_rng("fk", rep)
    res = regularity.fk_decompose(planted_two_block(rng), FK_EPS, rng)
    record = {
        "rounds": res.rounds,
        "parts": res.partition.num_parts,
        "residual": res.residual,
        "threshold": res.threshold,
        "certified": res.residual_certified,
    }
    return record, None


def check_fk(record: dict, _evidence) -> str | None:
    if not record["certified"]:
        return "residual not certified by the exact oracle"
    if record["residual"] > record["threshold"]:
        return f"residual {record['residual']} above threshold {record['threshold']}"
    if record["rounds"] < 1:
        return "planted blocks accepted no round"
    return None


def cut(cfg: ExperimentConfig, parts: int, rep: int):
    """Exact cut distance of a ``parts``-part Z/2 probability kernel to
    uniform (the cut norm of the kernel itself is its total mass, 1)."""
    W = graphons.random_w00(Z2, parts, cfg.replica_rng("cut", parts, rep))
    D = graphons.kernel_difference(W, graphons.uniform_kernel(Z2))
    return {"cut_norm": graphons.cut_norm(D)}, D


def check_cut(record: dict, D) -> str | None:
    lower = graphons.cut_norm_lower(D)
    if record["cut_norm"] < lower - 1e-12:
        return f"exact cut norm {record['cut_norm']} below the heuristic bound {lower}"
    return None


def conv(cfg: ExperimentConfig, nu, rep: int):
    f = cochains.random_cochain(CONV_N, nu, cfg.replica_rng("conv", rep))
    C = graphons.convolve(cochains.embed_graphon(f, exact=True))
    return {"values": [str(v) for v in C.values.ravel()]}, (f, C)


def check_conv(_record: dict, evidence) -> str | None:
    f, C = evidence
    expected = cochains.path_counts(f)
    n = f.n
    for idx in np.ndindex(expected.shape):
        if C.values[idx] != Fraction(int(expected[idx]), n):
            return f"convolution cell {idx} is {C.values[idx]}, path count / n is {expected[idx]}/{n}"
    return None


def ldp_dual(cfg: ExperimentConfig, nu, rep: int):
    rng = cfg.replica_rng("ldp", "dual", rep)
    W = graphons.random_w00(Z2, 1 + int(rng.integers(4)), rng, floor=0.2)
    rate = graphons.rate_function(W, nu)
    _, attained = graphons.dual_maximize(W, nu)
    return {"rate": rate, "attained": attained}, None


def check_ldp_dual(record: dict, _evidence) -> str | None:
    gap = abs(record["attained"] - record["rate"])
    return None if gap <= 1e-10 else f"dual value misses the rate by {gap}"


def ldp_gibbs(cfg: ExperimentConfig, rep: int):
    rng = cfg.replica_rng("ldp", "gibbs", rep)
    W = graphons.random_w00(Z2, 1 + int(rng.integers(4)), rng)
    return {"b": graphons.b_functional(W), "entropy": graphons.entropy(W)}, None


def check_ldp_gibbs(record: dict, _evidence) -> str | None:
    slack = record["b"] + record["entropy"]
    return None if slack <= 1e-12 else f"Gibbs inequality b + H <= 0 fails by {slack}"


def _setup_kernel(cfg):
    nu2 = SymmetricDistribution.uniform(Z2)
    nu4 = SymmetricDistribution.uniform(Z4)
    heavy = [Replicate(f"fk rep={r}", partial(fk, cfg, r), check_fk) for r in range(FK_REPS)]
    heavy += [
        Replicate(f"cut n={CUT_PARTS} rep={r}", partial(cut, cfg, CUT_PARTS, r), check_cut)
        for r in range(CUT_REPS)
    ]
    heavy += [Replicate(f"conv rep={r}", partial(conv, cfg, nu4, r), check_conv) for r in range(CONV_REPS)]
    light = [
        Replicate(f"cut n={SMALL_CUT_PARTS} rep={r}", partial(cut, cfg, SMALL_CUT_PARTS, r), check_cut)
        for r in range(SMALL_CUT_REPS)
    ]
    for r in range(LDP_REPS):
        light.append(Replicate(f"ldp-dual rep={r}", partial(ldp_dual, cfg, nu2, r), check_ldp_dual))
        light.append(Replicate(f"ldp-gibbs rep={r}", partial(ldp_gibbs, cfg, r), check_ldp_gibbs))
    return interleave(heavy, light)
