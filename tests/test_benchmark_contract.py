"""The benchmark's view of the program: every name that perfbench traces,
imports or calls must still exist, and every attribute its trace hooks read
off a result must still be there, so a renamed or deleted function or
attribute fails here rather than first in a benchmark run."""
import ast
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from cochainlab import complexes, graphons, homology
from cochainlab.groups import Group

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program_names(path: Path) -> set:
    """(module, attr) pairs a perfbench file reads from cochainlab: names in
    `from cochainlab... import name`, and `mod.attr` on an imported module."""
    names, modules = set(), {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cochainlab"):
            for alias in node.names:
                target = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(target, types.ModuleType):
                    modules[alias.asname or alias.name] = target.__name__
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
    return names


def test_every_traced_function_resolves():
    traced = _load_tracing().TRACED
    assert traced
    for module, attr, _, _ in traced:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_every_program_name_perfbench_reads_resolves():
    files = sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py"))
    names = set().union(*(_program_names(p) for p in files))
    for must in [
        ("cochainlab.complexes", "exact_kernel"),
        ("cochainlab.complexes", "log_avoidance_probability_exact"),
        ("cochainlab.lab.experiments", "_log_fraction"),
    ]:
        assert must in names, must  # the scan sees what the workloads read
    missing = [f"{m}.{a}" for m, a in sorted(names) if not hasattr(importlib.import_module(m), a)]
    assert not missing, missing


def _traced_calls() -> dict:
    """Arguments for one real call, at n = 5, of each traced function whose
    span has a variant or computed counts."""
    rng = np.random.default_rng(5)
    d2 = homology.boundary_matrices(complexes.full_two_skeleton(5))
    W = graphons.random_w00(Group((2,)), 3, np.random.default_rng(1))
    return {
        "build_kernel": (5,),
        "sample_hypertree": (complexes.build_kernel(5), rng),
        "sample_one_out": (5, rng),
        "rank_mod_p": (d2, 3),
        "smith_normal_form": (d2,),
        "bareiss_det": (d2.T @ d2 + np.eye(10, dtype=np.int64),),
        "convolve": (W,),
        "max_box_exact": (W.values[:, :, 0],),
        "fk_decompose": (W, 0.5, rng),
    }


def test_trace_hooks_read_real_results():
    tracing = _load_tracing()
    calls = _traced_calls()
    hooked = [t for t in tracing.TRACED if t[2] or t[3]]
    assert {attr for _, attr, _, _ in hooked} == set(calls)
    for module, attr, variant, attrs in hooked:
        args = calls[attr]
        if variant:
            assert variant(args, {}) in tracing.VARIANTS[attr], attr
        if attrs:
            counts = attrs(args, {}, getattr(module, attr)(*args))
            assert counts and all(isinstance(v, int) and v >= 0 for v in counts.values()), (attr, counts)


def test_exact_avoidance_calls_bareiss_through_the_complexes_global(monkeypatch):
    # the traced run replaces complexes.bareiss_det, and exact-scan's busy
    # count is its order sum, so every exact avoidance call, whichever
    # matrix it reduces to, must look bareiss_det up there
    from cochainlab.cochains import cocycle_triangles, random_cochain
    from cochainlab.groups import SymmetricDistribution
    from cochainlab.lab.config import ExperimentConfig

    orders = []
    real = complexes.bareiss_det

    def counting(M):
        orders.append(len(M))
        return real(M)

    monkeypatch.setattr(complexes, "bareiss_det", counting)
    nu = SymmetricDistribution.uniform(Group((2,)))
    audit_set = cocycle_triangles(random_cochain(8, nu, ExperimentConfig(seed=3).replica_rng("layer", 8, 0)))
    for Y in ([], complexes.all_triangles(8), audit_set):
        before = len(orders)
        complexes.avoidance_probability_exact(8, Y)
        assert len(orders) == before + 1, Y
    # [] (m < r) and the audit set (a zero row of C) are certified zeros, of
    # order 1; the full skeleton (m = 56 >= 2r, r = C(7, 2)) takes the drop core
    assert orders == [1, 15, 1], orders


def test_audit_b_and_cocycle_triangles_go_through_module_globals(monkeypatch):
    # the traced run replaces graphons.convolve, and its convolve.float span
    # is the audit's self-convolution: b_functional must look convolve up
    # there, once per b, with a float kernel. run_layer_audit must reach
    # the other traced audit stages through globals the tracer patches.
    import sys

    from cochainlab import cochains
    from cochainlab.groups import SymmetricDistribution
    from cochainlab.lab.config import ExperimentConfig
    from cochainlab.lab.experiments import run_layer_audit

    calls = []
    real_convolve = graphons.convolve

    def spy(V, W=None):
        calls.append((V.exact, W))
        return real_convolve(V, W)

    monkeypatch.setattr(graphons, "convolve", spy)
    nu = SymmetricDistribution.uniform(Group((2,)))
    f = cochains.random_cochain(8, nu, ExperimentConfig(seed=3).replica_rng("layer", 8, 0))
    graphons.b_functional(cochains.embed_graphon(f))
    assert calls == [(False, None)]

    counts = {}
    for module, attr in ((cochains, "embed_graphon"), (graphons, "b_functional"), (cochains, "cocycle_triangles")):
        original = getattr(module, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            counts[_attr] = counts.get(_attr, 0) + 1
            return _original(*args, **kwargs)

        # as Tracer.installed does: every cochainlab module bound to it
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "cochainlab" and getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, counting)
    cfg = ExperimentConfig(seed=3, n_values=(8,), samples=5, group=Group((2,)), layers=10)
    table, audit = run_layer_audit(cfg)
    assert counts == {"embed_graphon": 5, "b_functional": 5, "cocycle_triangles": 5}
    assert audit["audited"] == 5
