"""The benchmark's view of the program: every name that perfbench traces,
imports or calls must still exist, so a renamed or deleted function fails
here rather than first in a benchmark run."""
import ast
import importlib
import importlib.util
import types
from pathlib import Path

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
