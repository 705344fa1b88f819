"""Smoke tests: the demos run from a source checkout and exit cleanly."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_regularity_demo_certifies_its_residual():
    out = _run_demo("regularity_demo.py")
    residual = [line for line in out.splitlines() if line.startswith("residual cut norm")]
    assert len(residual) == 1
    assert residual[0].endswith("(certified)")


def test_hypertree_census_demo_finds_the_projective_planes():
    out = _run_demo("hypertree_census.py")
    assert "n=6 torsion complexes: 12, all with |H1| = [2]" in out
    assert "SNF divisor chain: (1, 1, 1, 1, 1, 1, 1, 1, 1, 2), product 2" in out


def test_kernel_calculus_demo_runs():
    assert "cut distance to uniform" in _run_demo("kernel_calculus.py")


def test_determinantal_sampling_demo_checks_the_closed_form():
    out = _run_demo("determinantal_sampling.py")
    assert "trace G = 30 = n * rank, G G == n G: True" in out
    assert "125 distinct complexes seen of 125 possible" in out
    assert "n=14 draw: 78 faces" in out


def test_cocycle_landscape_demo_identities_hold():
    out = _run_demo("cocycle_landscape.py")
    assert "log-argument multiset from edges == from kernel: True" in out
    assert "log P(hypertree inside Y_f): exact" in out


def test_trend_survey_demo_runs():
    out = _run_demo("trend_survey.py")
    assert "2-SE monotonicity violations: 0" in out
    assert "hypertree model" in out
