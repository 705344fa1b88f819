"""Experiment harness: certification, trend scans, layer audit, LDP numerics."""

from .certify import CertCheck, CertificationReport, PROJECTIVE_PLANE_6, run_certification
from .config import MODELS, ExperimentConfig
from .experiments import (
    run_betti_trend,
    run_ez1_trend,
    run_layer_audit,
    run_ldp_numerics,
    sampler,
    weakly_decreasing_violations,
)
from .output import Table

__all__ = [
    "CertCheck",
    "CertificationReport",
    "ExperimentConfig",
    "MODELS",
    "PROJECTIVE_PLANE_6",
    "Table",
    "run_betti_trend",
    "run_certification",
    "run_ez1_trend",
    "run_layer_audit",
    "run_ldp_numerics",
    "sampler",
    "weakly_decreasing_violations",
]
