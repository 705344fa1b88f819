import json
import math

import numpy as np
import pytest

from cochainlab.groups import Group
from cochainlab.complexes import TwoComplex
from cochainlab.lab import certify
from cochainlab.lab.certify import PROJECTIVE_PLANE_6, run_certification
from cochainlab.lab.config import MODELS, ExperimentConfig
from cochainlab.lab.experiments import (
    AUDIT_SLACK_TOL,
    run_ez1_trend,
    run_layer_audit,
    weakly_decreasing_violations,
)
from cochainlab.lab.output import Table


def test_config_defaults_and_validation():
    cfg = ExperimentConfig(seed=3)
    assert cfg.model in MODELS
    assert cfg.group.moduli == (2,)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=None)
    with pytest.raises(ValueError, match="n must be"):
        ExperimentConfig(seed=1, n_values=(2,))
    with pytest.raises(ValueError, match="samples"):
        ExperimentConfig(seed=1, samples=0)
    with pytest.raises(ValueError, match="model"):
        ExperimentConfig(seed=1, model="erdos")


def test_replica_rng_streams():
    cfg = ExperimentConfig(seed=9)
    a = cfg.replica_rng("ez1", 6, 0).random(4)
    b = cfg.replica_rng("ez1", 6, 0).random(4)
    assert (a == b).all()
    c = cfg.replica_rng("ez1", 6, 1).random(4)
    assert not (a == c).all()
    d = cfg.replica_rng("betti", 6, 0).random(4)
    assert not (a == d).all()
    # a different seed shifts every stream
    e = ExperimentConfig(seed=10).replica_rng("ez1", 6, 0).random(4)
    assert not (a == e).all()


def test_table_add_and_columns():
    t = Table(["a", "b"])
    t.add(1, 2.5)
    t.add(b=-1.0, a=7)
    assert t.column("a") == [1, 7]
    assert t.column("b") == [2.5, -1.0]
    with pytest.raises(ValueError):
        t.add(1)
    with pytest.raises(ValueError):
        t.add(1, 2, 3)
    with pytest.raises(ValueError):
        t.column("zzz")


def test_table_csv_escaping_and_float_repr():
    t = Table(["name", "x"])
    t.add("wat, really", 0.1)
    t.add('quote "here"', -math.inf)
    text = t.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "name,x"
    assert '"wat, really"' in lines[1]
    assert repr(0.1) in lines[1]  # full precision, not str rounding
    assert '"quote ""here"""' in lines[2]
    assert "-inf" in lines[2]


def test_table_json_handles_special_values():
    t = Table(["v"])
    t.add(math.inf)
    t.add(math.nan)
    t.add(np.float64(1.5))
    t.add(np.int64(4))
    d = json.loads(t.to_json())
    col = [r[0] for r in d["rows"]]
    assert col[0] == "inf"
    assert col[1] == "nan"
    assert col[2] == 1.5
    assert col[3] == 4


def test_table_render_dispatch():
    t = Table(["v"])
    t.add(1)
    assert t.render("csv") == t.to_csv()
    assert t.render("json") == t.to_json()
    with pytest.raises(ValueError):
        t.render("yaml")


def test_weakly_decreasing_violations_unit():
    vals = [5.0, 4.0, 4.2, 3.0]
    ses = [0.05, 0.05, 0.05, 0.05]
    # 4.0 -> 4.2 rises by 0.2 > 2 * hypot(.05, .05) ~ 0.141
    assert weakly_decreasing_violations(vals, ses) == 1
    ses = [0.2, 0.2, 0.2, 0.2]
    assert weakly_decreasing_violations(vals, ses) == 0
    assert weakly_decreasing_violations([1.0], [0.1]) == 0


def test_ez1_trend_deterministic_and_shaped():
    cfg = ExperimentConfig(seed=5, model="one-out", n_values=(5, 6), samples=30)
    t1 = run_ez1_trend(cfg)
    t2 = run_ez1_trend(cfg)
    assert t1.to_csv() == t2.to_csv()
    assert t1.column("n") == [5, 6]
    for v in t1.column("normalized_log_mean"):
        assert v > 0.0


def test_layer_audit_frequencies_sum_to_one():
    cfg = ExperimentConfig(seed=6, n_values=(5,), samples=40, layers=8)
    table, audit = run_layer_audit(cfg)
    freqs = table.column("frequency")
    assert abs(sum(freqs) - 1.0) < 1e-12
    layers = table.column("layer")
    assert all(0 <= i <= 8 for i in layers)
    assert audit["n"] == 5
    assert audit["samples"] == 40
    assert audit["min_slack"] >= -AUDIT_SLACK_TOL


def test_layer_audit_is_exact_past_n8():
    cfg = ExperimentConfig(seed=6, n_values=(10,), samples=12)
    _, audit = run_layer_audit(cfg)
    assert audit["audited"] == audit["samples"] == 12
    assert audit["min_finite_slack"] is not None
    assert audit["min_slack"] >= -AUDIT_SLACK_TOL


def test_quick_certification_passes(monkeypatch):
    # a stand-in for the shared complex, so no other test has reduced it
    shared = TwoComplex(6, PROJECTIVE_PLANE_6.triangles)
    monkeypatch.setattr(certify, "PROJECTIVE_PLANE_6", shared)
    report = run_certification(seed=0, quick=True)
    assert report.passed, report.table().to_csv()
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    # the shared complex keeps no reduction, so every run reduces afresh
    assert "reduction" not in vars(shared)
