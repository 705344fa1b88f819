import json
from fractions import Fraction

import numpy as np
import pytest

from cochainlab.cochains import random_cochain
from cochainlab.groups import SymmetricDistribution
from cochainlab.complexes import TwoComplex, sample_one_out
from cochainlab.graphons import StepKernel, random_kernel, random_w00
from cochainlab.groups import Group
from cochainlab.serialize import (
    cochain_from_json_dict,
    cochain_to_json_dict,
    complex_from_json_dict,
    complex_to_json_dict,
    dump_json,
    dumps_json,
    kernel_from_json_dict,
    kernel_to_json_dict,
    load_json,
)


def test_cochain_roundtrip():
    rng = np.random.default_rng(50)
    for moduli in [(2,), (5,), (2, 3)]:
        f = random_cochain(7, SymmetricDistribution.uniform(Group(moduli)), rng)
        g = cochain_from_json_dict(cochain_to_json_dict(f))
        assert g.n == f.n
        assert g.group.moduli == f.group.moduli
        assert (g.labels == f.labels).all()


def test_cochain_rejects_missing_edge():
    f = random_cochain(5, SymmetricDistribution.uniform(Group((2,))), np.random.default_rng(51))
    d = cochain_to_json_dict(f)
    d["edges"] = d["edges"][:-1]
    with pytest.raises(ValueError, match="missing edges"):
        cochain_from_json_dict(d)


def test_cochain_rejects_duplicate_edge():
    f = random_cochain(5, SymmetricDistribution.uniform(Group((2,))), np.random.default_rng(52))
    d = cochain_to_json_dict(f)
    d["edges"].append(dict(d["edges"][0]))
    with pytest.raises(ValueError, match="twice"):
        cochain_from_json_dict(d)


def test_cochain_rejects_bad_vertex_order():
    f = random_cochain(5, SymmetricDistribution.uniform(Group((2,))), np.random.default_rng(53))
    d = cochain_to_json_dict(f)
    d["edges"][0]["u"], d["edges"][0]["v"] = d["edges"][0]["v"], d["edges"][0]["u"]
    with pytest.raises(ValueError, match="1 <= u < v <= n"):
        cochain_from_json_dict(d)


@pytest.mark.parametrize("field, value", [("n", 5.0), ("n", True), ("u", 1.5), ("v", "2")])
def test_cochain_rejects_non_integer_fields(field, value):
    f = random_cochain(5, SymmetricDistribution.uniform(Group((2,))), np.random.default_rng(54))
    d = cochain_to_json_dict(f)
    if field == "n":
        d["n"] = value
    else:
        d["edges"][0][field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        cochain_from_json_dict(d)


def test_cochain_rejects_missing_keys():
    with pytest.raises(ValueError, match="needs n, group, edges"):
        cochain_from_json_dict({"n": 4})


def test_kernel_roundtrip_float():
    rng = np.random.default_rng(54)
    W = random_kernel(Group((3,)), 4, rng)
    back = kernel_from_json_dict(kernel_to_json_dict(W))
    assert np.allclose(back.float_values(), W.float_values(), atol=1e-15)
    assert np.allclose(back.float_measures(), W.float_measures(), atol=1e-15)


def test_kernel_roundtrip_exact():
    rng = np.random.default_rng(55)
    W = random_w00(Group((2,)), 3, rng, exact=True)
    d = kernel_to_json_dict(W)
    # exact payloads serialize as fraction strings
    flat = json.dumps(d)
    assert "/" in flat
    back = kernel_from_json_dict(d, exact=True)
    assert back.values[0, 0, 0] == W.values[0, 0, 0]
    assert isinstance(back.values[0, 0, 0], Fraction)


def test_kernel_rejects_wrong_cell_width():
    W = random_kernel(Group((3,)), 3, np.random.default_rng(56))
    d = kernel_to_json_dict(W)
    d["values"][0][0] = d["values"][0][0][:2]
    with pytest.raises(ValueError, match="group elements"):
        kernel_from_json_dict(d)


def test_kernel_rejects_ragged_grid():
    W = random_kernel(Group((2,)), 3, np.random.default_rng(57))
    d = kernel_to_json_dict(W)
    d["values"] = d["values"][:2]
    with pytest.raises(ValueError, match="k x k"):
        kernel_from_json_dict(d)


def test_kernel_rejects_broken_symmetry():
    W = random_kernel(Group((3,)), 3, np.random.default_rng(58))
    d = kernel_to_json_dict(W)
    d["values"][0][1][1] = d["values"][0][1][1] + 0.5
    with pytest.raises(ValueError, match="symmetry"):
        kernel_from_json_dict(d)


def test_kernel_graphon_gate():
    W = random_kernel(Group((2,)), 3, np.random.default_rng(59), lo=-1.0, hi=1.0)
    d = kernel_to_json_dict(W)
    if W.is_graphon():
        kernel_from_json_dict(d, require_graphon=True)
    else:
        with pytest.raises(ValueError, match="range violated"):
            kernel_from_json_dict(d, require_graphon=True)


def test_complex_roundtrip():
    X = sample_one_out(7, np.random.default_rng(60))
    back = complex_from_json_dict(complex_to_json_dict(X))
    assert back == X


@pytest.mark.parametrize("n", [5.5, 5.0, True, False, "5", None])
def test_complex_rejects_non_integer_n(n):
    with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
        complex_from_json_dict({"n": n, "triangles": [[1, 2, 3]]})


def test_complex_rejects_missing_keys():
    with pytest.raises(ValueError, match="needs n and triangles"):
        complex_from_json_dict({"n": 5})


def test_dump_load_file_roundtrip(tmp_path):
    X = TwoComplex(5, [(1, 2, 3), (2, 3, 4)])
    p = tmp_path / "x.json"
    dump_json(complex_to_json_dict(X), str(p))
    assert complex_from_json_dict(load_json(str(p))) == X
    # trailing newline, sorted keys
    text = p.read_text()
    assert text.endswith("\n")
    assert text == dumps_json(complex_to_json_dict(X))


def test_dumps_deterministic():
    rng = np.random.default_rng(61)
    W = random_kernel(Group((2, 2)), 3, rng)
    a = dumps_json(kernel_to_json_dict(W))
    b = dumps_json(kernel_to_json_dict(W))
    assert a == b
