import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cochainlab.cochains import Cochain, random_cochain
from cochainlab.groups import SymmetricDistribution
from cochainlab.complexes import TwoComplex, all_triangles, sample_one_out
from cochainlab.graphons import StepKernel, mirror_canonical, random_kernel, random_w00
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


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda d: d.update(edges=None), "edges must be a JSON array, got None", id="edges-null"),
        pytest.param(
            lambda d: d["edges"].__setitem__(0, [1, 2, [0]]), "each edge must be an object with u, v and g",
            id="edge-as-list",
        ),
        pytest.param(lambda d: d["edges"][0].update(g=None), "g must be a JSON array of integers, got None", id="g-null"),
        pytest.param(lambda d: d["edges"][0].pop("g"), "each edge must be an object with u, v and g", id="g-missing"),
        pytest.param(lambda d: d["edges"][0].update(g=[1.0]), "each g entry must be an integer, got 1.0", id="g-float"),
        pytest.param(lambda d: d.update(group=[2.5]), "each group entry must be an integer, got 2.5", id="group-float"),
        pytest.param(
            lambda d: d.update(n=2, group=[2**40, 2**40], edges=[{"u": 1, "v": 2, "g": [2**39, 2**39]}]),
            f"group order {2**80} is too large", id="group-order-past-intp",
        ),
    ],
)
def test_cochain_rejects_malformed_edges(edit, message):
    f = random_cochain(4, SymmetricDistribution.uniform(Group((2,))), np.random.default_rng(55))
    d = cochain_to_json_dict(f)
    edit(d)
    with pytest.raises(ValueError, match=message):
        cochain_from_json_dict(d)


def test_cochain_huge_n_is_missing_edges_not_built():
    d = {"n": 10**9, "group": [2], "edges": [{"u": 1, "v": 2, "g": [1]}]}
    with pytest.raises(ValueError, match=r"missing edges, first: \(1, 3\)"):
        cochain_from_json_dict(d)


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


_GROUPS = st.sampled_from([(2,), (3,), (4,), (2, 2)]).map(Group)


@st.composite
def _kernels(draw, exact):
    """Random symmetric step kernels, exact (Fraction) or float."""
    group = draw(_GROUPS)
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    size = k * k * group.order
    if exact:
        measures = [Fraction(w, sum(weights)) for w in weights]
        nums = draw(st.lists(st.integers(-(10**30), 10**30), min_size=size, max_size=size))
        dens = draw(st.lists(st.integers(1, 10**12), min_size=size, max_size=size))
        cells = [Fraction(a, b) for a, b in zip(nums, dens)]
    else:
        measures = [w / sum(weights) for w in weights]
        cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size))
    vals = np.empty((k, k, group.order), dtype=object if exact else float)
    for idx, v in zip(np.ndindex(vals.shape), cells):
        vals[idx] = v
    return StepKernel(group, measures, mirror_canonical(group, vals))


@given(_kernels(exact=True))
def test_kernel_roundtrip_exact_property(W):
    back = kernel_from_json_dict(json.loads(dumps_json(kernel_to_json_dict(W))), exact=True)
    assert back.exact and back.group == W.group
    assert all(type(x) is Fraction for x in [*back.measures, *back.values.flat])
    assert np.array_equal(back.measures, W.measures)
    assert np.array_equal(back.values, W.values)
    # fraction strings are read exactly without --exact too
    assert np.array_equal(kernel_from_json_dict(kernel_to_json_dict(W)).values, W.values)


@given(_kernels(exact=False))
def test_kernel_roundtrip_float_property(W):
    back = kernel_from_json_dict(json.loads(dumps_json(kernel_to_json_dict(W))))
    assert not back.exact and back.group == W.group
    assert back.measures.tobytes() == W.measures.tobytes()
    assert back.values.tobytes() == W.values.tobytes()


_BAD_NUMBERS = st.sampled_from(
    [None, True, False, [], [0.5], {}, "", "abc", "1/0", "0/0", "1/2/3", "nan", "inf",
     float("nan"), float("inf"), -float("inf")]
)


@given(_kernels(exact=True), st.booleans(), st.booleans(), st.data())
def test_kernel_rejects_bad_number_anywhere(W, float_doc, exact, data):
    """A non-number, a malformed fraction or a non-finite number at any
    measure or value position raises ValueError, in float and exact mode."""
    doc = kernel_to_json_dict(W.to_float() if float_doc else W)
    if data.draw(st.booleans()):
        target, key = doc["part_measures"], data.draw(st.integers(0, W.k - 1))
    else:
        i, j = data.draw(st.integers(0, W.k - 1)), data.draw(st.integers(0, W.k - 1))
        target, key = doc["values"][i][j], data.draw(st.integers(0, W.group.order - 1))
    target[key] = data.draw(_BAD_NUMBERS)
    with pytest.raises(ValueError):
        kernel_from_json_dict(doc, exact=exact)


_BAD_SHAPES = st.sampled_from([None, 3, 0.5, "ab", {}, [], [[]], [None], [[None]], [[1.0]]])


@given(_kernels(exact=True), st.sampled_from(["measures", "values", "row", "cell"]), _BAD_SHAPES)
def test_kernel_rejects_bad_shape_anywhere(W, where, bad):
    doc = kernel_to_json_dict(W)
    if where == "measures":
        doc["part_measures"] = bad
    elif where == "values":
        doc["values"] = bad
    elif where == "row":
        doc["values"][0] = bad
    else:
        doc["values"][0][0] = bad
    with pytest.raises(ValueError):
        kernel_from_json_dict(doc)


@pytest.mark.parametrize("exact", [False, True])
def test_kernel_rejects_bool_where_it_keeps_symmetry(exact):
    """values[0][0][0] is its own mirror, so only the type check can reject it."""
    doc = kernel_to_json_dict(random_w00(Group((2,)), 2, np.random.default_rng(63), exact=exact))
    doc["values"][0][0][0] = True
    with pytest.raises(ValueError, match="True is not a JSON number or fraction string"):
        kernel_from_json_dict(doc, exact=exact)


@pytest.mark.parametrize("path", [("part_measures", 1), ("values", 0, 0, 0)])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_kernel_rejects_non_finite_float_among_fractions(path, bad):
    """Without exact mode the float stays a float while the "p/q" strings
    around it are read as Fractions; turning it into a Fraction names it."""
    doc = kernel_to_json_dict(random_w00(Group((2,)), 2, np.random.default_rng(64), exact=True))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValueError, match=f"number {bad!r} is not a finite fraction"):
        kernel_from_json_dict(doc)


def test_kernel_rejects_oversized_float_integer():
    W = random_kernel(Group((2,)), 2, np.random.default_rng(62))
    doc = kernel_to_json_dict(W)
    doc["values"][0][0][0] = 10**400
    with pytest.raises(ValueError, match="a 1329-bit integer does not fit a float"):
        kernel_from_json_dict(doc)
    doc["part_measures"] = ["1/2", "1/2"]
    assert kernel_from_json_dict(doc, exact=True).values[0, 0, 0] == 10**400


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


@pytest.mark.parametrize("triangles", [{}, [[1, 2, 3, 4]], [[1, 2]], ["123"], [{"u": 1, "v": 2, "w": 3}]])
def test_complex_rejects_triangles_that_are_not_triples(triangles):
    with pytest.raises(ValueError, match=r"triangles must be a JSON array of \[u, v, w\] vertex triples"):
        complex_from_json_dict({"n": 5, "triangles": triangles})


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


# ---------------------------------------------------------------------------
# property tests for the cochain and complex formats

@st.composite
def _cochains(draw):
    group = draw(_GROUPS)
    n = draw(st.integers(2, 7))
    m = n * (n - 1) // 2
    return Cochain(group, n, draw(st.lists(st.integers(0, group.order - 1), min_size=m, max_size=m)))


@st.composite
def _complexes(draw, min_faces=0):
    n = draw(st.integers(3, 8))
    tris = draw(st.lists(st.sampled_from(all_triangles(n)), min_size=min_faces, max_size=12, unique=True))
    return TwoComplex(n, tris)


# Wrong in every position of either format: no field takes any of these.
_BAD_JSON = st.sampled_from([None, True, False, 1.5, "x", "1", {}, [None], [1.5], ["1"]])


def _edit(doc, path, value):
    """Sets the entry of the nested doc at path to value."""
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@given(_cochains(), st.randoms(use_true_random=False))
def test_cochain_roundtrip_property(f, shuffle):
    doc = json.loads(dumps_json(cochain_to_json_dict(f)))
    shuffle.shuffle(doc["edges"])  # edges may come in any order
    back = cochain_from_json_dict(doc)
    assert back.group == f.group and back.n == f.n
    assert back.labels.tolist() == f.labels.tolist()


@given(_cochains(), st.data())
def test_cochain_rejects_bad_field_anywhere(f, data):
    """A wrong value or a missing key at any field is a ValueError."""
    doc = cochain_to_json_dict(f)
    i = data.draw(st.integers(0, len(doc["edges"]) - 1))
    path = data.draw(
        st.sampled_from(
            [("n",), ("group",), ("group", 0), ("edges",), ("edges", i),
             ("edges", i, "u"), ("edges", i, "v"), ("edges", i, "g"), ("edges", i, "g", 0)]
        )
    )
    if len(path) in (1, 3) and data.draw(st.booleans()):
        target = doc if len(path) == 1 else doc["edges"][i]
        del target[path[-1]]
    else:
        _edit(doc, path, data.draw(_BAD_JSON))
    with pytest.raises(ValueError):
        cochain_from_json_dict(doc)


@given(_complexes())
def test_complex_roundtrip_property(X):
    assert complex_from_json_dict(json.loads(dumps_json(complex_to_json_dict(X)))) == X


@given(_complexes(min_faces=1), st.data())
def test_complex_rejects_bad_field_anywhere(X, data):
    doc = complex_to_json_dict(X)
    i = data.draw(st.integers(0, X.num_faces - 1))
    path = data.draw(st.sampled_from([("n",), ("triangles",), ("triangles", i), ("triangles", i, 1)]))
    if len(path) == 1 and data.draw(st.booleans()):
        del doc[path[0]]
    else:
        _edit(doc, path, data.draw(_BAD_JSON))
    with pytest.raises(ValueError):
        complex_from_json_dict(doc)
