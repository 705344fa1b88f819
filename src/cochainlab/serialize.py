"""JSON readers and writers for the on-disk formats.

All loaders validate structure and the type invariants, raising ValueError
messages that name the violated invariant. Exact (Fraction) payloads are
encoded as strings like "1/3"; floats stay floats.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .cochains import Cochain
from .complexes import TwoComplex
from .graphons import StepKernel
from .groups import Group, SymmetricDistribution
from .homology import edge_list


def _num_to_json(v):
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


def _num_from_json(v, exact: bool):
    """A JSON number or fraction string: a Fraction when ``exact`` or when v
    is a string, else a float. Anything else (null, a bool, an array, an
    object) is rejected, not coerced."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"number {v!r} is not a JSON number or fraction string")
    if not (exact or isinstance(v, str)):
        try:
            return float(v)
        except OverflowError:  # a JSON integer past the float range
            raise ValueError(f"a {v.bit_length()}-bit integer does not fit a float") from None
    try:
        return Fraction(v)
    except (ZeroDivisionError, OverflowError, ValueError):  # "1/0"; Infinity or NaN read exactly
        raise ValueError(f"number {v!r} is not a finite fraction") from None


def _is_grid(raw, k: int) -> bool:
    """True when raw is a k x k JSON array of arrays (the value cells)."""
    return (
        isinstance(raw, list)
        and len(raw) == k
        and all(
            isinstance(row, list) and len(row) == k and all(isinstance(c, list) for c in row)
            for row in raw
        )
    )


def _int_from_json(v, field: str) -> int:
    """A JSON integer; a float such as 5.5 or 5.0, a bool or a string is
    rejected, not truncated or coerced."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{field} must be an integer, got {v!r}")
    return v


def _ints_from_json(v, field: str) -> list[int]:
    """A JSON array of integers (see _int_from_json)."""
    if not isinstance(v, list):
        raise ValueError(f"{field} must be a JSON array of integers, got {v!r}")
    return [_int_from_json(x, f"each {field} entry") for x in v]


# ---------------------------------------------------------------------------
# groups and distributions

def group_from_json(data) -> Group:
    """A group from its list of moduli, e.g. [2] or [3, 3]."""
    return Group(_ints_from_json(data, "group"))


def distribution_from_json(data) -> SymmetricDistribution:
    """{"group": [moduli...], "probs": {"label": p}}; a probability is a
    JSON number or a fraction string (read exactly)."""
    if not isinstance(data, dict) or "group" not in data or "probs" not in data:
        raise ValueError(
            'distribution JSON needs {"group": [moduli...], "probs": {"label": p}}'
        )
    group = group_from_json(data["group"])
    probs = data["probs"]
    if not isinstance(probs, dict):
        raise ValueError(f"probs must be a JSON object of label: probability, got {probs!r}")
    if len(probs) != group.order:
        raise ValueError(f"probs must give all {group.order} group elements, got {len(probs)}")
    vals = {}
    for label, p in probs.items():
        try:
            g = group.parse_label(label)
        except ValueError:
            example = "|".join(str(m - 1) for m in group.moduli)
            raise ValueError(
                f"probs label {label!r} is not a group element of {group}; "
                f"a label lists its residues joined by '|', such as {example!r}"
            ) from None
        try:
            vals[g] = _num_from_json(p, exact=False)
        except ValueError as exc:
            raise ValueError(f"probs[{label!r}]: {exc}") from None
    return SymmetricDistribution(group, vals)


# ---------------------------------------------------------------------------
# cochains

def cochain_to_json_dict(f: Cochain) -> dict:
    return {
        "n": f.n,
        "group": list(f.group.moduli),
        "edges": [
            {"u": u, "v": v, "g": list(f.group.element(int(f.labels[i])))}
            for i, (u, v) in enumerate(edge_list(f.n))
        ],
    }


def cochain_from_json_dict(data: dict) -> Cochain:
    try:
        n = _int_from_json(data["n"], "n")
        group = group_from_json(data["group"])
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"cochain JSON needs n, group, edges: {exc}") from exc
    if not isinstance(edges, list):
        raise ValueError(f"edges must be a JSON array, got {edges!r}")
    if n < 2:
        raise ValueError(f"cochain JSON needs n >= 2, got {n}")
    if group.order - 1 > np.iinfo(np.intp).max:  # labels are stored as intp element indices
        raise ValueError(
            f"group order {group.order} is too large: element indices must fit "
            f"a {np.iinfo(np.intp).bits}-bit integer"
        )
    labels = {}
    for item in edges:
        if not isinstance(item, dict) or not {"u", "v", "g"} <= item.keys():
            raise ValueError(f"each edge must be an object with u, v and g, got {item!r}")
        u, v = _int_from_json(item["u"], "u"), _int_from_json(item["v"], "v")
        if not (1 <= u < v <= n):
            raise ValueError(f"edge ({u}, {v}) violates 1 <= u < v <= n")
        if (u, v) in labels:
            raise ValueError(f"edge ({u}, {v}) listed twice")
        labels[(u, v)] = group.index(group.check(_ints_from_json(item["g"], "g")))
    if len(labels) < n * (n - 1) // 2:  # checked before the C(n,2) edge list is built
        pairs = ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))  # lazy, unlike combinations
        first = next(e for e in pairs if e not in labels)
        raise ValueError(f"cochain JSON is missing edges, first: {first}")
    return Cochain(group, n, [labels[e] for e in edge_list(n)])


# ---------------------------------------------------------------------------
# kernels

def kernel_to_json_dict(W: StepKernel) -> dict:
    return {
        "group": list(W.group.moduli),
        "part_measures": [_num_to_json(m) for m in W.measures],
        "values": [
            [[_num_to_json(W.values[i, j, g]) for g in range(W.group.order)] for j in range(W.k)]
            for i in range(W.k)
        ],
    }


def kernel_from_json_dict(data: dict, exact: bool = False) -> StepKernel:
    try:
        group = group_from_json(data["group"])
        raw_measures = data["part_measures"]
        raw = data["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"kernel JSON needs group, part_measures, values: {exc}") from exc
    if not isinstance(raw_measures, list):
        raise ValueError(f"part_measures must be a JSON array, got {raw_measures!r}")
    measures = [_num_from_json(m, exact) for m in raw_measures]
    k = len(measures)
    if not _is_grid(raw, k):
        raise ValueError("values must be a k x k x |G| array matching part_measures")
    vals = [
        [[_num_from_json(x, exact) for x in cell] for cell in row]
        for row in raw
    ]
    if any(len(cell) != group.order for row in vals for cell in row):
        raise ValueError(f"every value cell must list all {group.order} group elements")
    return StepKernel(group, measures, vals)  # validates symmetry and measures


# ---------------------------------------------------------------------------
# complexes

def complex_to_json_dict(X: TwoComplex) -> dict:
    return {"n": X.n, "triangles": [list(t) for t in X.triangles]}


def complex_from_json_dict(data: dict) -> TwoComplex:
    try:
        n = _int_from_json(data["n"], "n")
        triangles = data["triangles"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"complex JSON needs n and triangles: {exc}") from exc
    if not isinstance(triangles, list) or not all(isinstance(t, list) and len(t) == 3 for t in triangles):
        raise ValueError("triangles must be a JSON array of [u, v, w] vertex triples")
    return TwoComplex(n, triangles)


# ---------------------------------------------------------------------------
# files

def dump_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dumps_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
