"""Spans around the program's layer functions, recorded from outside ``src/``.

``Tracer.installed()`` replaces each traced function in every ``cochainlab``
module that holds it, because the modules import each other's functions by
name: ``complexes`` calls its own global ``bareiss_det``, ``regularity`` its
own ``max_box_exact``. A span records its name, start, end, parent span and
replicate id, plus computed work counts taken from the arguments or the
result. Spans stay in memory until ``write`` at the end of the run.

``summarize`` turns the spans into the per-layer metrics of one job: set-up
spans once plus the replicate spans scaled from the passes run to the job's.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
import time

import numpy as np

from cochainlab import cochains, complexes, graphons, homology, regularity


# Work counts are computed from shapes, never measured; they repeat exactly.
def _build_kernel_attrs(args, kwargs, result):
    faces = len(result.triangles)
    return {"kernel_bytes": faces * faces * 8}


def _sample_hypertree_attrs(args, kwargs, result):
    faces = math.comb(result.n, 3)
    return {"update_flop": 2 * faces * faces * result.num_faces}


def _sample_one_out_attrs(args, kwargs, result):
    return {"distinct": result.num_faces, "draws": math.comb(result.n, 2)}


def _bareiss_attrs(args, kwargs, result):
    return {"order": len(args[0]), "bits": abs(result).bit_length()}


def _smith_attrs(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"cells": rows * cols}


def _max_box_attrs(args, kwargs, result):
    return {"masks": 2 ** args[0].shape[0]}


def _fk_attrs(args, kwargs, result):
    return {"rounds": result.rounds}


def _rank_variant(args, kwargs):
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    return "p2" if p == 2 else "odd"


def _convolve_variant(args, kwargs):
    return "exact" if args[0].exact else "float"


# (module, function, variant(args, kwargs) -> suffix, attrs(args, kwargs, result) -> dict)
TRACED = (
    (complexes, "build_kernel", None, _build_kernel_attrs),
    (complexes, "sample_hypertree", None, _sample_hypertree_attrs),
    (complexes, "sample_one_out", None, _sample_one_out_attrs),
    (complexes, "exact_kernel", None, None),
    (complexes, "avoidance_probability_exact", None, None),
    (homology, "boundary_matrices", None, None),
    (homology, "rank_mod_p", _rank_variant, None),
    (homology, "smith_normal_form", None, _smith_attrs),
    (homology, "bareiss_det", None, _bareiss_attrs),
    (cochains, "random_cochain", None, None),
    (cochains, "cocycle_triangles", None, None),
    (cochains, "embed_graphon", None, None),
    (graphons, "b_functional", None, None),
    (graphons, "convolve", _convolve_variant, None),
    (graphons, "cut_norm", None, None),
    (graphons, "max_box_exact", None, _max_box_attrs),
    (graphons, "rate_function", None, None),
    (graphons, "dual_maximize", None, None),
    (regularity, "fk_decompose", None, _fk_attrs),
)
VARIANTS = {"rank_mod_p": ("p2", "odd"), "convolve": ("exact", "float")}
SPAN_NAMES = frozenset(
    f"{module.__name__.rsplit('.', 1)[-1]}.{attr}{suffix}"
    for module, attr, _, _ in TRACED
    for suffix in ([f".{v}" for v in VARIANTS[attr]] if attr in VARIANTS else [""])
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "replicate", "attrs")

    def __init__(self, name, parent, replicate):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.replicate = replicate
        self.attrs = {}


class Tracer:
    """Single-threaded span recorder; ``replicate`` is set by the pass loop
    (``None`` during set-up)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.replicate = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, variant, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{variant(args, kwargs)}" if variant else name
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, parent, self.replicate)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.attrs["error"] = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if attrs:
                    span.attrs.update(attrs(args, kwargs, result))
                return result
            finally:
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every cochainlab module attribute bound to a traced function;
        restore them on exit."""
        patched = []
        try:
            for module, attr, variant, attrs in TRACED:
                original = getattr(module, attr)
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self._wrap(name, original, variant, attrs)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "cochainlab" and getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "replicate": s.replicate,
                    **s.attrs,
                }
                fh.write(json.dumps(row) + "\n")


def summarize(spans: list[Span], job_passes: int, passes: int, job_s: float, names) -> dict[str, float]:
    """The per-layer metrics ``names`` for one job: the set-up spans plus the
    replicate spans of ``passes`` passes scaled to the job's ``job_passes``.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.p50_ms`` work for every
    span name; the computed counts and ratios are listed below. ``job_s`` is
    the traced job time, of which ``trace.unattributed_s`` lies in no span.
    ``trace.overhead_ratio`` needs the untraced passes and is left to the caller.
    """
    dur = [s.end - s.start for s in spans]
    own = dur[:]
    under_fk = [False] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):  # a parent precedes its children
        by_name.setdefault(s.name, []).append(i)
        if s.parent is not None:
            own[s.parent] -= dur[i]
            under_fk[i] = under_fk[s.parent] or spans[s.parent].name == "regularity.fk_decompose"

    def per_job(indices, value) -> float:
        setup = sum(value(i) for i in indices if spans[i].replicate is None)
        run = sum(value(i) for i in indices if spans[i].replicate is not None)
        return setup + run * job_passes / passes  # exact for integer counts

    def attr_sum(name, attr):
        return per_job(by_name.get(name, ()), lambda i: spans[i].attrs.get(attr, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    computed = {
        "complexes.build_kernel.kernel_mb": lambda: attr_sum("complexes.build_kernel", "kernel_bytes") / 1e6,
        "complexes.sample_hypertree.update_gflop": lambda: attr_sum("complexes.sample_hypertree", "update_flop") / 1e9,
        "complexes.sample_hypertree.guard_trips": lambda: per_job(
            by_name.get("complexes.sample_hypertree", ()),
            lambda i: spans[i].attrs.get("error") == "ArithmeticError",
        ),
        "complexes.sample_one_out.distinct_ratio": lambda: ratio(
            attr_sum("complexes.sample_one_out", "distinct"), attr_sum("complexes.sample_one_out", "draws")
        ),
        "homology.smith_normal_form.cells": lambda: attr_sum("homology.smith_normal_form", "cells"),
        "homology.bareiss_det.order_sum": lambda: attr_sum("homology.bareiss_det", "order"),
        "homology.bareiss_det.max_bits": lambda: max(
            (spans[i].attrs.get("bits", 0) for i in by_name.get("homology.bareiss_det", ())), default=0
        ),
        "graphons.max_box_exact.masks": lambda: attr_sum("graphons.max_box_exact", "masks"),
        "regularity.fk_decompose.rounds": lambda: attr_sum("regularity.fk_decompose", "rounds"),
        "regularity.fk_decompose.oracle_calls": lambda: per_job(
            by_name.get("graphons.max_box_exact", ()), lambda i: under_fk[i]
        ),
        "regularity.fk_decompose.accept_ratio": lambda: ratio(
            computed["regularity.fk_decompose.rounds"](), computed["regularity.fk_decompose.oracle_calls"]()
        ),
        "trace.unattributed_s": lambda: job_s - per_job(range(len(spans)), lambda i: own[i]),
    }
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            continue
        if name in computed:
            out[name] = float(computed[name]())
            continue
        span_name, stat = name.rsplit(".", 1)
        if span_name not in SPAN_NAMES:
            raise KeyError(f"no traced function {span_name!r}")
        idx = by_name.get(span_name, ())
        if stat == "calls":
            out[name] = per_job(idx, lambda i: 1)
        elif stat == "self_s":
            out[name] = per_job(idx, lambda i: own[i])
        elif stat == "p50_ms":
            out[name] = statistics.median(dur[i] * 1e3 for i in idx) if idx else 0.0
        else:
            raise KeyError(f"no per-layer metric {name!r}")
        out[name] = float(out[name])
    return out
