"""Command line front end.

Subcommands: certify, ez1-trend, layer-audit, ldp-numerics, betti-trend,
sample, homology, graphon {cutnorm, b, rate, convolve, fk}. Every command
takes --seed and emits deterministic bytes: same seed, same output.
Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .complexes import (
    TwoComplex,
    sample_hypertree,
    sample_linial_meshulam,
    sample_one_out,
)
from .graphons import (
    CutNormTooLarge,
    b_functional,
    convolve,
    cut_norm,
    cut_norm_lower,
    entropy,
    rate_function,
)
from .groups import Group, SymmetricDistribution
from .homology import homology_report
from .lab import (
    ExperimentConfig,
    MODELS,
    Table,
    run_betti_trend,
    run_certification,
    run_ez1_trend,
    run_layer_audit,
    run_ldp_numerics,
)
from .lab.experiments import AUDIT_SLACK_TOL
from .regularity import fk_decompose
from .serialize import (
    complex_from_json_dict,
    complex_to_json_dict,
    distribution_from_json,
    dumps_json,
    kernel_from_json_dict,
    kernel_to_json_dict,
    load_json,
)


def _parse_group(text: str) -> Group:
    try:
        moduli = tuple(int(x) for x in text.split(","))
        return Group(moduli)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad group {text!r}: {e}")


# Every valid n lies in 3..1024 (C(n,2) <= MAX_BOUNDARY_EDGES), so a list
# longer than that range is rejected before a range is materialised.
MAX_INT_LIST = 1022


def _parse_ints(text: str) -> tuple[int, ...]:
    """Accepts '6,8,10' or a range '6:20:2' (stop inclusive)."""
    try:
        if ":" in text:
            parts = [int(x) for x in text.split(":")]
            start, stop = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 1
            values = range(start, stop + 1, step)
        else:
            values = [int(x) for x in text.split(",")]
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    if values[MAX_INT_LIST:]:  # a lazy slice: len() overflows past 2^63 values
        raise argparse.ArgumentTypeError(
            f"integer list {text!r} has more than {MAX_INT_LIST} values"
        )
    return tuple(values)


def _parse_c(text: str) -> float:
    """The LM face density constant: finite and >= 0 for every model, so a
    model that ignores c does not pass a value that LM would refuse."""
    try:
        c = float(text)
    except ValueError:
        c = math.nan
    if not (math.isfinite(c) and c >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0; got {text!r}")
    return c


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def cmd_certify(args) -> int:
    report = run_certification(seed=args.seed, quick=args.quick)
    _emit(report.table().render(args.format), args.out)
    return 0 if report.passed else 1


def cmd_ez1(args) -> int:
    cfg = ExperimentConfig(
        seed=args.seed,
        model=args.model,
        n_values=args.n,
        group=args.group,
        samples=args.samples,
        c=args.c,
    )
    _emit(run_ez1_trend(cfg).render(args.format), args.out)
    return 0


def cmd_layer_audit(args) -> int:
    cfg = ExperimentConfig(
        seed=args.seed,
        model="one-out",
        n_values=(args.n,),
        group=args.group,
        samples=args.samples,
        layers=args.layers,
    )
    table, audit = run_layer_audit(cfg)
    text = table.render(args.format)
    if args.format == "csv":
        lines = [f"# audit {k}={_fmt_audit(v)}" for k, v in sorted(audit.items())]
        text = text + "\n".join(lines) + "\n"
    else:
        import json as _json

        doc = table.to_json_dict()
        doc["audit"] = {k: _fmt_audit(v, raw=True) for k, v in audit.items()}
        text = _json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    if audit["audited"] and audit["min_slack"] is not None and audit["min_slack"] < -AUDIT_SLACK_TOL:
        return 1
    return 0


def _fmt_audit(v, raw: bool = False):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v if raw else repr(v)
    return v


def cmd_ldp(args) -> int:
    cfg = ExperimentConfig(
        seed=args.seed,
        group=args.group,
        samples=args.samples,
        n_values=(4,),
    )
    _emit(run_ldp_numerics(cfg).render(args.format), args.out)
    return 0


def cmd_betti(args) -> int:
    cfg = ExperimentConfig(
        seed=args.seed,
        model=args.model,
        n_values=args.n,
        primes=tuple(args.primes),
        samples=args.samples,
        include_mg=args.include_mg,
        c=args.c,
    )
    _emit(run_betti_trend(cfg).render(args.format), args.out)
    return 0


def cmd_sample(args) -> int:
    rng = np.random.default_rng([args.seed & 0x7FFFFFFF, 1])
    if args.model == "one-out":
        X = sample_one_out(args.n, rng)
    elif args.model == "lm":
        X = sample_linial_meshulam(args.n, args.c, rng)
    else:
        X = sample_hypertree(args.n, rng)
    if args.format == "json":
        _emit(dumps_json(complex_to_json_dict(X)), args.out)
    else:
        t = Table(["u", "v", "w"])
        for tri in X.triangles:
            t.add(*tri)
        _emit(t.to_csv(), args.out)
    return 0


def cmd_homology(args) -> int:
    X = complex_from_json_dict(load_json(args.infile))
    report = homology_report(X, p=args.p, include_snf=not args.no_snf)
    if args.format == "json":
        _emit(dumps_json(report.to_json_dict()), args.out)
    else:
        d = report.to_json_dict()
        cols = sorted(d)
        t = Table(cols)
        t.add(*[_scalarize(d[c]) for c in cols])
        _emit(t.to_csv(), args.out)
    return 0


def _scalarize(v):
    if isinstance(v, (list, tuple)):
        return " ".join(str(x) for x in v)
    return v


def _load_kernel(path: str, exact: bool = False):
    return kernel_from_json_dict(load_json(path), exact=exact)


def cmd_graphon_cutnorm(args) -> int:
    W = _load_kernel(args.infile)
    try:
        value = cut_norm(W)
        exact = True
    except CutNormTooLarge:
        value = cut_norm_lower(W, np.random.default_rng([args.seed & 0x7FFFFFFF, 3]))
        exact = False
    t = Table(["cut_norm", "exact"])
    t.add(value, exact)
    _emit(t.render(args.format), args.out)
    return 0


def cmd_graphon_b(args) -> int:
    W = _load_kernel(args.infile)
    t = Table(["b", "entropy", "b_plus_entropy"])
    bv = b_functional(W)
    ev = entropy(W)
    t.add(bv, ev, bv + ev)
    _emit(t.render(args.format), args.out)
    return 0


def _load_nu(args, W):
    if getattr(args, "nu", None):
        return distribution_from_json(load_json(args.nu))
    return SymmetricDistribution.uniform(W.group)


def cmd_graphon_rate(args) -> int:
    W = _load_kernel(args.infile)
    nu = _load_nu(args, W)
    t = Table(["rate"])
    t.add(rate_function(W, nu))
    _emit(t.render(args.format), args.out)
    return 0


def cmd_graphon_convolve(args) -> int:
    V = _load_kernel(args.infile, exact=args.exact)
    W = _load_kernel(args.with_file, exact=args.exact) if args.with_file else None
    out = convolve(V, W)
    _emit(dumps_json(kernel_to_json_dict(out)), args.out)
    return 0


def cmd_graphon_fk(args) -> int:
    W = _load_kernel(args.infile)
    res = fk_decompose(W, args.eps, np.random.default_rng([args.seed & 0x7FFFFFFF, 5]))
    if args.format == "json":
        _emit(res.to_json() + "\n", args.out)
    else:
        t = Table(["round", "slice", "box_integral", "energy_after", "parts"])
        for row in res.trace:
            t.add(row["round"], row["slice"], row["box_integral"], row["energy_after"], row["parts"])
        summary = (
            f"# rounds={res.rounds} parts={res.partition.num_parts}"
            f" threshold={res.threshold!r} residual={res.residual!r}"
            f" certified={str(res.residual_certified).lower()}\n"
        )
        _emit(t.to_csv() + summary, args.out)
    return 0


# Options match only when spelled in full: with prefix matching,
# betti-trend --in read as --include-mg, and a later option sharing a prefix
# would change what an existing command line means.
_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


def build_parser() -> argparse.ArgumentParser:
    ap = _parser(prog="cochainlab")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_parser)

    p = sub.add_parser("certify", help="run the certification suite")
    _common(p)
    p.add_argument("--quick", action="store_true", help="cap enumeration at n=5")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("ez1-trend", help="normalized log mean cocycle count vs n")
    _common(p)
    p.add_argument("--model", choices=MODELS, default="one-out")
    p.add_argument("--n", type=_parse_ints, default=(6, 8, 10))
    p.add_argument("--group", type=_parse_group, default=Group((2,)))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--c", type=_parse_c, default=2.0, help="lm face density constant")
    p.set_defaults(fn=cmd_ez1)

    p = sub.add_parser("layer-audit", help="bucket random labelings by their b value")
    _common(p)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--group", type=_parse_group, default=Group((2,)))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--layers", type=int, default=10)
    p.set_defaults(fn=cmd_layer_audit)

    p = sub.add_parser("ldp-numerics", help="MGF gaps, duality, Gibbs checks")
    _common(p)
    p.add_argument("--group", type=_parse_group, default=Group((2,)))
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=cmd_ldp)

    p = sub.add_parser("betti-trend", help="quantiles of dim H^1 over F_p vs n")
    _common(p)
    p.add_argument("--model", choices=MODELS, default="one-out")
    p.add_argument("--n", type=_parse_ints, default=(6, 8, 10))
    p.add_argument("--primes", type=_parse_ints, default=(2,))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--include-mg", action="store_true", default=False)
    p.add_argument("--c", type=_parse_c, default=2.0)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("sample", help="draw one random complex")
    _common(p)
    p.add_argument("--model", choices=MODELS, default="one-out")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=_parse_c, default=2.0)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("homology", help="homology report for a complex JSON file")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=int, default=None, help="prime for mod-p ranks")
    p.add_argument("--no-snf", action="store_true")
    p.set_defaults(fn=cmd_homology)

    g = sub.add_parser("graphon", help="kernel operations")
    gsub = g.add_subparsers(dest="graphon_command", required=True, parser_class=_parser)

    p = gsub.add_parser("cutnorm")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_graphon_cutnorm)

    p = gsub.add_parser("b")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_graphon_b)

    p = gsub.add_parser("rate")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--nu", default=None)
    p.set_defaults(fn=cmd_graphon_rate)

    p = gsub.add_parser("convolve")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--with", dest="with_file", default=None)
    p.add_argument("--exact", action="store_true", help="rational arithmetic")
    p.set_defaults(fn=cmd_graphon_convolve)

    p = gsub.add_parser("fk")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(fn=cmd_graphon_fk)

    return ap


def _check_out(out: str | None) -> None:
    """A --out that cannot be written fails before the command's work; the
    file itself is opened only by _emit, once the command has succeeded."""
    if not out:
        return
    if os.path.isdir(out):
        raise ValueError(f"--out {out!r} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {out!r}: parent directory {parent!r} does not exist")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except (OSError, ValueError, KeyError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
