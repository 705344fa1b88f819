"""Derandomized fuzz of the command line: bad argument shapes and small
malformed JSON files for homology, sample, the graphon subcommands, the
scans ez1-trend, betti-trend, layer-audit and ldp-numerics, and certify's
options.

Every run must end in exit 0, 1 or 2 with no traceback: ``main`` turns the
errors it expects into exit 2, so any other exception escapes the call and
fails the test. A fault that is bad in every context must exit 2: a value
from an option's bad list, a missing or unreadable file, one that its
format's reader refuses, and junk or a missing required option in argv.
Sizes stay small (n <= 12 where n is valid; the scans run
n <= 8 with at most 3 samples). certify runs a fixed suite, about 2 s with
--quick, so it gets a few examples over its common options only.
"""
import contextlib
import copy
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cochainlab.cli import main
from cochainlab.graphons import random_w00
from cochainlab.groups import MAX_TABLE_ORDER, Group
from cochainlab.lab.config import MAX_LAYERS, ExperimentConfig
from cochainlab.lab.experiments import MAX_AUDIT_CELLS
from cochainlab.serialize import (
    complex_from_json_dict,
    distribution_from_json,
    kernel_from_json_dict,
    kernel_to_json_dict,
)

VALID_DOCS = {
    "complex": [{"n": 5, "triangles": [[1, 2, 3], [1, 2, 4], [2, 3, 4]]}],
    "kernel": [
        kernel_to_json_dict(random_w00(Group((2,)), 2, np.random.default_rng(1))),
        kernel_to_json_dict(random_w00(Group((3,)), 2, np.random.default_rng(2), exact=True)),
    ],
    "nu": [
        {"group": [2], "probs": {"0": "1/3", "1": "2/3"}},
        {"group": [3], "probs": {"0": 0.5, "1": 0.25, "2": 0.25}},
    ],
}
KEYS = ["n", "triangles", "group", "part_measures", "values", "probs", "0", "1", "2"]
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-2, 2)
    | st.sampled_from([float("nan"), float("inf"), 10**30, "1/2", "1/0", "0|1", "x", ""])
)
JSON_VALUES = st.recursive(
    LEAVES, lambda c: st.lists(c, max_size=3) | st.dictionaries(st.sampled_from(KEYS), c, max_size=3), max_leaves=8
)


@st.composite
def json_files(draw, kind, broken):
    """File contents for a flag that reads format ``kind``: a valid document,
    or when ``broken`` one of that format or another with one or two random
    edits, a random JSON value, or text that is not JSON."""
    source = draw(st.sampled_from([kind] * 6 + ["other", "random", "text"])) if broken else "valid"
    if source == "text":
        return draw(st.sampled_from(["", "{", "[1, 2", "nul", "\x00"]))
    if source == "random":
        return json.dumps(draw(JSON_VALUES))
    kinds = [k for k in VALID_DOCS if k != kind] if source == "other" else [kind]
    doc = copy.deepcopy(draw(st.sampled_from([d for k in kinds for d in VALID_DOCS[k]])))
    for _ in range(draw(st.integers(1, 2)) if broken else 0):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        elif parent is not None:
            parent[key] = draw(JSON_VALUES)
    return json.dumps(doc)


# Each option: (valid values, bad values, values bad only in some contexts),
# or the format of the file it reads, or None for a switch. A bad value must
# exit 2; a context-dependent one may exit 0: --seed -1 is a valid seed, a
# sample of n = 51 passes the caps of one-out and LM but not hypertree's, and
# a --c above n is refused by LM alone (c/n is its face probability).
BAD = ["x", "", "-1", "1e3"]
MODEL = {
    "--model": (["one-out", "lm", "hypertree"], ["bad"], []),
    "--c": (["2", "0.5", "0"], ["nan", "inf", "-inf"] + BAD[:3], ["1e3", "1e308"]),
}
N_LISTS = (["3", "5,8", "6:8:2"], ["2", "0", "4,1", "3:8:0", "2.5"] + BAD, [])
SAMPLES = (["1", "3"], ["0", "-1", "2.5"] + BAD, [])
GROUP = (["2", "3", "2,2"], ["1", "0", "-2", "2,1", "2,,3", "2.5"] + BAD, [])
# the scans that build the group's addition table also reject an order past it
TABLE_GROUP = (GROUP[0], GROUP[1] + ["100000"], [])
OPTIONS = {
    "homology": {"--in": "complex", "--p": (["2", "3", "1000003"], ["4", "1", "0"] + BAD, []), "--no-snf": None},
    "sample": {"--n": (["3", "5", "8"], ["2", "100000", "0"] + BAD, ["51"]), **MODEL},
    "cutnorm": {"--in": "kernel"},
    "b": {"--in": "kernel"},
    "rate": {"--in": "kernel", "--nu": "nu"},
    "convolve": {"--in": "kernel", "--with": "kernel", "--exact": None},
    # every kernel is eps-regular past its largest box, so a large eps is valid
    "fk": {"--in": "kernel", "--eps": (["0.2", "0.5", "1e3"], ["0", "nan", "inf", "1e-300"] + BAD[:3], [])},
    "ez1-trend": {"--n": N_LISTS, "--samples": SAMPLES, "--group": GROUP, **MODEL},
    "betti-trend": {
        "--n": N_LISTS,
        "--samples": SAMPLES,
        "--primes": (["2", "3", "2,3", "1000003"], ["4", "1", "0", "-3"] + BAD, []),
        "--include-mg": None,
        **MODEL,
    },
    "layer-audit": {
        "--n": (["3", "5", "8"], ["2", "0", "-1", "100000"] + BAD, []),
        "--samples": SAMPLES,
        "--group": TABLE_GROUP,
        "--layers": (["1", "3", "10"], ["0", "-1", "2000000000"] + BAD, []),
    },
    "ldp-numerics": {"--samples": SAMPLES, "--group": TABLE_GROUP},
}
SCANS = {"ez1-trend", "betti-trend", "layer-audit", "ldp-numerics"}
REQUIRED = {"--in", "--n", "--eps"}
# The scans' defaults (n up to 10, 100 or more samples) are past the fuzz's
# sizes, so their sizes are always given, and so is --seed: it follows them,
# and an "argv" fault that drops the last option never reaches them.
SCAN_REQUIRED = REQUIRED | {"--samples", "--seed"}
COMMON = {
    "--seed": (["7", str(2**70), "-1"], ["x", "", "1e3"], ["-1"]),
    "--format": (["csv", "json"], ["xml"], []),
    "--out": (["out.txt"], [".", "no/x"], []),
}
READERS = {"complex": complex_from_json_dict, "kernel": kernel_from_json_dict, "nu": distribution_from_json}


def _refused(kind, text):
    """Whether the reader of format ``kind`` refuses the file contents."""
    try:
        READERS[kind](json.loads(text))
    except (ValueError, KeyError, ArithmeticError):
        return True
    return False


def _plain_argv(tmp_path, command):
    """``command`` with its required options alone, each at its first valid
    value or with the first valid document of its format."""
    argv = [command] if command in {"homology", "sample", *SCANS} else ["graphon", command]
    required = SCAN_REQUIRED if command in SCANS else REQUIRED
    for flag, values in {**OPTIONS[command], **COMMON}.items():
        if flag in required and isinstance(values, tuple):
            argv += [flag, values[0][0]]
        elif flag in required:
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(VALID_DOCS[values][0]))
            argv += [flag, str(path)]
    return argv


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), junk=st.none())
# a trailing --in or --seed on every command, which 150 drawn examples can
# miss: a parser that matched option prefixes read betti-trend --in as
# --include-mg and exited 0
@example(data=None, junk="--in")
@example(data=None, junk="--seed")
def test_cli_exits_cleanly_on_any_input(tmp_path, command, data, junk):
    """One fault per run, so the input gets past the checks before it: a bad
    option value, a bad file, an extra token or a missing required option.
    An explicit example has no data: it appends its junk token to the
    command and its required options, and must exit 2."""
    if data is None:
        argv = _plain_argv(tmp_path, command) + [junk]
        code, err = _run(argv)
        assert code == 2, (argv, code)
        assert "Traceback" not in err, argv
        return
    options = {**OPTIONS[command], **COMMON}
    fault = data.draw(st.sampled_from(["argv", *(f for f, v in options.items() if v is not None)]))
    argv = [command] if command in {"homology", "sample", *SCANS} else ["graphon", command]
    required = SCAN_REQUIRED if command in SCANS else REQUIRED
    bad = fault == "argv"
    for flag, values in options.items():
        broken = flag == fault
        if not (broken or flag in required or data.draw(st.booleans())):
            continue
        if values is None:
            argv.append(flag)
        elif isinstance(values, tuple):
            value = data.draw(st.sampled_from(values[1] + values[2] if broken else values[0]))
            bad |= broken and value in values[1]
            argv += [flag, str(tmp_path / value) if flag == "--out" else value]
        else:
            path = tmp_path / f"{flag[2:]}.json"
            path.unlink(missing_ok=True)
            where = data.draw(st.sampled_from(["file"] * 8 + ["missing", "directory"])) if broken else "file"
            if where == "file":
                path.write_text(text := data.draw(json_files(values, broken)))
            bad |= broken and (where != "file" or _refused(values, text))
            argv += [flag, str(tmp_path if where == "directory" else path)]
    if fault == "argv":
        # a trailing --seed or --in lacks its value, or names no option of the command;
        # the scans have no required option to drop
        junk = data.draw(st.sampled_from(["--bogus", "extra", "--seed", "--in"] + ["drop"] * (command not in SCANS)))
        if junk == "drop":
            i = next(i for i, token in enumerate(argv) if token in REQUIRED)
            del argv[i : i + 2]
        else:
            argv.append(junk)
    code, err = _run(argv)
    assert code in ((2,) if bad else (0, 1, 2)), (argv, code)
    assert "Traceback" not in err, argv


def _run(argv):
    """(exit code, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("out", [None, "out.txt", ".", "no/x"])
@settings(max_examples=3, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_certify_exits_cleanly_on_any_options(tmp_path, out, data):
    """certify --quick with a drawn --seed and --format, at most one of them
    bad, and an --out that is absent, a file, a directory or a path under a
    missing parent; the last two exit 2 before the suite runs."""
    fault = data.draw(st.sampled_from([None, "--seed", "--format"]))
    argv = ["certify", "--quick"]
    for flag in ("--seed", "--format"):
        broken = flag == fault
        if broken or data.draw(st.booleans()):
            argv += [flag, data.draw(st.sampled_from(COMMON[flag][broken]))]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    code, err = _run(argv)
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err, argv
    if out in COMMON["--out"][1]:
        assert code == 2 and err.startswith(("error: ", "usage: ")), argv


def test_layer_audit_layers_capped_before_allocation():
    assert ExperimentConfig(seed=0, layers=MAX_LAYERS).layers == MAX_LAYERS
    with pytest.raises(ValueError, match=f"layers must be <= MAX_LAYERS = {MAX_LAYERS}"):
        ExperimentConfig(seed=0, layers=MAX_LAYERS + 1)
    code, err = _run(["layer-audit", "--n", "8", "--samples", "1", "--layers", "2000000000"])
    assert code == 2
    assert err == f"error: layers must be <= MAX_LAYERS = {MAX_LAYERS}; got 2000000000\n"


def _peak_bytes(argv):
    """(exit code, stderr, peak bytes traced) of one in-process CLI run."""
    tracemalloc.start()
    try:
        code, err = _run(argv)
        return code, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["layer-audit", "--n", "100000"],
            "random cochain needs C(n,2) <= 524288 edges; n = 100000 has 4999950000",
        ),
        (
            ["layer-audit", "--n", "8", "--group", "100000"],
            f"addition table needs group order <= {MAX_TABLE_ORDER}; Z/100000 has 100000",
        ),
        (
            ["ldp-numerics", "--group", "100000"],
            f"addition table needs group order <= {MAX_TABLE_ORDER}; Z/100000 has 100000",
        ),
        (
            ["layer-audit", "--n", "1024", "--group", "512"],
            f"layer audit needs n^2 * |G| <= {MAX_AUDIT_CELLS} kernel cells; n = 1024 over Z/512 has 536870912",
        ),
    ],
)
def test_scan_sizes_capped_before_allocation(argv, message):
    # C(100000, 2) labels are 40 GB and a Z/100000 addition table 80 GB; the
    # |G|-sized kernels ldp-numerics builds before its first b value are 3 GB,
    # and each n x n x |G| array of a layer audit at n = 1024 over Z/512 4 GB
    code, err, peak = _peak_bytes(argv + ["--samples", "1"])
    assert code == 2
    assert err == f"error: {message}\n"
    assert peak < 5 * 2**20, peak
    with pytest.raises(ValueError, match=f"group order <= {MAX_TABLE_ORDER}; Z/{MAX_TABLE_ORDER + 1} "):
        Group((MAX_TABLE_ORDER + 1,)).add_table
