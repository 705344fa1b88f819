"""Derandomized fuzz of the command line: bad argument shapes and small
malformed JSON files for homology, sample, the graphon subcommands and the
scans ez1-trend, betti-trend and layer-audit.

Every run must end in exit 0, 1 or 2 with no traceback: ``main`` turns the
errors it expects into exit 2, so any other exception escapes the call and
fails the test. Sizes stay small (n <= 12 where n is valid; the scans run
n <= 8 with at most 3 samples); certify is left out because it runs a fixed
suite, not input.
"""
import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cochainlab.cli import main
from cochainlab.graphons import random_w00
from cochainlab.groups import Group
from cochainlab.serialize import kernel_to_json_dict

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


# Each option: (valid values, bad values), or the format of the file it reads,
# or None for a switch.
BAD = ["x", "", "-1", "1e3"]
MODEL = {
    "--model": (["one-out", "lm", "hypertree"], ["bad"]),
    "--c": (["2", "0.5"], ["nan", "inf", "1e308", "0"] + BAD),
}
N_LISTS = (["3", "5,8", "6:8:2"], ["2", "0", "4,1", "3:8:0", "2.5"] + BAD)
SAMPLES = (["1", "3"], ["0", "-1", "2.5"] + BAD)
GROUP = (["2", "3", "2,2"], ["1", "0", "-2", "2,1", "2,,3", "2.5"] + BAD)
OPTIONS = {
    "homology": {"--in": "complex", "--p": (["2", "3", "1000003"], ["4", "1", "0"] + BAD), "--no-snf": None},
    "sample": {"--n": (["3", "5", "8"], ["2", "31", "100000", "0"] + BAD), **MODEL},
    "cutnorm": {"--in": "kernel"},
    "b": {"--in": "kernel"},
    "rate": {"--in": "kernel", "--nu": "nu"},
    "convolve": {"--in": "kernel", "--with": "kernel", "--exact": None},
    "fk": {"--in": "kernel", "--eps": (["0.2", "0.5"], ["0", "nan", "inf", "1e-300"] + BAD)},
    "ez1-trend": {"--n": N_LISTS, "--samples": SAMPLES, "--group": GROUP, **MODEL},
    "betti-trend": {
        "--n": N_LISTS,
        "--samples": SAMPLES,
        "--primes": (["2", "3", "2,3", "1000003"], ["4", "1", "0", "-3"] + BAD),
        "--include-mg": None,
        **MODEL,
    },
    "layer-audit": {
        "--n": (["3", "5", "8"], ["2", "0", "-1"] + BAD),
        "--samples": SAMPLES,
        "--group": GROUP,
        "--layers": (["1", "3", "10"], ["0", "-1"] + BAD),
    },
}
SCANS = {"ez1-trend", "betti-trend", "layer-audit"}
REQUIRED = {"--in", "--n", "--eps"}
# The scans' defaults (n up to 10, 100 or more samples) are past the fuzz's
# sizes, so their sizes are always given, and so is --seed: it follows them,
# and an "argv" fault that drops the last option never reaches them.
SCAN_REQUIRED = REQUIRED | {"--samples", "--seed"}
COMMON = {
    "--seed": (["7", str(2**70), "-1"], BAD),
    "--format": (["csv", "json"], ["xml"]),
    "--out": (["out.txt"], [".", "no/x"]),
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_cleanly_on_any_input(tmp_path, command, data):
    """One fault per run, so the input gets past the checks before it: a bad
    option value, a bad file, an extra token or a missing required option."""
    options = {**OPTIONS[command], **COMMON}
    fault = data.draw(st.sampled_from(["argv", *(f for f, v in options.items() if v is not None)]))
    argv = [command] if command in {"homology", "sample", *SCANS} else ["graphon", command]
    required = SCAN_REQUIRED if command in SCANS else REQUIRED
    for flag, values in options.items():
        broken = flag == fault
        if not (broken or flag in required or data.draw(st.booleans())):
            continue
        if values is None:
            argv.append(flag)
        elif isinstance(values, tuple):
            value = data.draw(st.sampled_from(values[broken]))
            argv += [flag, str(tmp_path / value) if flag == "--out" else value]
        else:
            path = tmp_path / f"{flag[2:]}.json"
            path.unlink(missing_ok=True)
            where = data.draw(st.sampled_from(["file"] * 8 + ["missing", "directory"])) if broken else "file"
            if where == "file":
                path.write_text(data.draw(json_files(values, broken)))
            argv += [flag, str(tmp_path if where == "directory" else path)]
    if fault == "argv":
        junk = data.draw(st.sampled_from(["--bogus", "extra", "--in", "drop"]))
        argv = argv[:-2] if junk == "drop" else argv + [junk]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
