import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cochainlab.cli import main
from cochainlab.graphons import random_kernel, random_w00
from cochainlab.groups import Group
from cochainlab.serialize import dump_json, kernel_to_json_dict


@pytest.fixture
def kernel_file(tmp_path):
    W = random_w00(Group((2,)), 4, np.random.default_rng(70))
    p = tmp_path / "w.json"
    dump_json(kernel_to_json_dict(W), str(p))
    return str(p)


def run(argv):
    return main(argv)


def test_certify_quick_exits_zero(tmp_path, capsys):
    out = tmp_path / "cert.csv"
    assert run(["certify", "--quick", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("check,passed,")
    assert all(",true," in line for line in lines[1:])


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit):
        run(["frobnicate"])  # argparse exits on its own for unknown commands


def test_missing_input_file_exits_two(capsys):
    assert run(["homology", "--in", "/nonexistent/x.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_homology_rejects_oversized_n(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 100000, "triangles": []}))
    assert run(["homology", "--in", str(path)]) == 2
    assert "C(n,2) <= 524288 edge rows; n = 100000" in capsys.readouterr().err


@pytest.mark.parametrize("n", [5.5, 5.0, True, "5"])
def test_homology_rejects_non_integer_n(tmp_path, capsys, n):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"n": n, "triangles": [[1, 2, 3]]}))
    assert run(["homology", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: n must be an integer, got {n!r}" in err
    assert "Traceback" not in err


def test_long_n_range_exits_two_before_it_is_built(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(["ez1-trend", "--model", "lm", "--n", "6:100000000:1"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "integer list '6:100000000:1' has more than 1022 values" in err
    assert "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        run(["betti-trend", "--n", "3:1025", "--samples", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ez1-trend", "--n", "5:3"],
        ["betti-trend", "--n", "6:10:-1"],
        ["betti-trend", "--primes", "7:5"],
    ],
)
def test_empty_integer_list_exits_two(argv, capsys):
    # these printed a bare CSV header and exited 0
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--samples", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"integer list {argv[-1]!r} is empty" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "model, bound",
    [
        ("one-out", "one-out sampler needs C(n,2) <= 524288 edges; n = 100000"),
        ("lm", "Linial-Meshulam sampler needs C(n,3) <= 1048576 triangles; n = 100000"),
    ],
)
def test_sample_rejects_oversized_n(model, bound, capsys):
    assert run(["sample", "--model", model, "--n", "100000"]) == 2
    err = capsys.readouterr().err
    assert bound in err
    assert "Traceback" not in err


def test_arithmetic_error_exits_two(tmp_path, monkeypatch, capsys):
    import cochainlab.cli as cli

    def fail(*args, **kwargs):
        raise ArithmeticError("conditioned trace 2.5 drifted from remaining rank 3")

    monkeypatch.setattr(cli, "homology_report", fail)
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"n": 4, "triangles": [[1, 2, 3]]}))
    assert run(["homology", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: conditioned trace 2.5 drifted from remaining rank 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("out", [".", "missing/x"])
@pytest.mark.parametrize(
    "argv",
    [["certify", "--quick"], ["betti-trend", "--n", "6", "--samples", "2"]],
    ids=["certify", "betti-trend"],
)
def test_unwritable_out_exits_before_the_work(tmp_path, monkeypatch, capsys, argv, out):
    # --out a directory, or under a missing one: exit 2 naming the path, and
    # neither the suite nor the sampler ever runs
    import cochainlab.cli as cli
    import cochainlab.lab.experiments as experiments

    def no_work(*args, **kwargs):
        raise AssertionError("ran the command before checking --out")

    monkeypatch.setattr(cli, "run_certification", no_work)
    monkeypatch.setattr(experiments, "sample_one_out", no_work)
    path = str(tmp_path / out)
    assert run(argv + ["--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and repr(path) in err, err


def test_failing_command_leaves_existing_out_untouched(tmp_path, capsys):
    out = tmp_path / "report.csv"
    out.write_text("kept\n")
    assert run(["homology", "--in", str(tmp_path / "absent.json"), "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert "Traceback" not in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["layer-audit", "--n", "5", "--samples", "5"]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "cochainlab", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_sample_deterministic_csv(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["sample", "--model", "one-out", "--n", "7", "--seed", "3", "--out", str(a)]) == 0
    assert run(["sample", "--model", "one-out", "--n", "7", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text().startswith("u,v,w\n")
    c = tmp_path / "c.csv"
    assert run(["sample", "--model", "one-out", "--n", "7", "--seed", "4", "--out", str(c)]) == 0
    assert c.read_text() != a.read_text()


def test_sample_json_then_homology(tmp_path):
    x = tmp_path / "x.json"
    assert run(["sample", "--model", "hypertree", "--n", "6", "--seed", "1",
                "--format", "json", "--out", str(x)]) == 0
    doc = json.loads(x.read_text())
    assert doc["n"] == 6
    assert len(doc["triangles"]) == 10
    rep = tmp_path / "rep.json"
    assert run(["homology", "--in", str(x), "--format", "json", "--out", str(rep)]) == 0
    d = json.loads(rep.read_text())
    assert d["num_faces"] == 10
    assert d["torsion_order"] >= 1


def test_homology_csv_format(tmp_path):
    x = tmp_path / "x.json"
    run(["sample", "--model", "one-out", "--n", "5", "--seed", "2",
         "--format", "json", "--out", str(x)])
    rep = tmp_path / "rep.csv"
    assert run(["homology", "--in", str(x), "--p", "2", "--out", str(rep)]) == 0
    header = rep.read_text().split("\n")[0]
    assert "torsion_order" in header


def test_graphon_cutnorm(kernel_file, tmp_path):
    out = tmp_path / "c.csv"
    assert run(["graphon", "cutnorm", "--in", kernel_file, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "cut_norm,exact"
    val, exact = lines[1].split(",")
    assert float(val) >= 0
    assert exact == "true"


def test_graphon_b_and_rate(kernel_file, tmp_path):
    out = tmp_path / "b.csv"
    assert run(["graphon", "b", "--in", kernel_file, "--out", str(out)]) == 0
    header, row = out.read_text().strip().split("\n")
    assert header == "b,entropy,b_plus_entropy"
    b, h, s = (float(x) for x in row.split(","))
    assert s <= 1e-9  # variational upper bound at work
    out2 = tmp_path / "r.csv"
    assert run(["graphon", "rate", "--in", kernel_file, "--out", str(out2)]) == 0
    rate = float(out2.read_text().strip().split("\n")[1])
    assert rate >= -1e-12


def test_graphon_convolve_roundtrip(kernel_file, tmp_path):
    out = tmp_path / "conv.json"
    assert run(["graphon", "convolve", "--in", kernel_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["group"] == [2]
    assert len(doc["values"]) == 4


def test_graphon_fk_csv_summary(tmp_path):
    W = random_kernel(Group((2,)), 9, np.random.default_rng(71))
    p = tmp_path / "w.json"
    dump_json(kernel_to_json_dict(W), str(p))
    out = tmp_path / "fk.csv"
    assert run(["graphon", "fk", "--in", str(p), "--eps", "0.4", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("round,slice,box_integral,energy_after,parts\n")
    assert "# rounds=" in text
    assert "certified=true" in text


def test_layer_audit_formats(tmp_path):
    csv_out = tmp_path / "layer.csv"
    code = run(["layer-audit", "--n", "5", "--samples", "30", "--seed", "2", "--out", str(csv_out)])
    assert code == 0
    text = csv_out.read_text()
    assert text.startswith("n,group,")
    assert "# audit " in text
    json_out = tmp_path / "layer.json"
    run(["layer-audit", "--n", "5", "--samples", "30", "--seed", "2",
         "--format", "json", "--out", str(json_out)])
    doc = json.loads(json_out.read_text())
    assert "audit" in doc
    assert doc["audit"]["samples"] == 30


def test_ez1_trend_cli_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["ez1-trend", "--n", "5,6", "--samples", "25", "--seed", "11"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_betti_trend_cli(tmp_path):
    out = tmp_path / "betti.csv"
    assert run(["betti-trend", "--n", "5:7:1", "--samples", "20", "--seed", "8",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 3  # header + n in {5, 6, 7}, one prime


def test_group_flag_parsing(tmp_path):
    out = tmp_path / "z6.csv"
    assert run(["ez1-trend", "--n", "5", "--samples", "10", "--group", "2,3",
                "--seed", "1", "--out", str(out)]) == 0
    assert "Z/2 x Z/3" in out.read_text()


def test_bad_group_flag_exits_two(capsys):
    with pytest.raises(SystemExit):
        run(["ez1-trend", "--group", "0"])  # argparse type error


@pytest.mark.parametrize("argv, message", [
    (["betti-trend", "--in"], "unrecognized arguments: --in"),  # not --include-mg
    (["betti-trend", "--sam", "3"], "unrecognized arguments: --sam 3"),  # not --samples
    (["ez1-trend", "--n", "5", "--samples", "1", "--mod", "lm"], "unrecognized arguments: --mod lm"),
    (["graphon", "fk", "--i", "k.json", "--eps", "0.2"], "the following arguments are required: --in"),
])
def test_options_match_only_in_full(argv, message, capsys):
    """An abbreviated option is an unknown one, in the subcommands' parsers
    and in graphon's."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err

def test_fk_bad_eps_exits_two(kernel_file, capsys):
    for eps in ("-1", "nan", "inf", "1e-300"):
        assert run(["graphon", "fk", "--in", kernel_file, "--eps", eps]) == 2, eps
        assert capsys.readouterr().err.startswith("error: eps "), eps


@pytest.mark.parametrize("command", ["ez1-trend", "betti-trend", "sample"])
@pytest.mark.parametrize("model", ["one-out", "hypertree", "lm"])
def test_bad_c_exits_two_for_every_model(command, model, capsys):
    """--c is checked when parsed, also for the models that ignore c."""
    sizes = ["--n", "5"] if command == "sample" else ["--n", "5", "--samples", "1"]
    for c in ("nan", "inf", "-inf", "-1", "x", ""):
        with pytest.raises(SystemExit) as exc:
            run([command, "--model", model, f"--c={c}", *sizes])
        assert exc.value.code == 2, c
        assert f"argument --c: must be a finite number >= 0; got {c!r}" in capsys.readouterr().err
    assert run([command, "--model", model, "--c", "0", *sizes]) == 0  # LM with no faces


def _corrupt_kernel(kernel_file, tmp_path, path, value):
    with open(kernel_file) as fh:
        doc = json.load(fh)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))  # json writes NaN/Infinity literals
    return str(p)


@pytest.mark.parametrize(
    "sub, path, value, message",
    [
        ("b", ("part_measures", 0), float("nan"), "part measures must be finite"),
        ("cutnorm", ("values", 0, 0, 0), float("inf"), "values must be finite"),
        ("cutnorm", ("part_measures", 0), "1/0", "'1/0' is not a finite fraction"),
        ("b", ("values", 0, 0, 0), None, "None is not a JSON number or fraction string"),
        ("cutnorm", ("values", 0), [1], "values must be a k x k x |G| array"),
    ],
)
def test_graphon_rejects_bad_numbers(kernel_file, tmp_path, capsys, sub, path, value, message):
    bad = _corrupt_kernel(kernel_file, tmp_path, path, value)
    assert run(["graphon", sub, "--in", bad]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_graphon_exact_rejects_infinity(kernel_file, tmp_path, capsys):
    bad = _corrupt_kernel(kernel_file, tmp_path, ("values", 0, 0, 0), float("inf"))
    assert run(["graphon", "convolve", "--exact", "--in", bad]) == 2
    assert "number inf is not a finite fraction" in capsys.readouterr().err


def test_graphon_exact_rejects_nan(kernel_file, tmp_path, capsys):
    bad = _corrupt_kernel(kernel_file, tmp_path, ("part_measures", 0), float("nan"))
    assert run(["graphon", "convolve", "--exact", "--in", bad]) == 2
    err = capsys.readouterr().err
    assert "number nan is not a finite fraction" in err
    assert "Traceback" not in err


def test_sample_hypertree_caps_n(capsys):
    assert run(["sample", "--model", "hypertree", "--n", "51"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: hypertree sampler capped at n = 50 (")
    assert err.endswith("; n = 51\n")


@pytest.mark.parametrize("command", ["ez1-trend", "betti-trend"])
@pytest.mark.parametrize(
    "model, ns, bound",
    [
        ("hypertree", "49,51", "sampler capped at n = 50"),
        ("one-out", "6,1025", "one-out sampler needs C(n,2) <= 524288 edges; n = 1025"),
        ("lm", "6,186", "Linial-Meshulam sampler needs C(n,3) <= 1048576 triangles; n = 186"),
    ],
)
def test_trend_checks_every_n_before_sampling(command, model, ns, bound, monkeypatch, capsys):
    import cochainlab.lab.experiments as experiments

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the size check")

    for name in ("build_kernel", "sample_hypertree", "sample_one_out", "sample_linial_meshulam"):
        monkeypatch.setattr(experiments, name, no_sampling)
    assert run([command, "--model", model, "--n", ns, "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert bound in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "6", "--primes", "2,2"], "error: primes must be distinct; 2 is repeated\n"),
        (["--n", "6", "--primes", "3,2,3"], "error: primes must be distinct; 3 is repeated\n"),
        (["--model", "hypertree", "--n", "40", "--primes", "4"], "error: 4 is not prime\n"),
        (["--model", "lm", "--n", "8", "--primes", "2,9"], "error: 9 is not prime\n"),
    ],
    ids=["repeat", "later-repeat", "hypertree-non-prime", "lm-non-prime"],
)
def test_betti_trend_checks_the_primes_before_sampling(argv, message, monkeypatch, capsys):
    # a repeated prime printed its row twice over doubled data, and a
    # non-prime was found only by the first rank, after the first draw
    import cochainlab.lab.experiments as experiments

    calls = []
    for name in ("build_kernel", "sample_hypertree", "sample_one_out", "sample_linial_meshulam"):
        def spy(*args, _real=getattr(experiments, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, spy)
    assert run(["betti-trend", *argv, "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("vertex", [3.7, 3.0, True, "3", None])
def test_homology_rejects_non_integer_vertex(tmp_path, capsys, vertex):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"n": 5, "triangles": [[1, 2, vertex]]}))
    assert run(["homology", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: triangle vertex {vertex!r} is not an integer" in err
    assert "Traceback" not in err


def test_homology_large_prime_answers_promptly(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"n": 5, "triangles": [[1, 2, 3], [1, 2, 4]]}))
    start = time.perf_counter()
    assert run(["homology", "--in", str(path), "--p", str(2**61 - 1), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    report = json.loads(capsys.readouterr().out)
    assert report["p"] == 2**61 - 1
    assert report["dim_h1"] == 6 - 2


@pytest.mark.parametrize(
    "p, message",
    [
        ((2**31 - 1) * (2**61 - 1), f"{(2**31 - 1) * (2**61 - 1)} is not prime"),
        (2**89 - 1, "primality is decided only below 2^64"),
    ],
)
def test_homology_rejects_modulus_it_cannot_use(tmp_path, capsys, p, message):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"n": 4, "triangles": [[1, 2, 3]]}))
    start = time.perf_counter()
    assert run(["homology", "--in", str(path), "--p", str(p)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group", [[2.7], ["2"], [True]])
def test_graphon_rejects_non_integer_modulus(kernel_file, tmp_path, capsys, group):
    bad = _corrupt_kernel(kernel_file, tmp_path, ("group",), group)
    assert run(["graphon", "cutnorm", "--in", bad]) == 2
    err = capsys.readouterr().err
    assert f"each group entry must be an integer, got {group[0]!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "probs, message",
    [
        ([0.5, 0.5], "probs must be a JSON object of label: probability, got [0.5, 0.5]"),
        ("0.5", "probs must be a JSON object of label: probability, got '0.5'"),
        ({"0": [1], "1": 0.5}, "probs['0']: number [1] is not a JSON number or fraction string"),
        ({"0": True, "1": 0}, "probs['0']: number True is not a JSON number or fraction string"),
        ({"0": 0.5}, "probs must give all 2 group elements, got 1"),
        ({"0": 0.5, "1.5": 0.5}, "probs label '1.5' is not a group element of Z/2"),
        ({"0": 0.5, "2": 0.5}, "probs label '2' is not a group element of Z/2"),
    ],
)
def test_graphon_rate_rejects_malformed_nu(kernel_file, tmp_path, capsys, probs, message):
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"group": [2], "probs": probs}))
    assert run(["graphon", "rate", "--in", kernel_file, "--nu", str(nu)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_graphon_rate_rejects_nu_on_another_group(tmp_path, capsys):
    """Z/2 x Z/2 and Z/4 have the same order, so only the group check sees it."""
    W = random_w00(Group((2, 2)), 2, np.random.default_rng(71))
    kernel = tmp_path / "w.json"
    dump_json(kernel_to_json_dict(W), str(kernel))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"group": [4], "probs": {"0": 0.25, "1": 0.25, "2": 0.25, "3": 0.25}}))
    assert run(["graphon", "rate", "--in", str(kernel), "--nu", str(nu)]) == 2
    assert "nu is a distribution on Z/4, the kernel is over Z/2 x Z/2" in capsys.readouterr().err
