"""sha256 pins of layer-audit and ldp-numerics output at fixed seeds.

The layer counts, `audited`, `both_neg_inf` and every float of these runs
are pinned byte for byte, so a rewrite of the sample path (the cochain
embedding, the b functional, the cocycle triangles, the exact avoidance
probability) that changes any output fails here. The pins were recorded
with numpy 2.4 on x86-64; a BLAS that sums in another order may change the
last digits of the float columns.
"""
import hashlib

import pytest

from cochainlab.cli import main

LAYER_AUDIT = {
    (6, "2", "csv"): "0ac0b93490ef9129bf3c7749297c9fcc9f6ba2d5d256f1522813b3ac9c4767a7",
    (6, "2", "json"): "c2dffbe21059817dcc819d96ff17a3c5d6d317f3539e3dae67232cfe25cbaea4",
    (8, "2", "csv"): "0ef2218a7c09f4ec72b8fe407ef0d68ba2319f9e4b3ea1762976bae1f0d84a1f",
    (8, "2", "json"): "4dc0f5898f19c83a785d8bbd343b3249dd3a3ae316989de2e56bffa423af0c53",
    (10, "2", "csv"): "a72dfaf288a2bfb029946d9c03c257b01914689a610be97f4ce74c2df6faf630",
    (10, "2", "json"): "215bbf3d57c0e19b234ccd7fbb528d4257c228cbd30190d6c51bbc6162ba6888",
    (12, "2", "csv"): "496345c4dd5d5c03059f419025f6a569bcca6264bcb741a61d07a86aeeda1515",
    (12, "2", "json"): "4d0311d7574de72d527945d4252bcab3ff3ec44bd7816e975261997a4502f013",
    (6, "3", "csv"): "0f934c99de908e7f37fab172cd08492e999d975252aed7ceb64d6017d026d31f",
    (6, "3", "json"): "ba47b7cc79e81a85aea11c183d14e2dc58f59bac2bb5b447bcf580324d4bb733",
    (8, "3", "csv"): "3d98ae880f4ef9a64b232e200b58d6987795c15a9b75dde2bbd415179e6b23d1",
    (8, "3", "json"): "5aad1d9a3fda3cc4bda25d342d3a53f4845044dd27f7e71a2355c61b97d63521",
    (10, "3", "csv"): "d30a1484f60f0fdef9af9a044f1e123f18d09b7de640969127185b0ae2ab605c",
    (10, "3", "json"): "fadb80e1cb12921dd3032725ac65c1f7b60e6cdca99c06d19c7cf5841c12a76d",
    (12, "3", "csv"): "ec98b9db9caf2923dfaf3c5763220d3a4cc20d0b8831ecce7aa82435a1b56eb0",
    (12, "3", "json"): "96f629ac6d391313773a55d3cc379a0a7f0ff95c1bd7f7a18c96555c51648a2e",
}

LDP_NUMERICS = {
    "csv": "57a727430e1f251c6b869c3575fa8bc9e28452698847bb0c93e478f80d9f099d",
    "json": "86724c777f87bd14e87e3b539eab95ec5c6e31d606e919bc539f5c000cde3647",
}


def _digest(tmp_path, argv):
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("n, group, fmt", sorted(LAYER_AUDIT))
def test_layer_audit_bytes(tmp_path, n, group, fmt):
    argv = ["layer-audit", "--n", str(n), "--group", group, "--samples", "40", "--seed", "5", "--format", fmt]
    assert _digest(tmp_path, argv) == LAYER_AUDIT[n, group, fmt]


@pytest.mark.parametrize("fmt", sorted(LDP_NUMERICS))
def test_ldp_numerics_bytes(tmp_path, fmt):
    argv = ["ldp-numerics", "--samples", "20", "--seed", "5", "--format", fmt]
    assert _digest(tmp_path, argv) == LDP_NUMERICS[fmt]
