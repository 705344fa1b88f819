"""sha256 pins of layer-audit, ldp-numerics and graphon output at fixed seeds.

The layer counts, `audited`, `both_neg_inf` and every float of these runs
are pinned byte for byte, so a rewrite of the sample path (the cochain
embedding, the b functional, the cocycle triangles, the exact avoidance
probability) that changes any output fails here. The `graphon cutnorm` and
`graphon fk` pins do the same for the cut-norm oracles: the fk trace holds
every witness (S, T) the oracle found, so an exact scan that picks another
first maximum fails here. The 30-part kernel is past the exact limit, so
its pins hold the alternating heuristic: its value, its witnesses and the
generator state it leaves for the next slice. The pins were recorded with numpy 2.4 on x86-64;
a BLAS that sums in another order may change the last digits of the float
columns.
"""
import hashlib

import numpy as np
import pytest

from cochainlab.cli import main
from cochainlab.graphons import kernel_difference, random_kernel, random_w00, uniform_kernel
from cochainlab.groups import Group
from cochainlab.serialize import dump_json, kernel_to_json_dict

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


# (group moduli, parts, generator): a random_kernel, or a random_w00 less the
# uniform kernel, drawn from default_rng([parts, sum(moduli)])
GRAPHON_KERNELS = {
    "z2-14": ((2,), 14, random_kernel),
    "z2-20": ((2,), 20, random_kernel),
    "z3-12": ((3,), 12, random_w00),
    "z2xz2-9": ((2, 2), 9, random_w00),
    "z3-30": ((3,), 30, random_w00),
}

GRAPHON = {
    ("z2-14", "cutnorm", "csv"): "53c45a8e95a38f052ea296adc4437049a5ce2b03a233a4b8b7be17c29375ff8b",
    ("z2-14", "cutnorm", "json"): "1f0cb87ff5a8ea637d7778224063481cc04544000b61c37c038deaf603587803",
    ("z2-14", "fk --eps 0.1", "csv"): "a7dc50a374b23c1d3efa05196bbd7edc432096cb44a4a4a4f29011dcf2670c7b",
    ("z2-14", "fk --eps 0.1", "json"): "078bfb67a75b5eb81d331f9032928410d8e6253928952d4f2ba12ad34668fc59",
    ("z2-14", "fk --eps 0.2", "csv"): "3d9f13fa98eac870929b3b519e39f0bef0c6837055c97811cb20c21b3554860c",
    ("z2-14", "fk --eps 0.2", "json"): "98e6f104e3d9ebc77151deaf5c4cb638ff0a9f53328d9426962361892de97889",
    ("z2-20", "cutnorm", "csv"): "f5272d439da345540d45e0edc095cd16d8394b4d3b51de46121badc1ae0905dc",
    ("z2-20", "cutnorm", "json"): "f2ed5a47d2680bb3ffa9e79db12d76dbdeb7a1fa22a4b52946dacce82bd4bae4",
    ("z2-20", "fk --eps 0.1", "csv"): "2858d7fe6dc58223f50e624ffb0bb241c65869052df607bd3c4fa8e757cade86",
    ("z2-20", "fk --eps 0.1", "json"): "e720a0738c96654a554cfdc94557da526d95b921b8376acac3ceade519827067",
    ("z2-20", "fk --eps 0.2", "csv"): "d9e4787a100986f69c20311e9a284e3c50be5add91aad650e2dd85c0f1b69461",
    ("z2-20", "fk --eps 0.2", "json"): "3c83296db0c3ce4c9c1da1af97a9e8f6f7258e1465211cadf89e5c82cb2fcc8f",
    ("z2xz2-9", "cutnorm", "csv"): "e06eeb31a1af6b7931ec4e5ebbf3f613567d83782ad6b4e6e5aec3326a87c7e7",
    ("z2xz2-9", "cutnorm", "json"): "8355adf31ba7506250a302cbfcb41cda68911370a9e24fddebaaa156567c644c",
    ("z2xz2-9", "fk --eps 0.1", "csv"): "c7771b89e0d6cfbb6cb340634de7d7a95d9fb76fb7b91a59038fd3527effb8a3",
    ("z2xz2-9", "fk --eps 0.1", "json"): "69b07f08ed43a4a32b2dbce056f3257987258e43b89aba8acc67a5cf5883bf12",
    ("z2xz2-9", "fk --eps 0.2", "csv"): "34340fe807974829836c21436704e6d09ec0e7061cbc2b9f62251718f1b5ef9c",
    ("z2xz2-9", "fk --eps 0.2", "json"): "d087bf56054cebd654334ad8303ff8084f19b2d66ce3841c4c632ba1c859dab8",
    ("z3-12", "cutnorm", "csv"): "0ddb2187013528ae8fd49786066d4e1ca4a4a2a08f24ff3b723ec4e0be64590b",
    ("z3-12", "cutnorm", "json"): "a054a234d060bb8c0cdf316bc5513c7163591aa2c7d6ef23aadc3e20378bd33d",
    ("z3-12", "fk --eps 0.1", "csv"): "887c641b7f4ddad615e3b6b7d3b7e6ad3694f7eda194a91b55eca4a080a7f3c8",
    ("z3-12", "fk --eps 0.1", "json"): "16f91385f1c6219cf471bc7b7c3db2c8750567a5e734eac20f5a252db58cdbaf",
    ("z3-12", "fk --eps 0.2", "csv"): "fbe612862744ccd3bd7a63c0010499f8b46f1ad3e94bd9f31297b3b23aa5d000",
    ("z3-12", "fk --eps 0.2", "json"): "d2947726a01262805612c7fc4114f52f88223a81089bab76122bab89f85d91f0",
    ("z3-30", "cutnorm", "csv"): "a54d78234d1b5c8e13df3a83201b17466f2b9bb4731357a4f2e9ce470fe67290",
    ("z3-30", "cutnorm", "json"): "79ff1c8116e72fb790cdd5c88185a99658f5c124d40836dd2f06c1061f365a5f",
    ("z3-30", "fk --eps 0.05", "csv"): "819dec812d37d5d2ab79fb74a05e872d741b3c9b8277c9f8f68a29c98c49cdf2",
    ("z3-30", "fk --eps 0.05", "json"): "27c6db522e61923fd30871c703573f4dafed94ffb2363d0f24d87b09add4e6c0",
    ("z3-30", "fk --eps 0.2", "csv"): "f4c54a4da4e3b0350552a39bf2710e315da46a601c2417a12ff48f675fcb7a71",
    ("z3-30", "fk --eps 0.2", "json"): "6188373d1a4a19f5a444f398089d4deb0be05ea2f1190b41a2efff5d6f1bdb65",
}


def _graphon_kernel(tmp_path, name):
    moduli, parts, draw = GRAPHON_KERNELS[name]
    group = Group(moduli)
    W = draw(group, parts, np.random.default_rng([parts, sum(moduli)]))
    if draw is random_w00:
        W = kernel_difference(W, uniform_kernel(group))
    path = tmp_path / "kernel.json"
    dump_json(kernel_to_json_dict(W), str(path))
    return str(path)


@pytest.mark.parametrize("name, command, fmt", sorted(GRAPHON))
def test_graphon_bytes(tmp_path, name, command, fmt):
    argv = ["graphon", *command.split(), "--in", _graphon_kernel(tmp_path, name), "--format", fmt]
    assert _digest(tmp_path, argv) == GRAPHON[name, command, fmt]
