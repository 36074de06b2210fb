"""Behaviour pins: command outputs and graph round trips that must stay bit
for bit identical.

The CLI digests are SHA-256 of stdout, computed in process with ``cli.main``.
Both commands print only integer arithmetic and fixed-precision formatting of
it, so the digests do not depend on the host's floating-point library.
"""
import hashlib

import numpy as np
import pytest

from codenet import cli, ops
from codenet.container import load_graph, save_graph
from codenet.graph import quantize_graph, run_inference, run_inference_float
from codenet.quant import QuantParams, quantize

from conftest import make_calib_images, make_tiny_graph

COST_SHA = {
    ("a", "fp32"): "216ff1cdbd50af9f87cb7d64482bf1458898b141e003bf8c22c48e5d2c823710",
    ("a", "w4a8"): "7b30c1828d3b7df4954b7cbfc9a49e75c6ac48b2ac82d0d0d7c5506cef8f592b",
    ("b", "fp32"): "cd718bf21cfe46f19075948967f58e29e4886948d7bca919aba1f96ce21d215b",
    ("b", "w4a8"): "faccbe2e024a37bf94d9775ae56eb7a5671b2f46c63f07452c8246381471f08a",
    ("c", "fp32"): "4ef975130476cd647e5a4f0d5c843faaa9e2744038c6254e8bc0385b698f1ad9",
    ("c", "w4a8"): "7fc1f923fe1e247c97d67a0a89798ef272a89e1d8c07c75a3c7c4528d2027501",
    ("d", "fp32"): "3c9f2bc2f1bde3158015ba795cb27491201e7f5bf6a0e8cc64352dc78458bc51",
    ("d", "w4a8"): "d913c5c7fa35979eac556a00cbe0028e3ca132a0203a90f506435739148c4017",
    ("e", "fp32"): "96c5ac59736c557de2f90d970b5fbc1dc889d6d3acf914a9ce4567d095868e67",
    ("e", "w4a8"): "cf9a40a6c1c36bfab328e0e27df60521b0a94fd608f5ad09397bce54bfc34cb7",
}

BENCH_OP_SHA = {
    ("full_default", 0): "53d0c6510b71079bbae0fdea3f81aa03f1a4d80777742c85f2e51bea949be98d",
    ("full_default", 1): "642220eeff3c8ca313667700e83289f21e6daf01d42bc94a38d64223b53ff7e1",
    ("full_deform", 0): "42f797e04cf9aa101cba460307270adce5aca0372ca9f4784a32463455d96cfa",
    ("full_deform", 1): "bbdfe7c68a1df2e529b02fa7c231beb545e3e847fb6d8b850b95b116a6282ef6",
    ("full_bound", 0): "cdabe56fd4cab566912d1920ee3ce5394469fbeae3ce5e5491c999505efc2ced",
    ("full_bound", 1): "024569b926478d22cb716930eb71778700408abdca798f2be2ea5c337660d27d",
    ("full_square", 0): "70cb4c1ceb03d4da1be424070f72c1a251b35d6cb57a188ed9de0a2c2eeaac39",
    ("full_square", 1): "5e2596ba069f222d06af2427a4acf4c953e3220d1772439e0b6683e9506da7a0",
    ("dw_default", 0): "977054daa736e9b8118cdde06263ee2ea58f4bc440f9519d40af51c434b767dd",
    ("dw_default", 1): "9476cd7292b7c126d4d0e8ee5aaa9103bc96cea5215dcebac5acc7e3ac5389cb",
    ("dw_deform", 0): "d09d24ebd77bff31ae22f4b45029829e9f345859bfa6d33a250cb1d7f59e57f6",
    ("dw_deform", 1): "d7327fbb55fd1a78d8e9c0870dd1b538d810ab5cd232f8f1cb714c9279a0ab1c",
    ("dw_bound", 0): "e6f180139df69391ffb1805ef8b1b9f82f9a1221a6d127414593a111d46abed2",
    ("dw_bound", 1): "ad365b2bf66cb7f4e17ecdb0bfd83b0a3e3f45a2946ba875115d5dd75521bb6a",
    ("dw_square", 0): "36d820472651ff0aee9a9f1f4504804089fd1de77a85f181b2b0a869b3745e6d",
    ("dw_square", 1): "d06b0f38464d4fe0090d9122dfb523515d3be79ff06fd8c7205634096ecfd5de",
}


def _stdout_sha(capsys, argv: list[str]) -> str:
    capsys.readouterr()
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("config,precision", sorted(COST_SHA))
def test_cost_per_layer_stdout_pinned(capsys, config, precision):
    argv = ["cost", "--config", config, "--precision", precision, "--per-layer"]
    assert _stdout_sha(capsys, argv) == COST_SHA[(config, precision)]


@pytest.mark.parametrize("op,llc", sorted(BENCH_OP_SHA))
def test_bench_op_stdout_pinned(capsys, op, llc):
    argv = ["bench", "--op", op, "--llc", str(llc), "--dims", "16,16,16,16"]
    assert _stdout_sha(capsys, argv) == BENCH_OP_SHA[(op, llc)]


@pytest.mark.parametrize("offset_mode,offset_path", [
    (ops.BOUNDED_INT, "requant"),
    (ops.BOUNDED_INT, "direct"),
    (ops.SQUARE, "requant"),
])
def test_deform_graph_round_trip_bit_equal(tmp_path, offset_mode, offset_path):
    g = make_tiny_graph(seed=14, deform=True, offset_mode=offset_mode)
    gq = quantize_graph(g, make_calib_images(16), offset_path=offset_path)
    path = str(tmp_path / "q.cdnt")
    save_graph(path, gq)
    loaded = load_graph(path)
    node = loaded.node("dw")
    assert (node.offset_mode, node.offset_path) == (offset_mode, offset_path)

    img = make_calib_images(16, count=1, seed=15)[0]
    qp = QuantParams(8, "per_layer", np.array([gq.input_delta * 127.0]))
    want = run_inference(gq, quantize(img, qp))
    got = run_inference(loaded, quantize(img, qp))
    for a, b in zip(want, got):
        assert np.array_equal(a.data, b.data)

    y, s, o = run_inference_float(g, img)
    assert y.shape == (1, 4, 4, 2) and s.shape == o.shape == (1, 4, 4, 2)
    assert all(np.all(np.isfinite(t)) for t in (y, s, o))
