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

# (op, design, llc) -> (exit code, stdout SHA-256) of `codenet bench --op OP
# --design DESIGN --rows 15 --llc LLC --dims 16,16,16,16`; the multiport design
# rejects non-square deformable offsets with exit 1 and an empty stdout.
EMPTY_SHA = hashlib.sha256(b"").hexdigest()
BENCH_DESIGN_SHA = {
    ("full_default", "baseline_dram", 0): (0, "857ed34918e34b84608074aa774bfdc02198663c5d7f8574821c6f75f6177cce"),
    ("full_default", "baseline_dram", 1): (0, "edd0949f662fff20af631d28242e5a37919aca6ec3b1e528510b0276b1f63568"),
    ("full_default", "llc", 0): (0, "60c5004c4e8ad953547f72b498c4b0c479de2b4fc3208e35cc26d0a338ee0a40"),
    ("full_default", "llc", 1): (0, "5d1821bbf248b3dd9366a54f3088ccea8e38298ae865d56228920627b854afdb"),
    ("full_default", "line_buffer", 0): (0, "53d0c6510b71079bbae0fdea3f81aa03f1a4d80777742c85f2e51bea949be98d"),
    ("full_default", "line_buffer", 1): (0, "642220eeff3c8ca313667700e83289f21e6daf01d42bc94a38d64223b53ff7e1"),
    ("full_default", "line_buffer_multiport", 0): (0, "264d7d21d733504a4bb71155a0f30fa56bda021584f6bdf4be625d8890c244ca"),
    ("full_default", "line_buffer_multiport", 1): (0, "35181eb5a8ebd927698145a0a4f8ad684a84b6bd8b7af8bea104f552ebf8239b"),
    ("full_deform", "baseline_dram", 0): (0, "42f797e04cf9aa101cba460307270adce5aca0372ca9f4784a32463455d96cfa"),
    ("full_deform", "baseline_dram", 1): (0, "253f67684958c2a24dada5ea943363e5de3df48a62b8fb26b3145d8e842c7c91"),
    ("full_deform", "llc", 0): (0, "a6c5f536d2e7de2d688640ce63280e3f2f1726b134de10b621f0560732c7dc36"),
    ("full_deform", "llc", 1): (0, "bbdfe7c68a1df2e529b02fa7c231beb545e3e847fb6d8b850b95b116a6282ef6"),
    ("full_deform", "line_buffer", 0): (0, "3d15b2f8859958c1de286463ffeaf089dbade62f7b253aff9b3b7169cbc7f845"),
    ("full_deform", "line_buffer", 1): (0, "085485ec1f47e4924982cd647f4db928e0ac25f8a87932a9107fc64bcae05c41"),
    ("full_deform", "line_buffer_multiport", 0): (1, EMPTY_SHA),
    ("full_deform", "line_buffer_multiport", 1): (1, EMPTY_SHA),
    ("full_bound", "baseline_dram", 0): (0, "206b841a895898ddbf0fe72f46ccdb05661dba446e523389bfcc946fcaf4f575"),
    ("full_bound", "baseline_dram", 1): (0, "5de6c63f924d85929483dcdd85fa62ff0c7000caf137cffb7c04f6c7bbb47b80"),
    ("full_bound", "llc", 0): (0, "27849b61e5f837b5b7c16f0f8068379fc423df7bcda6d336c5fcea37406669e6"),
    ("full_bound", "llc", 1): (0, "3cc4c09cec45f8dfff9228af8c4eb7601dbbacec5a81eef44f8ebfb72ce698a0"),
    ("full_bound", "line_buffer", 0): (0, "cdabe56fd4cab566912d1920ee3ce5394469fbeae3ce5e5491c999505efc2ced"),
    ("full_bound", "line_buffer", 1): (0, "024569b926478d22cb716930eb71778700408abdca798f2be2ea5c337660d27d"),
    ("full_bound", "line_buffer_multiport", 0): (1, EMPTY_SHA),
    ("full_bound", "line_buffer_multiport", 1): (1, EMPTY_SHA),
    ("full_square", "baseline_dram", 0): (0, "0d9267b8e83882b8f8396160aed45b5d624c88ab5e1c88734a67d2765bc1dac7"),
    ("full_square", "baseline_dram", 1): (0, "f865f6ac4515896511fc56ade7ca9d6c705067a16205d7dda7dc116ad5e7e725"),
    ("full_square", "llc", 0): (0, "549137cebadd95c08a1fa0928069b9b189bd55d380a88957100fd7b2be8569a8"),
    ("full_square", "llc", 1): (0, "757027a027a27b74fe27b4e2e0ab49dc32f9d54920982a58bf5f39953d24fac8"),
    ("full_square", "line_buffer", 0): (0, "00d104b0c6b8b0302e3d322c476d1fa21d4f787754906737256ced28f88a4477"),
    ("full_square", "line_buffer", 1): (0, "ec5dee7269a5afe1a41bb16d060544e8facf74799f5ecaf339ad16a517819abe"),
    ("full_square", "line_buffer_multiport", 0): (0, "70cb4c1ceb03d4da1be424070f72c1a251b35d6cb57a188ed9de0a2c2eeaac39"),
    ("full_square", "line_buffer_multiport", 1): (0, "5e2596ba069f222d06af2427a4acf4c953e3220d1772439e0b6683e9506da7a0"),
    ("dw_default", "baseline_dram", 0): (0, "6b1eb337c54d6617e826b9c3479c9a129a054f07a4b342a23db17f10f76677f7"),
    ("dw_default", "baseline_dram", 1): (0, "b9b1ea7195da2ba9676bff0098c7fd4bdfb3418019196e03aeea01a3b7ba1191"),
    ("dw_default", "llc", 0): (0, "6eb5addffd76d4192fbb8b9ae6abbfef594f54ac53bf70d9fd10b1c6716185e9"),
    ("dw_default", "llc", 1): (0, "21a80f661fb349d24c684d74fca955027abfbf262a6d3b0d155d1c4ed6a2f684"),
    ("dw_default", "line_buffer", 0): (0, "977054daa736e9b8118cdde06263ee2ea58f4bc440f9519d40af51c434b767dd"),
    ("dw_default", "line_buffer", 1): (0, "9476cd7292b7c126d4d0e8ee5aaa9103bc96cea5215dcebac5acc7e3ac5389cb"),
    ("dw_default", "line_buffer_multiport", 0): (0, "35a1debbe4fc8bf3189b8ea2c382ebbd9aa897c8607662cda1fb1104a68052e3"),
    ("dw_default", "line_buffer_multiport", 1): (0, "95f238ef199d3ffe9378f5e3346741cd9a4854ea6acfb65f0c137da6780320b3"),
    ("dw_deform", "baseline_dram", 0): (0, "d09d24ebd77bff31ae22f4b45029829e9f345859bfa6d33a250cb1d7f59e57f6"),
    ("dw_deform", "baseline_dram", 1): (0, "190ba715c266ea80d81c31886ad5e9d65866d276cb0d8ab55e891dc78aeefaaa"),
    ("dw_deform", "llc", 0): (0, "a2410c748ef16f81316de8c0ec7db0d20c0e2be654fdf9aa79c3b1aa18b801a1"),
    ("dw_deform", "llc", 1): (0, "d7327fbb55fd1a78d8e9c0870dd1b538d810ab5cd232f8f1cb714c9279a0ab1c"),
    ("dw_deform", "line_buffer", 0): (0, "a73ec48029237a2c1b436642d85d9c797830503f12d0a7981126d6dca26b0879"),
    ("dw_deform", "line_buffer", 1): (0, "dbc62856b6139af7c16820575d966b479e8cb73fcef861ce5f609dc3bf65998d"),
    ("dw_deform", "line_buffer_multiport", 0): (1, EMPTY_SHA),
    ("dw_deform", "line_buffer_multiport", 1): (1, EMPTY_SHA),
    ("dw_bound", "baseline_dram", 0): (0, "a63843a2136d12537ccc8dab5a00c8fb4de4b7d0470ddce4afda03d2df36ec33"),
    ("dw_bound", "baseline_dram", 1): (0, "3755d52bfce3c670987a69fd2ce891f1e98fd7c23b8495c87cf2c79475081d16"),
    ("dw_bound", "llc", 0): (0, "4dcd48bc99a56429cb16c49402b95afc4a43545273b261590101c22f72268e03"),
    ("dw_bound", "llc", 1): (0, "1646b7bde44d9c205f01b7f2f6ee7c652af4d21cce07def44d26ba89cdcd26f1"),
    ("dw_bound", "line_buffer", 0): (0, "e6f180139df69391ffb1805ef8b1b9f82f9a1221a6d127414593a111d46abed2"),
    ("dw_bound", "line_buffer", 1): (0, "ad365b2bf66cb7f4e17ecdb0bfd83b0a3e3f45a2946ba875115d5dd75521bb6a"),
    ("dw_bound", "line_buffer_multiport", 0): (1, EMPTY_SHA),
    ("dw_bound", "line_buffer_multiport", 1): (1, EMPTY_SHA),
    ("dw_square", "baseline_dram", 0): (0, "82851f6c3e861f3574cb24b4bb84d0a72b38c4f68982bc11b26b8eaeb01b6195"),
    ("dw_square", "baseline_dram", 1): (0, "d71a229e9a7cbf1f2e40af843eb15c25873b8421c690b39dd25778634a3a397e"),
    ("dw_square", "llc", 0): (0, "ae5ed03afea3b7f3bee0a0554980a917847cc6c8191615e061a50d6376498f44"),
    ("dw_square", "llc", 1): (0, "5767880c3101d806f3ff723d45968af9e053e8fa9d4356541edff3c11c31581d"),
    ("dw_square", "line_buffer", 0): (0, "3201fef8aa5015743a3e09123d316c021d4d6600a982e12db49360dd19e91d04"),
    ("dw_square", "line_buffer", 1): (0, "a3d36e3740fd0eb5ae3a90f077a5db0cb238142b629c7ce0a2c0f473ec213b3f"),
    ("dw_square", "line_buffer_multiport", 0): (0, "36d820472651ff0aee9a9f1f4504804089fd1de77a85f181b2b0a869b3745e6d"),
    ("dw_square", "line_buffer_multiport", 1): (0, "d06b0f38464d4fe0090d9122dfb523515d3be79ff06fd8c7205634096ecfd5de"),
}


def _run(capsys, argv: list[str]) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout of one CLI call."""
    capsys.readouterr()
    code = cli.main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("config,precision", sorted(COST_SHA))
def test_cost_per_layer_stdout_pinned(capsys, config, precision):
    argv = ["cost", "--config", config, "--precision", precision, "--per-layer"]
    assert _run(capsys, argv) == (0, COST_SHA[(config, precision)])


@pytest.mark.parametrize("op,llc", sorted(BENCH_OP_SHA))
def test_bench_op_stdout_pinned(capsys, op, llc):
    argv = ["bench", "--op", op, "--llc", str(llc), "--dims", "16,16,16,16"]
    assert _run(capsys, argv) == (0, BENCH_OP_SHA[(op, llc)])


@pytest.mark.parametrize("op,design,llc", sorted(BENCH_DESIGN_SHA))
def test_bench_design_stdout_pinned(capsys, op, design, llc):
    argv = ["bench", "--op", op, "--design", design, "--rows", "15", "--llc", str(llc),
            "--dims", "16,16,16,16"]
    assert _run(capsys, argv) == BENCH_DESIGN_SHA[(op, design, llc)]


# stdout SHA-256 of `codenet bench --table2 --dims 48,48,512,512 --seed 3`: the
# 1.18 MB map overflows the 1 MiB LLC, so the pin covers victim selection
TABLE2_OVERFLOW_SHA = "d0d19c4a9a1e55be76e1bfcc960af4f30900b6661cb1efc24da7ba486ae9d5fa"


def test_bench_table2_overflowing_llc_pinned(capsys):
    argv = ["bench", "--table2", "--dims", "48,48,512,512", "--seed", "3"]
    assert _run(capsys, argv) == (0, TABLE2_OVERFLOW_SHA)


# stdout SHA-256 of `codenet bench --table2 --dims 96,96,200,200 --seed 3`: the
# map overflows the LLC and its 200-byte requests start mid-line, four lines
# each, sharing end lines with their neighbours, so the pin covers the rule
# that a request misses when any of its lines does
TABLE2_UNALIGNED_SHA = "42167ce9f3a9b7c7a6dc4452af09092c66cfa584c630916196bc3b417eb9c250"


def test_bench_table2_unaligned_overflowing_llc_pinned(capsys):
    argv = ["bench", "--table2", "--dims", "96,96,200,200", "--seed", "3"]
    assert _run(capsys, argv) == (0, TABLE2_UNALIGNED_SHA)


# stdout SHA-256 of `codenet bench --table2` at the two benchmark dims: the
# paper map fills the LLC exactly, the 4x map overflows it (its whole-line row
# fills touch no line twice, its deform rows replay LFSR victims)
TABLE2_BENCH_SHA = {
    ("64,64,256,256", "1"): "1568e0ee52148904660a344657adfc75ba4e871bdd5c407469c264cd035270b4",
    ("128,128,256,256", "2"): "9ea239243194b86fdacc57c7ef1a2683ff405c917622885785021b3519e3f0e9",
}


@pytest.mark.parametrize("dims,seed", sorted(TABLE2_BENCH_SHA))
def test_bench_table2_benchmark_dims_pinned(capsys, dims, seed):
    argv = ["bench", "--table2", "--dims", dims, "--seed", seed]
    assert _run(capsys, argv) == (0, TABLE2_BENCH_SHA[(dims, seed)])


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
