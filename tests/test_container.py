import re

import numpy as np
import pytest

from codenet import cli
from codenet.container import (Chunk, CHUNK_DESCRIPTOR, ContainerError, DTYPE_F32,
                               DTYPE_I4, image_to_float, load_graph, pack_i4,
                               parse_tensor, read_container, read_image, save_graph,
                               tensor_chunk, unpack_i4, write_container, write_image)
from codenet.graph import quantize_graph, run_inference
from codenet.quant import QuantParams, RequantParams, quantize
from codenet.tensor import QuantTensor, Shape4

from conftest import make_calib_images, make_tiny_graph, set_requant_flag


class TestI4Packing:
    def test_low_nibble_first(self):
        packed = pack_i4(np.array([1, 2], dtype=np.int8))
        assert packed == bytes([0x21])

    def test_negative_codes(self):
        packed = pack_i4(np.array([-1, -7], dtype=np.int8))
        assert packed == bytes([0x9F])
        back = unpack_i4(packed, 2)
        assert back.tolist() == [-1, -7]

    def test_odd_count_pads_high_nibble(self):
        packed = pack_i4(np.array([3], dtype=np.int8))
        assert packed == bytes([0x03])
        assert unpack_i4(packed, 1).tolist() == [3]

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 64, 101):
            codes = rng.integers(-7, 8, size=n).astype(np.int8)
            assert np.array_equal(unpack_i4(pack_i4(codes), n), codes)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContainerError):
            pack_i4(np.array([8], dtype=np.int8))


class TestContainerRoundTrip:
    def test_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        chunks = [
            Chunk(CHUNK_DESCRIPTOR, "graph", b"codenet-graph 1\n"),
            tensor_chunk("a/w", rng.standard_normal((2, 3)).astype(np.float32), DTYPE_F32),
            tensor_chunk("a/codes", rng.integers(-7, 8, size=(3, 5)).astype(np.int8), DTYPE_I4),
        ]
        p1, p2 = tmp_path / "m1.cdnt", tmp_path / "m2.cdnt"
        write_container(str(p1), chunks)
        write_container(str(p2), read_container(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_tensor_payload_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((4, 1, 1, 6)).astype(np.float32)
        path = str(tmp_path / "t.cdnt")
        write_container(path, [tensor_chunk("x", arr, DTYPE_F32)])
        back = parse_tensor(read_container(path)[0])
        assert np.array_equal(back, arr)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.cdnt"
        p.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(ContainerError):
            read_container(str(p))

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "trunc.cdnt"
        write_container(str(p), [tensor_chunk("x", rng.standard_normal((8,)).astype(np.float32), DTYPE_F32)])
        blob = p.read_bytes()
        p.write_bytes(blob[:-3])
        with pytest.raises(ContainerError):
            read_container(str(p))


class TestGraphSerialization:
    def test_fp32_round_trip(self, tmp_path):
        g = make_tiny_graph(seed=4)
        p1, p2 = str(tmp_path / "g1.cdnt"), str(tmp_path / "g2.cdnt")
        save_graph(p1, g)
        g2 = load_graph(p1)
        save_graph(p2, g2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert [n.name for n in g2.nodes] == [n.name for n in g.nodes]
        assert np.array_equal(g2.node("pw").w_fp, g.node("pw").w_fp)

    def test_w4a8_round_trip_preserves_inference(self, tmp_path):
        g = make_tiny_graph(seed=5, deform=True)
        gq = quantize_graph(g, make_calib_images(16))
        path = str(tmp_path / "q.cdnt")
        save_graph(path, gq)
        g2 = load_graph(path)
        img = make_calib_images(16, count=1, seed=20)[0]
        qp = QuantParams(8, "per_layer", np.array([gq.input_delta * 127.0]))
        a = run_inference(gq, quantize(img, qp))
        qp2 = QuantParams(8, "per_layer", np.array([g2.input_delta * 127.0]))
        b = run_inference(g2, quantize(img, qp2))
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.data, tb.data)

    def test_w4a8_container_bytes_round_trip(self, tmp_path):
        g = make_tiny_graph(seed=6)
        gq = quantize_graph(g, make_calib_images(16))
        p1, p2 = str(tmp_path / "a.cdnt"), str(tmp_path / "b.cdnt")
        save_graph(p1, gq)
        save_graph(p2, load_graph(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestImageFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        p = str(tmp_path / "x.img")
        write_image(p, img)
        assert np.array_equal(read_image(p), img)

    def test_header_is_16_bytes(self, tmp_path):
        img = np.zeros((2, 3, 1), dtype=np.uint8)
        p = tmp_path / "x.img"
        write_image(str(p), img)
        assert p.stat().st_size == 16 + 6

    def test_float_mapping(self):
        img = np.array([[[0, 255]]], dtype=np.uint8)
        ft = image_to_float(img)
        assert ft.data[0, 0, 0, 0] == 0.0
        assert ft.data[0, 0, 0, 1] == 1.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.img"
        p.write_bytes(b"WXYZ" + bytes(20))
        with pytest.raises(ContainerError):
            read_image(str(p))


def _widen_pw(g):
    """Give node pw ic 16 on its 8-channel input, with weights that fit ic 16."""
    n = g.node("pw")
    n.ic = 16
    if g.precision == "fp32":
        n.w_fp = np.concatenate([n.w_fp, n.w_fp])
    else:
        n.w_q = QuantTensor(Shape4(16, 1, 1, 8), np.concatenate([n.w_q.data, n.w_q.data]),
                            bits=4, qparams=n.w_q.qparams)


# graphs that break a lint rule, keyed by the node or head the error names
MALFORMED = {
    "pw": _widen_pw,
    "head_y": lambda g: setattr(g.node("head_s"), "name", "head_y"),
    "head_o": lambda g: g.nodes.remove(g.node("head_o")),
}


class TestMalformedContainers:
    def test_fuzzed_containers_exit_1(self, tmp_path, capsys):
        """Truncated or byte-flipped containers raise ContainerError from
        load_graph, and the CLI reports them with exit 1, never a traceback.

        Each command is one the intact container also fails with exit 1 (an
        fp32 model cannot be run, a w4a8 model cannot be quantized again), so
        every mutation must exit 1 whether or not it still loads.
        """
        g = make_tiny_graph(seed=16, deform=True)
        fp32, w4a8 = tmp_path / "fp32.cdnt", tmp_path / "w4a8.cdnt"
        save_graph(str(fp32), g)
        save_graph(str(w4a8), quantize_graph(g, make_calib_images(16)))
        calib = tmp_path / "calib"
        calib.mkdir()
        write_image(str(calib / "c0.img"), np.zeros((16, 16, 3), dtype=np.uint8))
        image = str(calib / "c0.img")
        victim = str(tmp_path / "victim.cdnt")
        commands = {
            fp32: ["infer", victim, image],
            w4a8: ["quantize", victim, str(tmp_path / "out.cdnt"), "--calib", str(calib)],
        }
        rng = np.random.default_rng(17)
        rejected = 0
        for _ in range(300):
            base = (fp32, w4a8)[int(rng.integers(2))]
            blob = bytearray(base.read_bytes())
            if rng.integers(2):
                blob = blob[:int(rng.integers(len(blob)))]
            else:
                for pos in rng.integers(len(blob), size=int(rng.integers(1, 4))):
                    blob[pos] ^= int(rng.integers(1, 256))
            with open(victim, "wb") as f:
                f.write(blob)
            try:
                load_graph(victim)
            except ContainerError:
                rejected += 1
            assert cli.main(commands[base]) == 1
        assert rejected >= 150
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_convolution_exits_1(self, tmp_path, capsys):
        """A conv node with no output channels saves (save_graph does not
        lint) but is rejected at load time, before calibration reaches it."""
        g = make_tiny_graph(seed=17)
        head = g.node("head_y")
        head.oc, head.w_fp, head.b_fp = 0, head.w_fp[..., :0], head.b_fp[:0]
        bad = str(tmp_path / "empty.cdnt")
        save_graph(bad, g)
        with pytest.raises(ContainerError, match="head_y"):
            load_graph(bad)
        calib = tmp_path / "calib"
        calib.mkdir()
        write_image(str(calib / "0.img"), np.zeros((16, 16, 3), dtype=np.uint8))
        out = tmp_path / "out.cdnt"
        assert cli.main(["quantize", bad, str(out), "--calib", str(calib)]) == 1
        err = capsys.readouterr().err
        assert "head_y" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("offset_mode", "bogus"),
        ("offset_mode", "free_frac"),
        ("offset_lo", "8"),
        ("offset_path", "bogus"),
    ])
    def test_bad_deformable_settings_exit_1(self, tmp_path, capsys, field, value):
        """A descriptor whose deformable node names an unknown offset mode or
        path, or an empty offset range, is rejected at load time."""
        g = make_tiny_graph(seed=16, deform=True)
        good, bad = str(tmp_path / "good.cdnt"), str(tmp_path / "bad.cdnt")
        save_graph(good, quantize_graph(g, make_calib_images(16)))
        chunks = read_container(good)
        old = {"offset_mode": "bounded_int", "offset_lo": "-8", "offset_path": "requant"}[field]
        text = chunks[0].payload.decode()
        assert text.count(f" {field}={old}") == 1
        text = text.replace(f" {field}={old}", f" {field}={value}")
        chunks[0] = Chunk(CHUNK_DESCRIPTOR, "graph", text.encode())
        write_container(bad, chunks)
        image = str(tmp_path / "x.img")
        write_image(image, np.zeros((16, 16, 3), dtype=np.uint8))
        assert cli.main(["infer", good, image]) == 0
        with pytest.raises(ContainerError, match="dw"):
            load_graph(bad)
        assert cli.main(["infer", bad, image]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("precision,pattern,repl,field", [
        ("w4a8", r"^input_delta .*$", "input_delta nan", "input_delta"),
        ("w4a8", r"^input_delta .*$", "input_delta inf", "input_delta"),
        ("w4a8", r"^(node pw .*) relu=1", r"\1 relu=7", "relu"),
        ("fp32", r"^precision fp32$", "precision int2", "precision"),
    ], ids=["input_delta_nan", "input_delta_inf", "relu_7", "precision_int2"])
    def test_bad_descriptor_fields_exit_1(self, tmp_path, capsys, precision, pattern, repl, field):
        """A descriptor whose input delta is not positive and finite, whose
        relu flag is not 0 or 1 or whose precision is unknown fails to load,
        so infer (and quantize, for fp32 chunks) exits 1 naming the field."""
        g = make_tiny_graph(seed=19)
        good, bad = str(tmp_path / "good.cdnt"), str(tmp_path / "bad.cdnt")
        save_graph(good, g if precision == "fp32" else quantize_graph(g, make_calib_images(16)))
        load_graph(good)
        chunks = read_container(good)
        text, count = re.subn(pattern, repl, chunks[0].payload.decode(), flags=re.M)
        assert count == 1
        chunks[0] = Chunk(CHUNK_DESCRIPTOR, "graph", text.encode())
        write_container(bad, chunks)
        with pytest.raises(ContainerError, match=field):
            load_graph(bad)
        calib = tmp_path / "calib"
        calib.mkdir()
        image = str(calib / "0.img")
        write_image(image, np.zeros((16, 16, 3), dtype=np.uint8))
        argvs = [["infer", bad, image]]
        if precision == "fp32":
            argvs.append(["quantize", bad, str(tmp_path / "out.cdnt"), "--calib", str(calib)])
        for argv in argvs:
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_graph_exits_1(self, tmp_path, capsys, name):
        """A graph whose conv ic is not its input's channel count, that defines
        a value twice or lacks a head saves (save_graph does not lint) but fails
        to load, so quantize (fp32) and infer (w4a8) exit 1 naming it."""
        g = make_tiny_graph(seed=18)
        gq = quantize_graph(g, make_calib_images(16))
        fp32, w4a8 = str(tmp_path / "fp32.cdnt"), str(tmp_path / "w4a8.cdnt")
        for graph, path in ((g, fp32), (gq, w4a8)):
            MALFORMED[name](graph)
            save_graph(path, graph)
            with pytest.raises(ContainerError, match=name):
                load_graph(path)
        calib = tmp_path / "calib"
        calib.mkdir()
        image = str(calib / "0.img")
        write_image(image, np.zeros((16, 16, 3), dtype=np.uint8))
        out = tmp_path / "out.cdnt"
        for argv in (["quantize", fp32, str(out), "--calib", str(calib)], ["infer", w4a8, image]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("precision,node,field", [
        ("fp32", "pw", "b_fp"),
        ("fp32", "dw", "off_b_fp"),
        ("w4a8", "pw", "rp"),
        ("w4a8", "dw", "off_rp"),
    ])
    def test_short_bias_or_requant_vectors_exit_1(self, tmp_path, capsys, precision, node, field):
        """A bias or requant vector with one entry for a node of more channels
        saves (save_graph does not lint) but fails to load instead of being
        broadcast, so quantize (fp32) and infer (w4a8) exit 1 naming the node."""
        g = make_tiny_graph(seed=20, deform=True)
        if precision == "w4a8":
            g = quantize_graph(g, make_calib_images(16))
        n = g.node(node)
        v = getattr(n, field)
        setattr(n, field, v[:1] if precision == "fp32" else
                RequantParams(v.multiplier[:1], v.shift[:1], v.bias[:1], v.out_delta, v.relu))
        bad = str(tmp_path / "bad.cdnt")
        save_graph(bad, g)
        with pytest.raises(ContainerError, match=f"node '{node}'"):
            load_graph(bad)
        calib = tmp_path / "calib"
        calib.mkdir()
        image = str(calib / "0.img")
        write_image(image, np.zeros((16, 16, 3), dtype=np.uint8))
        out = tmp_path / "out.cdnt"
        argv = ["quantize", bad, str(out), "--calib", str(calib)] if precision == "fp32" else ["infer", bad, image]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"node '{node}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("chunk,node", [("pw", "pw"), ("dw/off", "dw")])
    @pytest.mark.parametrize("flag", [0, 2])
    def test_requant_flag_other_than_1_names_the_chunk(self, tmp_path, chunk, node, flag):
        """Every qparams chunk carries requant parameters: a chunk whose flag
        says otherwise fails to parse, naming its node and chunk."""
        path = tmp_path / "q.cdnt"
        save_graph(str(path), quantize_graph(make_tiny_graph(seed=20, deform=True), make_calib_images(16)))
        set_requant_flag(path, chunk, flag)
        with pytest.raises(ContainerError, match=rf"^node '{node}': quantization parameters '{chunk}': "
                                                 rf"requant flag is {flag}, not 1$"):
            load_graph(str(path))

    @pytest.mark.parametrize("precision,node,field,value", [
        ("fp32", "stem", "w_fp", np.nan),
        ("fp32", "pw", "b_fp", np.inf),
        ("fp32", "dw", "off_w_fp", -np.inf),
        ("fp32", "dw", "off_b_fp", np.nan),
        ("w4a8", "pw", "rp", np.nan),
        ("w4a8", "dw", "off_rp", np.inf),
        ("w4a8", "pw", "w_q", np.nan),
        ("w4a8", "dw", "off_w_q", np.inf),
    ])
    def test_nonfinite_parameters_exit_1(self, tmp_path, capsys, precision, node, field, value):
        """A nan or infinite fp32 weight or bias, requant out_delta or weight
        threshold saves (save_graph does not lint) but fails to load, so
        quantize (fp32) and infer (w4a8) exit 1 naming the node."""
        g = make_tiny_graph(seed=22, deform=True)
        if precision == "w4a8":
            g = quantize_graph(g, make_calib_images(16))
        n = g.node(node)
        if precision == "fp32":
            getattr(n, field).flat[0] = value
        elif field.endswith("rp"):
            object.__setattr__(getattr(n, field), "out_delta", value)
        else:
            qp = getattr(n, field).qparams
            object.__setattr__(qp, "t", np.where(np.arange(qp.t.size) == 0, value, qp.t))
        bad = str(tmp_path / "bad.cdnt")
        save_graph(bad, g)
        with pytest.raises(ContainerError, match=f"node '{node}'.*finite"):
            load_graph(bad)
        calib = tmp_path / "calib"
        calib.mkdir()
        image = str(calib / "0.img")
        write_image(image, np.zeros((16, 16, 3), dtype=np.uint8))
        out = tmp_path / "out.cdnt"
        argv = ["quantize", bad, str(out), "--calib", str(calib)] if precision == "fp32" else ["infer", bad, image]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"node '{node}'" in err and "Traceback" not in err
        assert not out.exists()


class TestDescriptorCompatibility:
    @pytest.mark.parametrize("precision", ["fp32", "w4a8"])
    def test_old_descriptor_lines_are_ignored(self, tmp_path, precision):
        """Descriptors once stated classes, width_mult and downsample, which
        the nodes say or nothing reads; a container that still carries them
        loads to the same nodes and parameters."""
        g = make_tiny_graph(seed=21, deform=True, classes=3)
        if precision == "w4a8":
            g = quantize_graph(g, make_calib_images(16))
        new, old, resaved = (str(tmp_path / f"{k}.cdnt") for k in ("new", "old", "resaved"))
        save_graph(new, g)
        chunks = read_container(new)
        text = chunks[0].payload.decode()
        assert "classes" not in text and "width_mult" not in text and "downsample" not in text
        text = text.replace("\nresolution 16\n",
                            "\nclasses 3\nresolution 16\nwidth_mult 1\ndownsample stride4\n")
        chunks[0] = Chunk(CHUNK_DESCRIPTOR, "graph", text.encode())
        write_container(old, chunks)
        loaded = load_graph(old)
        assert loaded.classes == 3
        save_graph(resaved, loaded)
        with open(new, "rb") as a, open(resaved, "rb") as b:
            assert a.read() == b.read()
