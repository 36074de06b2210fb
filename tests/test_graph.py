import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from codenet import graph as G
from codenet import ops
from codenet.graph import (GraphError, LayerNode, build_codenet, count_cost,
                           quantize_graph, run_inference, run_inference_float,
                           sigmoid_lut)
from codenet.quant import QuantParams, RequantParams, quantize
from codenet.tensor import AccumTensor, FloatTensor, QuantTensor, Shape4

from conftest import make_calib_images, make_tiny_graph, param_digest
from oracles import conv1x1_rank1, conv2d_loop, scalar_network


def _quant_image(g, image_f):
    qp = QuantParams(8, "per_layer", np.array([g.input_delta * 127.0]))
    return quantize(image_f, qp)


class TestBuild:
    def test_config_a_stem(self):
        g = build_codenet("a")
        assert g.resolution == 256
        assert g.node("stem").stride == 4
        assert not any(n.kind == "maxpool2x2" for n in g.nodes)
        assert g.node("stem").oc == 24

    def test_config_e_stride2_maxpool_2x(self):
        g = build_codenet("e")
        assert g.resolution == 512
        assert g.node("stem").stride == 2
        assert g.node("stem_pool").kind == "maxpool2x2"
        assert g.node("stem_pool").inputs == ("stem",)
        assert g.node("stem").oc == 48

    def test_three_upsample_blocks(self):
        for cfg in "abcde":
            g = build_codenet(cfg)
            ups = [n for n in g.nodes if n.kind == "upsample2x_nearest"]
            assert len(ups) == 3  # stride 32 backbone reaches stride 4

    def test_head_channels(self):
        g = build_codenet("a", classes=20)
        assert g.node("head_y").oc == 20
        assert g.node("head_s").oc == 2
        assert g.node("head_o").oc == 2

    def test_invalid_config(self):
        with pytest.raises(GraphError):
            build_codenet("z")

    @pytest.mark.parametrize("classes", [0, -1])
    def test_rejects_no_classes(self, classes):
        with pytest.raises(GraphError, match="classes"):
            build_codenet("a", classes=classes)

    def test_linter_rejects_unknown_kind(self):
        g = make_tiny_graph()
        g.nodes[1].kind = "residual_add"
        with pytest.raises(GraphError):
            g.lint()

    def test_linter_rejects_forward_reference(self):
        g = make_tiny_graph()
        g.nodes[1].inputs = ("dw",)
        with pytest.raises(GraphError):
            g.lint()

    def test_linter_rejects_wrong_input_count(self):
        g = make_tiny_graph()
        g.nodes[1].inputs = ("stem", "stem")
        with pytest.raises(GraphError, match="pw"):
            g.lint()

    def test_linter_rejects_strided_pointwise(self):
        # the pointwise and deformable kernels have no stride
        g = make_tiny_graph()
        g.nodes[1].stride = 2
        with pytest.raises(GraphError, match="stride 1"):
            g.lint()

    @pytest.mark.parametrize("node,field", [("head_y", "oc"), ("pw", "ic"), ("pw", "oc")])
    def test_linter_rejects_empty_convolutions(self, node, field):
        g = make_tiny_graph()
        setattr(g.node(node), field, 0)
        with pytest.raises(GraphError, match=f"'{node}': .* at least 1"):
            g.lint()

    @pytest.mark.parametrize("field,value,match", [
        ("offset_mode", "bogus", "offset mode"),
        ("offset_mode", ops.FREE_FRAC, "offset mode"),
        ("offset_mode", ops.FREE_INT, "offset mode"),
        ("offset_lo", 8, "empty offset range"),
        ("offset_path", "bogus", "offset path"),
        ("offset_hi", -1, r"^node 'dw': empty offset range \[0,-1\]$"),
    ])
    def test_linter_rejects_deformable_settings(self, field, value, match):
        # square offsets, whose range [lo, hi] the op clamps to [max(lo, 0), hi]
        g = make_tiny_graph(deform=True, offset_mode=ops.SQUARE)
        setattr(g.node("dw"), field, value)
        with pytest.raises(GraphError, match=match):
            g.lint()

    def test_linter_keeps_a_negative_bounded_range(self):
        # bounded offsets take [-8, -1] as it is, so only square ones empty it
        g = make_tiny_graph(deform=True)
        g.node("dw").offset_hi = -1
        g.lint()

    @pytest.mark.parametrize("node,ic", [("stem", 4), ("pw", 16)])
    def test_linter_rejects_ic_other_than_the_input_channels(self, node, ic):
        # weights that fit the node's own ic; the stem's input has 3 channels
        g = make_tiny_graph()
        n = g.node(node)
        n.ic, n.w_fp = ic, np.zeros((ic, *n.w_fp.shape[1:]), np.float32)
        with pytest.raises(GraphError, match=f"'{node}': ic {ic} does not match"):
            g.lint()
        with pytest.raises(GraphError, match=f"'{node}'"):
            count_cost(g)

    @pytest.mark.parametrize("node,name", [("head_s", "head_y"), ("pw", "input"), ("dw", "pw")])
    def test_linter_rejects_a_value_defined_twice(self, node, name):
        # container chunks are keyed by node name, so two such nodes would
        # load with the same weights
        g = make_tiny_graph()
        g.node(node).name = name
        with pytest.raises(GraphError, match=f"node '{name}': value '{name}' is defined twice"):
            g.lint()

    def test_linter_rejects_a_missing_head(self):
        g = make_tiny_graph()
        g.nodes.remove(g.node("head_o"))
        with pytest.raises(GraphError, match="head 'head_o' must be a conv node"):
            g.lint()

    def test_linter_rejects_a_pass_through_head(self):
        g = make_tiny_graph()
        g.nodes[-1] = LayerNode("head_o", "shuffle", ("dw",))
        with pytest.raises(GraphError, match="head 'head_o' must be a conv node"):
            g.lint()

    def test_linter_rejects_a_head_that_is_read(self):
        g = make_tiny_graph()
        g.nodes.append(LayerNode("tail", "shuffle", ("head_s",)))
        with pytest.raises(GraphError, match="head 'head_s' .* that no node reads"):
            g.lint()

    def test_classes_are_the_heatmap_channels(self):
        assert build_codenet("a", classes=7).classes == 7
        g = make_tiny_graph(classes=3)
        assert g.classes == g.node("head_y").oc == 3
        assert quantize_graph(g, make_calib_images(16)).classes == 3

    def test_linter_rejects_size_channels_other_than_2(self):
        g = make_tiny_graph()
        n = g.node("head_s")
        n.oc, n.w_fp, n.b_fp = 3, np.zeros((8, 1, 1, 3), np.float32), np.zeros(3, np.float32)
        with pytest.raises(GraphError, match="head 'head_s' must be a conv node with 2 output channels"):
            g.lint()

    def test_only_allowed_kinds_in_built_graphs(self):
        for cfg in "abcde":
            g = build_codenet(cfg)
            assert all(n.kind in G.KINDS for n in g.nodes)

    def test_channel_bookkeeping(self):
        # split report shapes already carry the halved channel count
        g = build_codenet("a")
        report = count_cost(g, "fp32")
        shapes = {l.name: l.out_shape for l in report.layers}
        seen_concat = 0
        for n in g.nodes:
            if n.kind == "concat":
                a, b = n.inputs
                ca = shapes[a.split("#")[0]][2]
                cb = shapes[b.split("#")[0]][2]
                assert shapes[n.name][2] == ca + cb
                seen_concat += 1
        assert seen_concat > 10


class TestCost:
    @pytest.mark.parametrize("cfg,macs_g,fp32_mb,w4a8_mb", [
        ("c", 1.14, 6.06, 0.76),
        ("d", 3.54, 23.2, 2.90),
    ])
    def test_table_windows(self, cfg, macs_g, fp32_mb, w4a8_mb):
        g = build_codenet(cfg)
        r32 = count_cost(g, "fp32")
        rq = count_cost(g, "w4a8")
        assert abs(r32.total_macs / 1e9 - macs_g) <= 0.10 * macs_g
        assert abs(r32.total_bytes / 1e6 - fp32_mb) <= 0.10 * fp32_mb
        assert abs(rq.total_bytes / 1e6 - w4a8_mb) <= 0.10 * w4a8_mb

    def test_config_a_quarter_of_c(self):
        a = count_cost(build_codenet("a"), "fp32")
        c = count_cost(build_codenet("c"), "fp32")
        assert a.total_macs * 4 == c.total_macs

    def test_totals_equal_layer_sums(self):
        r = count_cost(build_codenet("a"), "w4a8")
        assert r.total_params == sum(l.params for l in r.layers)
        assert r.total_macs == sum(l.macs for l in r.layers)

    def test_conv1x1_mac_definition(self):
        r = count_cost(build_codenet("a"), "fp32")
        layer = next(l for l in r.layers if l.name == "up1_pw")
        h, w, _ = layer.out_shape
        assert layer.macs == h * w * 464 * 1024

    def test_head_spatial_dims_config_a(self):
        r = count_cost(build_codenet("a"), "fp32")
        head = next(l for l in r.layers if l.name == "head_y")
        assert head.out_shape[:2] == (64, 64)


class TestInference:
    def test_zero_image_zero_weights_gives_half(self):
        g = make_tiny_graph(seed=0)
        for n in g.nodes:
            if n.is_conv:
                n.w_fp = np.zeros_like(n.w_fp)
        gq = quantize_graph(g, make_calib_images(16))
        img = FloatTensor(Shape4(1, 16, 16, 3), np.zeros((1, 16, 16, 3), dtype=np.float32))
        y, s, o = run_inference(gq, _quant_image(gq, img))
        assert np.all(y.data == 0.5)
        assert np.all(s.data == 0.0) and np.all(o.data == 0.0)

    def test_head_shapes(self, tiny_quantized):
        img = make_calib_images(16, count=1, seed=9)[0]
        y, s, o = run_inference(tiny_quantized, _quant_image(tiny_quantized, img))
        assert y.data.shape == (1, 4, 4, 2)
        assert s.data.shape == (1, 4, 4, 2)
        assert o.data.shape == (1, 4, 4, 2)

    def test_deterministic(self, tiny_quantized):
        img = make_calib_images(16, count=1, seed=10)[0]
        q = _quant_image(tiny_quantized, img)
        a = run_inference(tiny_quantized, q)
        b = run_inference(tiny_quantized, q)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.data, tb.data)

    def test_resolution_mismatch(self, tiny_quantized):
        bad = QuantTensor(Shape4(1, 8, 8, 3), np.zeros((1, 8, 8, 3), dtype=np.int8))
        with pytest.raises(GraphError):
            run_inference(tiny_quantized, bad)

    def test_shape_error_names_node(self, tiny_quantized):
        node = tiny_quantized.node("pw")
        w = node.w_q
        node.w_q = QuantTensor(Shape4(4, 1, 1, 8), w.data[:4], bits=4, qparams=w.qparams)
        img = make_calib_images(16, count=1, seed=11)[0]
        with pytest.raises(GraphError, match="pw"):
            run_inference(tiny_quantized, _quant_image(tiny_quantized, img))

    def test_requires_quantized_graph(self):
        g = make_tiny_graph()
        img = QuantTensor(Shape4(1, 16, 16, 3), np.zeros((1, 16, 16, 3), dtype=np.int8))
        with pytest.raises(GraphError):
            run_inference(g, img)

    def test_deform_graph_runs(self):
        g = make_tiny_graph(seed=3, deform=True)
        gq = quantize_graph(g, make_calib_images(16))
        img = make_calib_images(16, count=1, seed=12)[0]
        y, s, o = run_inference(gq, _quant_image(gq, img))
        assert y.data.shape == (1, 4, 4, 2)

    def test_quantize_rejects_unknown_offset_path(self):
        # rejected where it enters, not later by lint when the container loads
        with pytest.raises(GraphError, match="offset path 'bogus'"):
            quantize_graph(make_tiny_graph(deform=True), make_calib_images(16), offset_path="bogus")

    @pytest.mark.parametrize("offset_mode", [ops.BOUNDED_INT, ops.SQUARE])
    def test_batch_of_two_stacks_single_image_results(self, offset_mode):
        gq = quantize_graph(make_tiny_graph(seed=3, deform=True, offset_mode=offset_mode),
                            make_calib_images(16))
        images = [_quant_image(gq, img) for img in make_calib_images(16, count=2, seed=13)]
        batch = QuantTensor(Shape4(2, 16, 16, 3), np.concatenate([q.data for q in images]))
        singles = [run_inference(gq, q) for q in images]
        for head, got in enumerate(run_inference(gq, batch)):
            assert got.shape == Shape4(2, 4, 4, 2)
            assert np.array_equal(got.data, np.concatenate([s[head].data for s in singles]))


class TestScalarNetwork:
    """The integer executor equals a network of scalar reference loops, bit
    for bit, so no kernel rewrite can pass on the pins alone."""

    @pytest.mark.parametrize("deform,offset_mode,offset_path", [
        (False, ops.BOUNDED_INT, "requant"),
        (True, ops.BOUNDED_INT, "requant"), (True, ops.BOUNDED_INT, "direct"),
        (True, ops.SQUARE, "requant"), (True, ops.SQUARE, "direct"),
    ])
    def test_run_inference_matches_the_scalar_loops(self, monkeypatch, deform, offset_mode, offset_path):
        g = make_tiny_graph(seed=11, resolution=32, deform=deform, offset_mode=offset_mode)
        rng = np.random.default_rng(12)
        for n in g.nodes:  # nonzero biases, so the requant and offset biases count;
            # positive offset ones, or every square half-width clips to 0
            n.b_fp = rng.normal(0, 0.5, n.oc).astype(np.float32)
            if n.deformable:
                n.off_b_fp = rng.uniform(2, 4, n.off_b_fp.size).astype(np.float32)
        gq = quantize_graph(g, make_calib_images(32), offset_path=offset_path)
        codes = np.concatenate([_quant_image(gq, img).data for img in make_calib_images(32, seed=17)])
        heads, fields = scalar_network(gq, codes)
        # the 3x3 kernels band their rows; 64 slabs exceed every row count here
        for cpus in (1, 2, 64):
            monkeypatch.setattr(ops, "_CPUS", cpus)
            for got, want in zip(run_inference(gq, QuantTensor(Shape4(*codes.shape), codes)), heads, strict=True):
                assert np.array_equal(got.data, want.astype(got.data.dtype))  # a FloatTensor holds float32
        for off in fields.values():  # the fields vary, so the taps do move
            assert len(np.unique(off.data)) > 1


class TestFloatVsInt:
    def test_tiny_graph_within_quantization_bound(self):
        g = make_tiny_graph(seed=7, channels=6)
        images = make_calib_images(16, count=3, seed=13)
        gq = quantize_graph(g, images)
        img = images[0]
        yf, sf, of = run_inference_float(g, img)
        yq, sq, oq = run_inference(gq, _quant_image(gq, img))

        # worst-case error propagation through the conv chain:
        #   err_out <= ||W_deq - W||_1 * max|x| + ||W_deq||_1 * err_in + delta_out
        # (delta_out covers the requant grid, multiplier approximation and
        # saturation slop; relu and pooling only contract errors)
        stats: dict[str, float] = {}
        run_inference_float(g, img, stats=stats)
        max_abs = {"input": 1.0, **stats}

        def layer_err(name: str, err_in: float) -> float:
            n = g.node(name)
            nq = gq.node(name)
            w = n.w_fp.astype(np.float64)
            w_deq = nq.w_q.data.astype(np.float64) * nq.w_q.qparams.delta
            axes = tuple(range(w.ndim - 1))
            w_err_l1 = float(np.abs(w_deq - w).sum(axis=axes).max())
            w_l1 = float(np.abs(w_deq).sum(axis=axes).max())
            src_max = max_abs[n.inputs[0]]
            return w_err_l1 * src_max + w_l1 * err_in + nq.rp.out_delta

        err = gq.input_delta / 2
        for name in ("stem", "pw", "dw"):
            err = layer_err(name, err)
        bound_s = layer_err("head_s", err)
        bound_o = layer_err("head_o", err)
        bound_y = layer_err("head_y", err)
        assert np.max(np.abs(sq.data - sf)) <= bound_s
        assert np.max(np.abs(oq.data - of)) <= bound_o
        assert np.max(np.abs(yq.data - yf)) <= bound_y / 4  # sigmoid is 1/4-Lipschitz


class TestCalibration:
    """quantize_graph runs one float pass per image, several at once."""

    @pytest.mark.parametrize("make_graph, dims", [
        (make_tiny_graph, (32, 32, 3)),   # twice the tiny graph's 16x16
        (make_tiny_graph, (16, 16, 4)),   # a fourth channel
        (lambda: build_codenet("a"), (128, 128, 3)),
    ])
    def test_rejects_images_that_do_not_fit(self, make_graph, dims):
        g = make_graph()
        good = make_calib_images(g.resolution, count=1)[0]
        bad = FloatTensor(Shape4(1, *dims), np.zeros((1, *dims), dtype=np.float32))
        with pytest.raises(GraphError, match=f"image dims .* resolution {g.resolution}"):
            quantize_graph(g, [good, bad])

    @pytest.mark.parametrize("field,value", [("b_fp", np.nan), ("b_fp", np.inf), ("w_fp", np.inf)])
    def test_nonfinite_parameter_names_its_node(self, field, value):
        # an in-memory graph never passes load_graph's check; without this one
        # the pass failed at a later node, or at none
        g = make_tiny_graph(seed=3, deform=True)
        getattr(g.node("pw"), field).flat[0] = value
        with pytest.raises(GraphError, match="node 'pw': fp32 weights and biases must be finite"):
            quantize_graph(g, make_calib_images(16, count=2))

    @pytest.mark.parametrize("deform", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_image_is_named_before_any_pass(self, monkeypatch, deform, value):
        # without the check, NaN failed at the first deformable node's offset
        # range, or in calibrate with no image named
        def no_pass(*args, **kwargs):
            raise AssertionError("a float pass ran")

        monkeypatch.setattr(G, "run_inference_float", no_pass)
        images = make_calib_images(16, count=3)
        bad = images[1].data.copy()
        bad[0, 5, 7, 2] = value
        images[1] = FloatTensor(images[1].shape, bad)
        with pytest.raises(GraphError, match=r"^calibration image 1 holds a value that is not finite$"):
            quantize_graph(make_tiny_graph(seed=3, deform=deform), images)

    def test_image_order_does_not_change_parameters(self):
        g = make_tiny_graph(seed=3, deform=True)
        a, b, c = make_calib_images(16, count=3, seed=21)
        assert param_digest(quantize_graph(g, [a, b, c])) == param_digest(quantize_graph(g, [c, a, b]))

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_one_cpu_gives_the_same_parameters(self):
        # the affinity call acts on the child only; there quantize_graph runs
        # its passes one after another in a single worker
        script = ("import os; os.sched_setaffinity(0, {0})\n"
                  "from conftest import make_calib_images, make_tiny_graph, param_digest\n"
                  "from codenet.graph import quantize_graph\n"
                  "g = make_tiny_graph(seed=3, deform=True)\n"
                  "print(param_digest(quantize_graph(g, make_calib_images(16, count=3, seed=21))))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        g = make_tiny_graph(seed=3, deform=True)
        assert child.stdout.strip() == param_digest(quantize_graph(g, make_calib_images(16, count=3, seed=21)))

    # param_digest of make_tiny_graph(seed=3, deform=True) calibrated on
    # make_calib_images(16, count=k, seed=21), recorded before the float
    # kernels summed row bands and before one worker ran on the calling thread
    RECORDED = {2: "1944decbe4643097c41eee99d8786c9dca3c9e97b88e2ee2e6bd5b94e03d6741",
                3: "08d040e83d8685bfd92fc830eacbb6f18ca9a8218b9554f89134c24c02b3ad71"}

    def test_several_images_on_one_cpu_give_the_recorded_parameters(self):
        # on one CPU every pass runs in turn on the calling thread, in one
        # band; every image must still be calibrated
        script = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "from conftest import make_calib_images, make_tiny_graph, param_digest\n"
                  "from codenet.graph import quantize_graph\n"
                  "g = make_tiny_graph(seed=3, deform=True)\n"
                  "for k in (2, 3):\n"
                  "    print(param_digest(quantize_graph(g, make_calib_images(16, count=k, seed=21))))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == [self.RECORDED[2], self.RECORDED[3]]
        g = make_tiny_graph(seed=3, deform=True)
        for k in (2, 3):
            assert param_digest(quantize_graph(g, make_calib_images(16, count=k, seed=21))) == self.RECORDED[k]

    def test_image_slabs_with_nested_bands_give_the_recorded_parameters(self):
        # the child reports four CPUs, so its band pool has three threads that
        # the image slabs and their conv bands share, whatever the host
        script = ("import os; os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
                  "from conftest import make_calib_images, make_tiny_graph, param_digest\n"
                  "from codenet.graph import quantize_graph\n"
                  "g = make_tiny_graph(seed=3, deform=True)\n"
                  "for k in (2, 3):\n"
                  "    print(param_digest(quantize_graph(g, make_calib_images(16, count=k, seed=21))))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == [self.RECORDED[2], self.RECORDED[3]]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_passes_share_the_cpus_between_images_and_bands(self, monkeypatch, count):
        calls = []
        real = G.run_inference_float
        images = make_calib_images(16, count=count)

        def run(g, image, stats=None):
            calls.append((threading.get_ident(), image))
            return real(g, image, stats=stats)

        monkeypatch.setattr(G, "run_inference_float", run)
        quantize_graph(make_tiny_graph(seed=3, deform=True), images)
        assert len(calls) == count
        # image 0's pass, and every pass of a lone slab, runs on the calling thread
        assert [t for t, image in calls if image is images[0]] == [threading.get_ident()]
        if min(count, ops._CPUS) == 1:
            assert {t for t, _ in calls} == {threading.get_ident()}

    @pytest.mark.parametrize("count", [1, 2])
    def test_band_workers_enter_no_public_function(self, monkeypatch, count):
        # the traced benchmark wraps these functions with one span stack for
        # all threads: a thread that enters one runs a calibration pass there
        # (the calling thread, or a pool thread that takes a slab of images),
        # while the conv bands that pool threads also take enter none of them,
        # and integer inference enters them on the calling thread only
        entered: dict[str, set[int]] = {}

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                entered.setdefault(name, set()).add(threading.get_ident())
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        g = build_codenet("b")  # has every pass-through kind; its lint enters them
        passthrough = [k for k, v in G.KINDS.items() if not v.kernel]
        spy(G, "run_inference_float")
        for name in ("conv_ref", "deform_conv_ref", *passthrough):
            spy(ops, name)
        images = make_calib_images(g.resolution, count=count)
        gq = quantize_graph(g, images)
        passes = entered.pop("run_inference_float")
        assert set(entered) == {"conv_ref", "deform_conv_ref", *passthrough}
        assert all(threads <= passes for threads in entered.values())

        entered.clear()
        kernels = ("conv1x1_q", "dw3x3_q", "deform_conv_q", "offset_gen", "conv3x3_full_q", "conv_acc", "requantize")
        for name in kernels:
            spy(ops, name)
        for cls in (QuantTensor, AccumTensor):
            spy(cls, "__post_init__")
        run_inference(gq, _quant_image(gq, images[0]))
        assert set(entered) == {*kernels, *passthrough, "__post_init__"}
        assert all(threads == {threading.get_ident()} for threads in entered.values())

    def test_failing_pass_reraises_in_caller(self, monkeypatch):
        images = make_calib_images(16, count=3)
        err = RuntimeError("pass failed")
        real = G.run_inference_float

        def run(g, image, stats=None, **kw):
            if image is images[1]:
                raise err
            return real(g, image, stats=stats, **kw)

        monkeypatch.setattr(G, "run_inference_float", run)
        with pytest.raises(RuntimeError) as caught:
            quantize_graph(make_tiny_graph(), images)
        assert caught.value is err

    def test_scale_groups_join_each_pass_through_node(self):
        g = build_codenet("b")  # has every pass-through kind
        groups = G._scale_groups(g)
        assert set(groups) == {"input", *(v for n in g.nodes for v in n.output_names)}
        for n in g.nodes:
            if not n.is_conv:
                assert len({groups[v] for v in (*n.inputs, *n.output_names)}) == 1
        assert groups["s2d_b1pw"] == groups["s2d_b2pw2"] != groups["s2d_b2pw1"]
        assert groups["input"] not in {groups[n.name] for n in g.nodes if n.is_conv}

    def test_input_and_a_conv_output_cannot_share_a_scale(self):
        # the image's delta and the stem's come from different maxima, so a
        # graph that concatenates them lints but does not quantize
        rng = np.random.default_rng(0)
        c = 4
        nodes = [LayerNode("stem", "full3x3_first", ("input",), ic=3, oc=c, relu=True,
                           w_fp=rng.standard_normal((3, 3, 3, c)).astype(np.float32),
                           b_fp=np.zeros(c, np.float32)),
                 LayerNode("cat", "concat", ("input", "stem"))]
        nodes += [LayerNode(h, "conv1x1", ("cat",), ic=3 + c, oc=2,
                            w_fp=rng.standard_normal((3 + c, 1, 1, 2)).astype(np.float32),
                            b_fp=np.zeros(2, np.float32)) for h in G.HEADS]
        g = G.NetworkGraph(nodes, config="a", resolution=16)
        g.lint()
        with pytest.raises(GraphError, match="^node 'cat': concat inputs carry different scales$"):
            quantize_graph(g, make_calib_images(16))

    def test_float_pass_frees_dead_values(self):
        g = build_codenet("a")
        img = make_calib_images(g.resolution, count=1)[0]
        shapes = G._out_shapes(g)
        outputs = sum(8 * np.prod(shapes[o]) for n in g.nodes for o in n.output_names)
        tracemalloc.start()
        try:
            run_inference_float(g, img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * outputs

    def test_float_pass_peak_holds(self, monkeypatch):
        # one band on the calling thread, so the peak does not depend on the
        # CPU count; measured at 6,990,630 bytes (8,000,974 while the 3x3
        # sums padded float32 maps in float64 and each maximum took an |x|
        # copy), so a full-size copy of a conv output cannot come back unseen
        monkeypatch.setattr(ops, "_CPUS", 1)
        g = build_codenet("a")
        img = make_calib_images(g.resolution, count=1)[0]
        tracemalloc.start()
        try:
            run_inference_float(g, img, stats={})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 6_990_630

    @pytest.mark.parametrize("values,want", [
        ([2.0, -5.0, 1.0], 5.0), ([1.0, np.nan, -3.0], np.nan), ([np.nan], np.nan),
        ([np.inf, 1.0], np.inf), ([-np.inf, 1.0], np.inf), ([-np.inf, np.inf], np.inf),
        ([0.0, -0.0], 0.0), ([-0.0, -0.0], 0.0), ([], 0.0)])
    def test_abs_max(self, values, want):
        got = G._abs_max(np.array(values))
        assert np.isnan(got) if np.isnan(want) else got == want

    def test_abs_max_equals_the_max_of_the_absolute_values(self):
        x = np.random.default_rng(5).standard_normal((3, 9, 7, 5)) * 1e150
        x[0, 0, 0] = -0.0
        for arr in (x, x[..., :2], -np.abs(x), np.abs(x)):
            assert G._abs_max(arr) == float(np.abs(arr).max())
        big = np.full((128, 128, 116), -2.0)  # the size of config d's s2d_b2pw1 output
        tracemalloc.start()
        try:
            assert G._abs_max(big) == 2.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes / 100  # no |x| copy

    def test_float_conv_sums_are_new_arrays(self):
        # run_inference_float adds bias and relu to them in place
        g = make_tiny_graph(seed=3, deform=True)
        x = np.random.default_rng(0).standard_normal((1, 4, 4, 8))
        for n in g.nodes[1:]:  # every conv after the stem reads 8 channels
            out = G.KINDS[n.kind].run_f(n, [x], lambda name, a: a)
            assert not np.shares_memory(out, x)

    def test_inputs_unchanged(self):
        g = make_tiny_graph(seed=3, deform=True)
        images = make_calib_images(16, count=2)

        def float_params():
            return [a for n in g.nodes for a in (n.w_fp, n.b_fp, n.off_w_fp, n.off_b_fp) if a is not None]

        params = [a.copy() for a in float_params()]
        pixels = [img.data.copy() for img in images]
        run_inference_float(g, images[0])
        quantize_graph(g, images)
        assert all(np.array_equal(x, y) for x, y in zip(params, float_params(), strict=True))
        assert all(np.array_equal(x, img.data) for x, img in zip(pixels, images, strict=True))

    def test_stats_accumulate_maxima_across_calls(self):
        g = make_tiny_graph(seed=3, deform=True)
        a, b = make_calib_images(16, count=2, seed=22)
        sa: dict[str, float] = {}
        sb: dict[str, float] = {}
        both: dict[str, float] = {}
        run_inference_float(g, a, stats=sa)
        run_inference_float(g, b, stats=sb)
        run_inference_float(g, a, stats=both)
        run_inference_float(g, b, stats=both)
        assert set(sa) == {"stem", "pw", "dw", "dw/off", "head_y", "head_s", "head_o"}
        assert sa != sb
        assert both == {k: max(sa[k], sb[k]) for k in sa}


def _pointwise_inputs(rng, n, h, w, ic, oc):
    """A channel slice of a wider map, as split_half hands on, with exact
    zeros of both signs, magnitudes over 300 decades and one pixel of -0.0;
    float32 weights with zeros of both signs."""
    wide = rng.standard_normal((n, h, w, ic + 3)) * 10.0 ** rng.integers(-150, 150, (n, h, w, ic + 3))
    wide[rng.random(wide.shape) < 0.2] = -0.0
    wide[rng.random(wide.shape) < 0.1] = 0.0
    wide[0, 0, 0] = -0.0
    wt = (rng.standard_normal((ic, 1, 1, oc)) * 10.0 ** rng.integers(-3, 3, (ic, 1, 1, oc))).astype(np.float32)
    wt[rng.random(wt.shape) < 0.1] = -0.0
    return wide[..., 3:], wt


class TestPointwiseSums:
    """graph._float_conv1x1 sums every output in ic order onto +0: one einsum
    per row band while the float64 weights fit _CACHED_W_BYTES, blocks of
    _PIXEL_BLOCK pixels past it. Both must give the bits of in-order rank-1
    updates for any band count."""

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("shape", [
        (1, 3, 7, 1100, 256),    # 2.15 MiB of weights, past the rule; 21 pixels, under one block
        (2, 12, 12, 1100, 256),  # 144 pixels an image: a remainder of 16 in one band, 8 in two
        (2, 9, 7, 6, 5),         # weights far under the rule
        (1, 16, 16, 232, 464),
    ])
    def test_rank1_bits(self, monkeypatch, shape, cpus):
        monkeypatch.setattr(ops, "_CPUS", cpus)
        x, wt = _pointwise_inputs(np.random.default_rng(41), *shape)
        seen = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda sub, *a, **k: seen.append(sub) or einsum(sub, *a, **k))
        got = G._float_conv1x1(x, wt)
        blocked = 8 * wt.size > G._CACHED_W_BYTES
        assert set(seen) == {"ip,io->po" if blocked else "nhwi,io->nhwo"}
        assert np.array_equal(got.view(np.int64), conv1x1_rank1(x, wt).view(np.int64))

    @pytest.mark.parametrize("ic,oc,cached", [
        (1, 7, None), (1, 7, 0), (1, 1, None), (1, 1, 0),
        # one output channel only in blocks of two pixels or more: numpy
        # reduces a lone output in an order of its own
        (300, 1, 0)])
    def test_one_channel(self, monkeypatch, ic, oc, cached):
        monkeypatch.setattr(ops, "_CPUS", 1)
        if cached is not None:
            monkeypatch.setattr(G, "_CACHED_W_BYTES", cached)
        x, wt = _pointwise_inputs(np.random.default_rng(42), 2, 7, 10, ic, oc)  # a block and 6 pixels
        got = G._float_conv1x1(x, wt)
        assert np.array_equal(got.view(np.int64), conv1x1_rank1(x, wt).view(np.int64))


class TestPassThrough:
    """A pass-through kind is the ops function of its name, in both executors."""

    KINDS = [k for k, v in G.KINDS.items() if not v.kernel]

    def test_out_shapes_match_both_executors(self, monkeypatch):
        # every value either executor produces on config b, which has all five
        # kinds, has the (h, w, c) that the shape walk gives it
        g = build_codenet("b")
        img = make_calib_images(g.resolution, count=1)[0]
        gq = quantize_graph(g, [img])
        seen = {}
        real = G._run_nodes

        def recording(graph, image, run):
            def record(n, xs):
                out = run(n, xs)
                outs = out if isinstance(out, tuple) else (out,)
                seen.update((v, getattr(o, "data", o).shape) for v, o in zip(n.output_names, outs))
                return out
            return real(graph, image, record)
        monkeypatch.setattr(G, "_run_nodes", recording)
        want = {v: (1, *s) for v, s in G._out_shapes(g).items() if v != "input"}
        run_inference_float(g, img)
        assert seen == want
        seen.clear()
        run_inference(gq, _quant_image(gq, img))
        assert seen == want

    @pytest.mark.parametrize("kind, ins", [
        ("maxpool2x2", [(6, 6, 3)]),
        ("upsample2x_nearest", [(3, 3, 2)]),
        ("split_half", [(2, 2, 6)]),
        ("concat", [(2, 2, 4), (2, 2, 6)]),
        ("shuffle", [(3, 3, 8)]),
    ])
    def test_shape_rule_matches_the_op(self, kind, ins):
        # the shape walk gives a node of each kind the shapes its op gives on data
        arrays = [np.arange(np.prod(s), dtype=np.int8).reshape(1, *s) for s in ins]
        out = getattr(ops, kind)(*arrays)
        r = ins[0][0]
        srcs = [LayerNode(f"src{k}", "full3x3_first", ("input",), ic=3, oc=c, stride=r // h)
                for k, (h, _, c) in enumerate(ins)]
        node = LayerNode("n", kind, tuple(n.name for n in srcs))
        g = G.NetworkGraph([*srcs, node], config="a", resolution=r)
        shapes = G._out_shapes(g)
        outs = out if isinstance(out, tuple) else (out,)
        assert [shapes[v] for v in node.output_names] == [o.shape[1:] for o in outs]

    @pytest.mark.parametrize("kind, ins", [
        ("maxpool2x2", [(5, 5, 3)]),
        ("maxpool2x2", [(3, 3, 4)]),
        ("split_half", [(4, 4, 5)]),
        ("concat", [(4, 4, 4), (2, 2, 4)]),
        ("shuffle", [(4, 4, 7)]),
    ])
    def test_odd_inputs_raise_from_both(self, kind, ins):
        # the op rejects the inputs, and lint rejects a node that reads convs
        # of those shapes with the op's message, naming the node
        with pytest.raises(ValueError) as op_error:
            getattr(ops, kind)(*(np.zeros((1, *s)) for s in ins))
        r = ins[0][0]
        srcs = [LayerNode(f"src{k}", "full3x3_first", ("input",), ic=3, oc=c, stride=r // h)
                for k, (h, _, c) in enumerate(ins)]
        g = G.NetworkGraph([*srcs, LayerNode("bad", kind, tuple(n.name for n in srcs))], config="a",
                           resolution=r)
        with pytest.raises(GraphError) as lint_error:
            g.lint()
        assert str(lint_error.value) == f"node 'bad': {op_error.value}"

    def test_entries_hold_no_executor_code(self):
        assert sorted(self.KINDS) == sorted(("maxpool2x2", "upsample2x_nearest", "split_half",
                                             "concat", "shuffle"))
        assert all(G.KINDS[k].run_q is None and G.KINDS[k].run_f is None for k in self.KINDS)

    def test_both_executors_call_the_ops_function(self, monkeypatch):
        g = build_codenet("b")  # b has all five kinds, the maxpool included
        img = make_calib_images(g.resolution, count=1)[0]
        gq = quantize_graph(g, [img])
        calls = []
        for kind in self.KINDS:
            real = getattr(ops, kind)
            monkeypatch.setattr(ops, kind, lambda *xs, _k=kind, _f=real: calls.append(_k) or _f(*xs))
        want = sorted(n.kind for n in g.nodes if not n.is_conv)
        assert set(want) == set(self.KINDS)
        run_inference_float(g, img)
        assert sorted(calls) == want
        calls.clear()
        run_inference(gq, _quant_image(gq, img))
        assert sorted(calls) == want


def test_percentile_clips_the_input_and_weights_only():
    # activation scales come from the calibration maxima whatever the percentile
    g = make_tiny_graph(seed=4, deform=True)
    images = make_calib_images(16, count=2)
    full, clipped = quantize_graph(g, images), quantize_graph(g, images, percentile=99.0)
    assert clipped.input_delta < full.input_delta
    for a, b in zip(full.nodes, clipped.nodes, strict=True):
        for wa, wb, ra, rb in ((a.w_q, b.w_q, a.rp, b.rp), (a.off_w_q, b.off_w_q, a.off_rp, b.off_rp)):
            if wa is not None:
                assert np.all(wb.qparams.t < wa.qparams.t)
                assert rb.out_delta == ra.out_delta


class TestFirstLayerHost:
    """The stem: the one full 3x3 convolution, run on the host in integers."""

    @staticmethod
    def _stem(x, w, stride):
        # multiplier 2**30 >> 30 with zero bias: output codes are the clipped sums
        oc = w.shape[-1]
        rp = RequantParams(np.full(oc, 1 << 30), np.full(oc, 30), np.zeros(oc, dtype=np.int64), 1.0)
        return ops.conv3x3_full_q(QuantTensor(Shape4(*x.shape), x), QuantTensor(Shape4(*w.shape), w, bits=4),
                                  ops.ConvSpec(3, stride, False), rp)

    def test_stride4_output_dims(self):
        rng = np.random.default_rng(0)
        img = rng.integers(-127, 128, (1, 32, 32, 3))
        w = rng.integers(-7, 8, (3, 3, 3, 8))
        assert self._stem(img, w, 4).data.shape == (1, 8, 8, 8)

    def test_stride2_maxpool_output_dims(self):
        rng = np.random.default_rng(1)
        img = rng.integers(-127, 128, (1, 32, 32, 3))
        w = rng.integers(-7, 8, (3, 3, 3, 8))
        assert ops.maxpool2x2(self._stem(img, w, 2).data).shape == (1, 8, 8, 8)

    def test_impulse_matches_loop_oracle(self):
        img = np.zeros((1, 8, 8, 3), dtype=np.int64)
        img[0, 4, 4, 1] = 1
        w = np.random.default_rng(2).integers(-7, 8, (3, 3, 3, 4))
        want = conv2d_loop(img, w, 4, 1, depthwise=False)
        assert np.array_equal(self._stem(img, w, 4).data, want.astype(np.int8))


def test_sigmoid_lut_midpoint():
    lut = sigmoid_lut(0.05)
    assert lut[128] == 0.5  # code 0
    assert lut[128 + 10] == pytest.approx(1.0 / (1.0 + np.exp(-0.5)))
