import gc
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from codenet import ops
from codenet.golden import ref_conv1x1, ref_dw3x3
from codenet.graph import _float_conv1x1
from codenet.ops import (BOUNDED_INT, FREE_FRAC, FREE_INT, SQUARE, ConvSpec,
                         OffsetField, bilinear_sample, conv1x1_q, conv_ref,
                         deform_conv_q, deform_conv_ref, dw3x3_q, offset_gen,
                         round_clip_offsets, square_expand, tap_positions)
from codenet.quant import RequantParams, derive_requant, requantize
from codenet.tensor import FloatTensor, QuantTensor, Shape4

from oracles import bilinear_formula, conv2d_loop, deform_dw_loop, requant_float64

RNG = np.random.default_rng(2024)


def _ft(arr):
    return FloatTensor(Shape4(*arr.shape), arr)


def _qt(arr, bits):
    return QuantTensor(Shape4(*arr.shape), arr, bits=bits)


def _codes(shape, bits, rng=RNG):
    hi = 2 ** (bits - 1) - 1
    return rng.integers(-hi, hi + 1, size=shape, dtype=np.int64).astype(np.int8)


def _unit_rp(oc, relu=False):
    # multiplier/shift pair representing an exact rescale factor of 1
    return RequantParams(np.full(oc, 1 << 30), np.full(oc, 30), np.zeros(oc, dtype=np.int64),
                         out_delta=1.0, relu=relu)


class TestConvRef:
    def test_identity_1x1(self):
        x = _ft(RNG.standard_normal((1, 4, 4, 1)).astype(np.float32))
        w = _ft(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = conv_ref(x, w, ConvSpec(1, 1, False))
        assert np.allclose(out.data, x.data)

    def test_all_ones_interior_is_nine(self):
        x = _ft(np.ones((1, 5, 5, 1), dtype=np.float32))
        w = _ft(np.ones((1, 3, 3, 1), dtype=np.float32))
        out = conv_ref(x, w, ConvSpec(3, 1, False))
        assert out.data[0, 2, 2, 0] == 9.0

    def test_output_dims(self):
        # floor((in + 2*pad - k) / stride) + 1
        x = _ft(np.zeros((1, 11, 9, 2), dtype=np.float32))
        w = _ft(np.zeros((2, 3, 3, 4), dtype=np.float32))
        out = conv_ref(x, w, ConvSpec(3, 2, False))
        assert (out.shape.h, out.shape.w) == (6, 5)

    @pytest.mark.parametrize("depthwise,stride", [(True, 1), (True, 2), (False, 1)])
    def test_matches_loop_oracle(self, depthwise, stride):
        x = RNG.standard_normal((1, 6, 5, 3)).astype(np.float32)
        w_shape = (1, 3, 3, 3) if depthwise else (3, 3, 3, 4)
        w = RNG.standard_normal(w_shape).astype(np.float32)
        out = conv_ref(_ft(x), _ft(w), ConvSpec(3, stride, depthwise))
        want = conv2d_loop(x, w, stride, 1, depthwise)
        assert np.allclose(out.data, want, atol=1e-5)

    def test_shape_mismatch(self):
        x = _ft(np.zeros((1, 4, 4, 3), dtype=np.float32))
        w = _ft(np.zeros((2, 3, 3, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            conv_ref(x, w, ConvSpec(3, 1, False))


class TestBilinear:
    def test_integer_coordinates_exact(self):
        x = _ft(RNG.standard_normal((1, 4, 4, 2)).astype(np.float32))
        assert bilinear_sample(x, 2.0, 3.0, 1) == pytest.approx(float(x.data[0, 2, 3, 1]))

    def test_center_of_equal_pixels(self):
        x = _ft(np.full((1, 2, 2, 1), 5.0, dtype=np.float32))
        assert bilinear_sample(x, 0.5, 0.5, 0) == pytest.approx(5.0)

    def test_matches_formula_oracle(self):
        x = _ft(RNG.standard_normal((1, 5, 6, 3)).astype(np.float32))
        for _ in range(100):
            py = float(RNG.uniform(-2, 6))
            px = float(RNG.uniform(-2, 7))
            c = int(RNG.integers(0, 3))
            assert bilinear_sample(x, py, px, c) == pytest.approx(
                bilinear_formula(x.data, py, px, c), abs=1e-6)


class TestDeformRef:
    def test_zero_offsets_equal_regular(self):
        x = _ft(RNG.standard_normal((1, 6, 6, 4)).astype(np.float32))
        w = _ft(RNG.standard_normal((1, 3, 3, 4)).astype(np.float32))
        spec = ConvSpec(3, 1, True)
        off = OffsetField(FREE_FRAC, np.zeros((1, 6, 6, 9, 2)))
        got = deform_conv_ref(x, w, off, spec)
        want = conv_ref(x, w, spec)
        assert np.allclose(got.data, want.data, atol=1e-5)

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 8, 8, 1)).astype(np.float32)
        shifted = np.roll(np.roll(x, -1, axis=1), -1, axis=2)
        w = rng.standard_normal((1, 3, 3, 1)).astype(np.float32)
        spec = ConvSpec(3, 1, True)
        off = OffsetField(FREE_FRAC, np.ones((1, 8, 8, 9, 2)))
        got = deform_conv_ref(_ft(x), _ft(w), off, spec)
        want = conv_ref(_ft(shifted), _ft(w), spec)
        interior = (slice(0, 1), slice(2, 5), slice(2, 5), slice(None))
        assert np.allclose(got.data[interior], want.data[interior], atol=1e-5)

    def test_matches_scalar_oracle(self):
        x = RNG.standard_normal((1, 4, 4, 1)).astype(np.float32)
        w = RNG.standard_normal((1, 3, 3, 1)).astype(np.float32)
        off = RNG.uniform(-1.5, 1.5, size=(1, 4, 4, 9, 2))
        got = deform_conv_ref(_ft(x), _ft(w), OffsetField(FREE_FRAC, off), ConvSpec(3, 1, True))
        want = deform_dw_loop(x, w, off)
        assert np.allclose(got.data, want, atol=1e-5)

    def test_integer_fields_equal_free_frac_positions(self):
        # an integer field samples whole pixels: the same positions given as
        # fractional deltas from the regular grid give bit-identical sums
        rng = np.random.default_rng(21)
        x = _ft(rng.standard_normal((1, 7, 7, 3)).astype(np.float32))
        w = _ft(rng.standard_normal((1, 3, 3, 3)).astype(np.float32))
        spec = ConvSpec(3, 1, True)
        bounded = OffsetField(BOUNDED_INT, rng.integers(-3, 4, size=(1, 7, 7, 9, 2)), lo=-3, hi=3)
        square = OffsetField(SQUARE, rng.integers(0, 4, size=(1, 7, 7)), lo=0, hi=3)
        # square displacements are absolute tap positions around the center
        for off, delta in ((bounded, bounded.data), (square, square_expand(square.data) - ops.TAPS)):
            want = deform_conv_ref(x, w, OffsetField(FREE_FRAC, delta), spec)
            got = deform_conv_ref(x, w, off, spec)
            assert np.array_equal(got.data, want.data)


def _bits(a):
    """A float array as its bit patterns, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64 if a.dtype == np.float64 else np.int32)


def _tap_loop(x, w, spec):
    """The float tap loop over whole maps, without row bands."""
    n, h, wd, c = x.shape
    oh, ow = spec.out_hw(h, wd)
    st = spec.stride
    xp = np.zeros((n, h + 2, wd + 2, c))
    xp[:, 1:h + 1, 1:wd + 1] = x
    acc = np.zeros((n, oh, ow, c if spec.depthwise else w.shape[-1]))
    for ky in range(3):
        for kx in range(3):
            patch = xp[:, ky:ky + oh * st:st, kx:kx + ow * st:st]
            if spec.depthwise:
                acc += patch * w[0, ky, kx].astype(np.float64)
            else:
                acc += np.einsum("nhwi,io->nhwo", patch, w[:, ky, kx].astype(np.float64))
    return acc


def _idle_permits():
    """Permits of the band pool's idle-thread semaphore that are free now."""
    n = 0
    while ops._IDLE.acquire(blocking=False):
        n += 1
    if n:
        ops._IDLE.release(n)
    return n


class TestRowBands:
    """Every 3x3 kernel and the pointwise float sums split their output rows
    into min(rows, CPUs) slabs; every element is computed the same way for any
    slab count, so the bits match the whole-map computation. 64 CPUs exceed
    every row count here, which gives one slab per row."""

    CPUS = (1, 2, 3, 64)

    def test_slabs_cover_the_rows_once_with_slab_0_on_the_caller(self, monkeypatch):
        for rows, cpus, want in [(7, 1, [(0, 7)]), (7, 3, [(0, 2), (2, 4), (4, 7)]),
                                 (7, 64, [(k, k + 1) for k in range(7)]), (0, 3, [(0, 0)])]:
            monkeypatch.setattr(ops, "_CPUS", cpus)
            seen = []
            ops._in_bands(rows, lambda a, b: seen.append((a, b, threading.get_ident())))
            assert sorted(s[:2] for s in seen) == want
            assert (*want[0], threading.get_ident()) in seen
            assert _idle_permits() == len(os.sched_getaffinity(0)) - 1

    def test_a_failing_slab_raises_after_every_slab_ran(self, monkeypatch):
        monkeypatch.setattr(ops, "_CPUS", 3)
        done = []

        def band(a, b):
            if a in (0, 2):  # the first failing slab's error is raised
                raise RuntimeError(f"slab {a}")
            time.sleep(0.05)
            done.append(a)

        with pytest.raises(RuntimeError, match="slab 0"):
            ops._in_bands(6, band)
        assert done == [4]
        assert _idle_permits() == len(os.sched_getaffinity(0)) - 1

    def test_a_busy_pool_takes_no_slab_and_keeps_no_closure(self, monkeypatch):
        # every pool thread holds an outer slab while slab 0 bands again on
        # the calling thread: the nested slabs must all run there, and once
        # the nested call returns nothing may hold its slab function (a
        # queued or cancelled pool task would keep it and the arrays it reads)
        monkeypatch.setattr(ops, "_CPUS", 64)
        threads = len(os.sched_getaffinity(0)) - 1
        started, release = threading.Semaphore(0), threading.Event()
        seen, alive = [], []

        def nested():
            data = np.zeros(1000)
            ops._in_bands(8, lambda a, b: seen.append((a, b, threading.get_ident(), data.size)))
            return weakref.ref(data)

        def outer(a, b):
            if a:
                started.release()
                assert release.wait(timeout=30)
                return
            try:
                assert all(started.acquire(timeout=30) for _ in range(threads))
                ref = nested()
                gc.collect()
                alive.append(ref() is not None)
            finally:
                release.set()

        ops._in_bands(threads + 1, outer)
        assert [s[:2] for s in seen] == [(k, k + 1) for k in range(8)]
        assert {s[2] for s in seen} == {threading.get_ident()}
        assert alive == [False]
        assert _idle_permits() == threads

    def test_nested_slabs_finish_on_a_saturated_pool(self):
        # more outer slabs than pool threads, each banding again: a thread
        # that waited on a queued inner slab would hang, so the child has a
        # timeout; a short switch interval races the pool threads for permits
        script = ("import sys, time\n"
                  "from codenet import ops\n"
                  "sys.setswitchinterval(1e-5)\n"
                  "outer = ops._CPUS = 2 * ops._CPUS + 1  # more slabs than pool threads\n"
                  "seen = []\n"
                  "def inner(a, b):\n"
                  "    time.sleep(0.01)\n"
                  "    seen.append((a, b))\n"
                  "ops._in_bands(outer, lambda a, b: ops._in_bands(3, inner))\n"
                  "print(len(seen) == 3 * outer, sorted(set(seen)))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "True [(0, 1), (1, 2), (2, 3)]"

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("depthwise,stride", [(True, 1), (True, 2), (False, 1), (False, 2)])
    def test_conv_ref(self, monkeypatch, depthwise, stride, cpus):
        monkeypatch.setattr(ops, "_CPUS", cpus)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 9, 7, 6)).astype(np.float32)
        w = rng.standard_normal((1, 3, 3, 6) if depthwise else (6, 3, 3, 5)).astype(np.float32)
        spec = ConvSpec(3, stride, depthwise)
        want = _tap_loop(x, w, spec)
        assert np.array_equal(_bits(ops._tap_sums(x, w, spec, np.float64)), _bits(want))
        got = conv_ref(_ft(x), _ft(w), spec)  # rounds the sums to float32
        assert np.array_equal(_bits(got.data), _bits(want.astype(np.float32)))

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("depthwise", [True, False])
    @pytest.mark.parametrize("mode", [BOUNDED_INT, SQUARE])
    def test_deform_conv_ref(self, monkeypatch, mode, depthwise, cpus):
        # the reference samples the same whole pixels through fractional
        # positions, which take the four-corner path in one band
        monkeypatch.setattr(ops, "_CPUS", cpus)
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2, 9, 7, 4)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] = -0.0
        w = _ft(rng.standard_normal((1, 3, 3, 4) if depthwise else (4, 3, 3, 5)).astype(np.float32))
        spec = ConvSpec(3, 1, depthwise)
        if mode == SQUARE:
            off = OffsetField(SQUARE, rng.integers(0, 4, size=(2, 9, 7)), lo=0, hi=3)
            delta = square_expand(off.data) - ops.TAPS
        else:
            off = OffsetField(BOUNDED_INT, rng.integers(-4, 4, size=(2, 9, 7, 9, 2)), lo=-4, hi=3)
            delta = off.data
        want = deform_conv_ref(_ft(x), w, OffsetField(FREE_FRAC, delta), spec)
        got = deform_conv_ref(_ft(x), w, off, spec)
        assert np.array_equal(_bits(got.data), _bits(want.data))

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("shape", [(2, 9, 7, 6, 5), (1, 16, 16, 232, 464)])
    def test_float_conv1x1(self, monkeypatch, shape, cpus):
        monkeypatch.setattr(ops, "_CPUS", cpus)
        rng = np.random.default_rng(34)
        n, h, wd, ic, oc = shape
        x = rng.standard_normal((n, h, wd, ic))
        w = rng.standard_normal((ic, 1, 1, oc)).astype(np.float32)
        want = np.einsum("nhwi,io->nhwo", x, w[:, 0, 0, :].astype(np.float64))
        assert np.array_equal(_bits(_float_conv1x1(x, w)), _bits(want))

    def test_one_gather_equals_four_corners_on_integer_positions(self):
        rng = np.random.default_rng(35)
        xp = rng.standard_normal((2, 5, 6, 4))
        xp[rng.random(xp.shape) < 0.3] = -0.0
        py = rng.integers(-3, 8, size=(2, 4, 5))
        px = rng.integers(-3, 9, size=(2, 4, 5))
        got = ops._sample(xp, py, px)
        want = ops._sample(xp, py.astype(np.float64), px.astype(np.float64))
        assert np.array_equal(got, want)
        # the draw covers taps inside the map and outside it
        inside = (py >= 0) & (py < 5) & (px >= 0) & (px < 6)
        assert np.any(inside) and not np.all(inside)


class TestClipAndSquare:
    def test_clip_examples(self):
        raw = lambda v: np.full((1, 1, 1, 18), v)
        assert round_clip_offsets(raw(9.3), BOUNDED_INT, 0, 7).data.max() == 7
        assert round_clip_offsets(raw(-1.2), BOUNDED_INT, 0, 7).data.min() == 0
        assert round_clip_offsets(raw(-9.6), BOUNDED_INT, -8, 7).data.min() == -8
        # square half-widths clamp into [max(lo, 0), hi]
        assert round_clip_offsets(np.full((1, 1, 1, 1), -3.0), SQUARE, -8, 7).data.min() == 0

    def test_clip_rounds_before_clamping(self):
        off = round_clip_offsets(np.full((1, 1, 1, 18), 2.5), BOUNDED_INT, -8, 7)
        assert off.data.max() == 3  # half away from zero

    def test_empty_range_rejected(self):
        for mode, lo, hi in ((BOUNDED_INT, 3, 2), (SQUARE, 3, 2), (SQUARE, -8, -1)):
            raw = np.zeros((1, 1, 1, ops.offset_channels(mode)))
            with pytest.raises(ValueError, match="empty"):
                round_clip_offsets(raw, mode, lo, hi)

    def test_square_expand_d1_is_standard_grid(self):
        taps = square_expand(np.array([[[1]]]))
        expected = [(ky, kx) for ky in (-1, 0, 1) for kx in (-1, 0, 1)]
        assert taps[0, 0, 0].tolist() == [list(t) for t in expected]

    def test_square_expand_d0_degenerate(self):
        taps = square_expand(np.array([[[0]]]))
        assert np.all(taps == 0)

    def test_square_expand_d2_dilated(self):
        taps = square_expand(np.array([[[2]]]))
        ys = sorted(set(taps[0, 0, 0, :, 0].tolist()))
        assert ys == [-2, 0, 2]


class TestTapPositions:
    def test_window_centers_and_grid(self):
        # center of output (y, x) is (y, x) * stride: the padding is kernel // 2
        iy, ix = tap_positions(None, ConvSpec(3, 2, True), 4, 3)
        assert iy.shape == ix.shape == (1, 4, 3, 9)
        y, x = np.meshgrid(np.arange(4), np.arange(3), indexing="ij")
        assert np.array_equal(iy[0], 2 * y[..., None] + ops.TAPS[:, 0])
        assert np.array_equal(ix[0], 2 * x[..., None] + ops.TAPS[:, 1])

    def test_pointwise_single_center_tap(self):
        iy, ix = tap_positions(None, ConvSpec(1, 1, False), 2, 3)
        assert iy.shape == (1, 2, 3, 1)
        assert iy[0, :, :, 0].tolist() == [[0] * 3, [1] * 3]
        assert ix[0, :, :, 0].tolist() == [[0, 1, 2]] * 2

    def test_square_unit_half_width_is_regular_grid(self):
        spec = ConvSpec(3, 1, True)
        square = OffsetField(SQUARE, np.ones((2, 5, 4), dtype=np.int64), lo=0, hi=1)
        zero = OffsetField(BOUNDED_INT, np.zeros((2, 5, 4, 9, 2)))
        for a, b in zip(tap_positions(square, spec, 5, 4), tap_positions(zero, spec, 5, 4)):
            assert a.shape == (2, 5, 4, 9) and np.array_equal(a, b)


class TestIntegerKernels:
    def test_conv1x1_identity(self):
        x = _codes((1, 3, 3, 4), 8)
        w = np.zeros((4, 1, 1, 4), dtype=np.int8)
        np.fill_diagonal(w[:, 0, 0, :], 1)
        out = conv1x1_q(_qt(x, 8), _qt(w, 4), _unit_rp(4))
        assert np.array_equal(out.data, x)

    def test_conv1x1_two_term_dot(self):
        x = np.array([3, 4], dtype=np.int8).reshape(1, 1, 1, 2)
        w = np.ones((2, 1, 1, 1), dtype=np.int8)
        out = conv1x1_q(_qt(x, 8), _qt(w, 4), _unit_rp(1))
        assert out.data[0, 0, 0, 0] == 7

    def test_conv1x1_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            ic, oc = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            x = _codes((1, 3, 3, ic), 8, rng)
            w = _codes((ic, 1, 1, oc), 4, rng)
            mult = rng.integers(1 << 30, 1 << 31, size=oc)
            shift = rng.integers(34, 40, size=oc)
            bias = rng.integers(-5, 6, size=oc)
            rp = RequantParams(mult, shift, bias, out_delta=1.0)
            got = conv1x1_q(_qt(x, 8), _qt(w, 4), rp)
            acc = ref_conv1x1(x, w)
            want = np.clip((acc * mult + (np.int64(1) << (shift - 1))) // (np.int64(1) << shift) + bias,
                           -127, 127)
            assert np.array_equal(got.data.astype(np.int64), want)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("stride", [4, 2])
    def test_conv3x3_full_matches_loop_oracle(self, stride, relu):
        # the stem kernel: full 3x3 sums, then fixed-point requantization
        rng = np.random.default_rng([11, stride, relu])
        x = _codes((1, 13, 10, 3), 8, rng)
        w = _codes((3, 3, 3, 6), 4, rng)
        mult = rng.integers(1 << 30, 1 << 31, size=6)
        shift = rng.integers(35, 39, size=6)
        bias = rng.integers(-5, 6, size=6)
        rp = RequantParams(mult, shift, bias, out_delta=1.0, relu=relu)
        got = ops.conv3x3_full_q(_qt(x, 8), _qt(w, 4), ConvSpec(3, stride, False), rp)
        acc = conv2d_loop(x, w, stride, 1, depthwise=False).astype(np.int64)
        assert np.array_equal(got.data, requant_float64(acc, mult, shift, bias, relu))

    def test_deform_square_d1_collapses_to_regular(self):
        rng = np.random.default_rng(9)
        x = _codes((1, 8, 8, 16), 8, rng)
        w = _codes((1, 3, 3, 16), 4, rng)
        rp = _unit_rp(16)
        spec = ConvSpec(3, 1, True)
        off = OffsetField(SQUARE, np.ones((1, 8, 8), dtype=np.int64), lo=0, hi=7)
        got = deform_conv_q(_qt(x, 8), _qt(w, 4), off, spec, rp)
        want = dw3x3_q(_qt(x, 8), _qt(w, 4), spec, rp)
        assert np.array_equal(got.data, want.data)

    def test_integer_free_offsets_match_float_reference(self):
        rng = np.random.default_rng(10)
        x = _codes((1, 6, 6, 2), 8, rng)
        w = _codes((1, 3, 3, 2), 4, rng)
        vals = rng.integers(-2, 3, size=(1, 6, 6, 9, 2))
        off_i = OffsetField(FREE_INT, vals)
        off_f = OffsetField(FREE_FRAC, vals.astype(np.float64))
        spec = ConvSpec(3, 1, True)
        got = ops.conv_acc(_qt(x, 8), _qt(w, 4), spec, off_i)
        want = deform_conv_ref(_ft(x.astype(np.float32)), _ft(w.astype(np.float32)), off_f, spec)
        assert np.allclose(got.data.astype(np.float64), want.data, atol=1e-4)

    def test_fractional_offsets_rejected(self):
        x = _codes((1, 4, 4, 1), 8)
        w = _codes((1, 3, 3, 1), 4)
        off = OffsetField(FREE_FRAC, np.zeros((1, 4, 4, 9, 2)))
        with pytest.raises(ValueError):
            deform_conv_q(_qt(x, 8), _qt(w, 4), off, ConvSpec(3, 1, True), _unit_rp(1))

    def test_offset_containment_property(self):
        rng = np.random.default_rng(13)
        raw = rng.uniform(-20, 20, size=(1, 8, 8, 9, 2))
        hi = 7
        off = round_clip_offsets(raw, BOUNDED_INT, 0, hi)
        # max sampled row distance from the output row is hi + 1 (tap reach)
        disp = off.data[..., 0]
        tap_rows = np.array([ky for ky in (-1, 0, 1) for _ in range(3)])
        dist = disp + tap_rows[None, None, None, :]
        assert dist.max() <= hi + 1


def _conv_call(kind, depthwise, w_shape, off_nhw=(1, 6, 6), spec=None):
    """A call of conv entry point ``kind`` on a 6x6x4 zero input, weights of
    ``w_shape`` and, for the deformable kinds, a zero field of ``off_nhw``,
    with ``spec`` or else the stride-1 3x3 spec of ``depthwise``."""
    spec = spec or ConvSpec(3, 1, depthwise)
    xf, wf = _ft(np.zeros((1, 6, 6, 4), np.float32)), _ft(np.zeros(w_shape, np.float32))
    xq, wq = _qt(np.zeros((1, 6, 6, 4), np.int8), 8), _qt(np.zeros(w_shape, np.int8), 4)
    off, rp = OffsetField(BOUNDED_INT, np.zeros((*off_nhw, 9, 2))), _unit_rp(w_shape[-1])
    return {
        "conv_ref": lambda: conv_ref(xf, wf, spec),
        "deform_conv_ref": lambda: deform_conv_ref(xf, wf, off, spec),
        "conv1x1_q": lambda: conv1x1_q(xq, wq, rp),
        "dw3x3_q": lambda: dw3x3_q(xq, wq, spec, rp),
        "conv3x3_full_q": lambda: ops.conv3x3_full_q(xq, wq, spec, rp),
        "deform_conv_q": lambda: deform_conv_q(xq, wq, off, spec, rp),
    }[kind]


class TestConvChecks:
    """Every conv entry point rejects weights of the wrong layout and the
    deformable ones an offset field that misses the output, each with the
    same message; the right layout runs."""

    RIGHT = {"conv_ref": (True, (1, 3, 3, 4)), "deform_conv_ref": (False, (4, 3, 3, 6)),
             "conv1x1_q": (False, (4, 1, 1, 6)), "dw3x3_q": (True, (1, 3, 3, 4)),
             "conv3x3_full_q": (False, (4, 3, 3, 6)), "deform_conv_q": (True, (1, 3, 3, 4))}

    @pytest.mark.parametrize("kind,depthwise,w_shape", [
        ("conv_ref", True, (2, 3, 3, 4)), ("conv_ref", True, (1, 3, 3, 5)),
        ("conv_ref", False, (5, 3, 3, 6)), ("conv_ref", False, (4, 1, 1, 6)),
        ("deform_conv_ref", True, (2, 3, 3, 4)), ("deform_conv_ref", True, (1, 5, 5, 4)),
        ("deform_conv_ref", False, (5, 3, 3, 6)),
        ("conv1x1_q", False, (5, 1, 1, 6)), ("conv1x1_q", False, (4, 3, 3, 6)),
        ("dw3x3_q", True, (2, 3, 3, 4)), ("dw3x3_q", True, (1, 3, 3, 5)),
        ("conv3x3_full_q", False, (5, 3, 3, 6)), ("conv3x3_full_q", False, (4, 1, 1, 6)),
        ("deform_conv_q", True, (2, 3, 3, 4)), ("deform_conv_q", True, (1, 5, 5, 4)),
    ])
    def test_wrong_weight_layout(self, kind, depthwise, w_shape):
        _conv_call(kind, *self.RIGHT[kind])()
        with pytest.raises(ValueError, match="weights of shape .* do not match"):
            _conv_call(kind, depthwise, w_shape)()

    @pytest.mark.parametrize("off_nhw", [(2, 6, 6), (1, 5, 6), (1, 6, 3)])
    @pytest.mark.parametrize("kind", ["deform_conv_ref", "deform_conv_q"])
    def test_offset_field_must_cover_the_output(self, kind, off_nhw):
        with pytest.raises(ValueError, match="offset field spatial shape"):
            _conv_call(kind, *self.RIGHT[kind], off_nhw=off_nhw)()

    @pytest.mark.parametrize("kind,spec", [
        ("dw3x3_q", ConvSpec(3, 1, False)), ("dw3x3_q", ConvSpec(1, 1, True)),
        ("conv3x3_full_q", ConvSpec(3, 1, True)), ("conv3x3_full_q", ConvSpec(1, 1, False)),
        ("deform_conv_q", ConvSpec(3, 1, False)), ("deform_conv_q", ConvSpec(1, 1, True)),
    ])
    def test_wrong_engine_spec(self, kind, spec):
        # each integer kernel runs the one spec of its engine, whatever the weights
        with pytest.raises(ValueError, match=f"{kind} expects a (depthwise|full) 3x3 spec"):
            _conv_call(kind, *self.RIGHT[kind], spec=spec)()


def _extreme_codes(shape, bits, rng):
    # every code at full magnitude (127 or 7), signs drawn at random
    hi = 2 ** (bits - 1) - 1
    return (hi * rng.choice(np.array([-1, 1]), size=shape)).astype(np.int8)


class TestExactAccumulation:
    # float32 sums of 8-bit x 4-bit code products are exact up to 18,872
    # terms (889 * 18,872 <= 2**24); beyond that the kernels use int64.
    def _max_dot(self, ic):
        x = np.full((1, 1, 1, ic), 127, dtype=np.int8)
        w = np.full((ic, 1, 1, 1), 7, dtype=np.int8)
        return int(ops.conv_acc(_qt(x, 8), _qt(w, 4), ConvSpec(1)).data[0, 0, 0, 0])

    def test_largest_float32_sum_is_exact(self):
        assert self._max_dot(18_872) == 16_777_208

    def test_sum_beyond_the_bound_is_exact(self):
        # odd and above 2**24, so float32 cannot hold it
        assert self._max_dot(18_873) == 16_778_097

    def test_bound_survives_optimized_mode(self):
        # the bound is a branch, not an assert that `python -O` strips
        code = ("import numpy as np; from codenet.ops import ConvSpec, conv_acc; "
                "from codenet.tensor import QuantTensor, Shape4; "
                "x = QuantTensor(Shape4(1, 1, 1, 18873), np.full((1, 1, 1, 18873), 127)); "
                "w = QuantTensor(Shape4(18873, 1, 1, 1), np.full((18873, 1, 1, 1), 7), bits=4); "
                "print(conv_acc(x, w, ConvSpec(1)).data[0, 0, 0, 0])")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert out.stdout.strip() == "16778097"

    def test_int16_only_for_depthwise_sums_of_at_most_36_terms(self):
        # 889 * 36 = 32,004 fits int16; 889 * 37 = 32,893 does not
        assert ops._acc_dtype(9, True) is ops._acc_dtype(36, True) is np.int16
        assert ops._acc_dtype(37, True) is np.float32
        for terms in (1, 9, 24, 27, 36, 18_872):
            assert ops._acc_dtype(terms, False) is np.float32
        assert ops._acc_dtype(18_873, False) is np.int64

    def test_int16_bound_survives_optimized_mode(self):
        code = ("from codenet.ops import _acc_dtype; "
                "print(_acc_dtype(36, True).__name__, _acc_dtype(37, True).__name__, _acc_dtype(9, False).__name__)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert out.stdout.split() == ["int16", "float32", "float32"]

    def test_pointwise_ic_24_sums_in_float32_and_matches_int64_oracle(self, monkeypatch):
        # 24 terms would fit int16, but a contraction must stay a BLAS matmul
        seen = []
        pick = ops._acc_dtype
        monkeypatch.setattr(ops, "_acc_dtype", lambda *a: seen.append(pick(*a)) or seen[-1])
        rng = np.random.default_rng(24)
        x = _extreme_codes((1, 6, 5, 24), 8, rng)
        w = _extreme_codes((24, 1, 1, 10), 4, rng)
        x[0, 0, 0], w[:, 0, 0, 0] = 127, 7  # output (0, 0, 0) sums 24 products of 889
        got = ops.conv_acc(_qt(x, 8), _qt(w, 4), ConvSpec(1))
        want = ref_conv1x1(x, w)
        assert seen == [np.float32]
        assert np.array_equal(got.data, want) and got.data[0, 0, 0, 0] == 24 * 889

    def test_full_3x3_beyond_the_float32_bound_is_exact(self):
        # 9 taps x 2,097 channels = 18,873 terms: the int64 tap loop, not the float32 GEMM
        x = np.full((1, 3, 3, 2097), 127, dtype=np.int8)
        w = np.full((2097, 3, 3, 1), 7, dtype=np.int8)
        got = ops.conv_acc(_qt(x, 8), _qt(w, 4), ConvSpec(3, 1, False))
        assert got.data[0, 1, 1, 0] == 16_778_097 and got.data[0, 0, 0, 0] == 4 * 2097 * 889

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_stem_gemm_matches_loop_oracle(self, stride):
        rng = np.random.default_rng([25, stride])
        x = _extreme_codes((2, 13, 11, 3), 8, rng)
        w = _extreme_codes((3, 3, 3, 5), 4, rng)
        got = ops.conv_acc(_qt(x, 8), _qt(w, 4), ConvSpec(3, stride, False))
        assert np.array_equal(got.data, conv2d_loop(x, w, stride, 1, depthwise=False).astype(np.int64))

    def test_full_deformable_gemm_matches_float64_reference(self):
        # integer offsets make the float64 reference exact on code values
        rng = np.random.default_rng(26)
        x = _extreme_codes((1, 7, 6, 4), 8, rng)
        w = _extreme_codes((4, 3, 3, 3), 4, rng)
        off = OffsetField(BOUNDED_INT, rng.integers(-2, 3, size=(1, 7, 6, 9, 2)), lo=-2, hi=2)
        got = ops.conv_acc(_qt(x, 8), _qt(w, 4), ConvSpec(3, 1, False), off)
        want = deform_conv_ref(_ft(x.astype(np.float32)), _ft(w.astype(np.float32)), off, ConvSpec(3, 1, False))
        assert np.array_equal(got.data, want.data.astype(np.int64))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_dw3x3_extreme_codes_match_loop_oracle(self, stride):
        rng = np.random.default_rng([21, stride])
        x = _extreme_codes((1, 9, 11, 5), 8, rng)
        w = _extreme_codes((1, 3, 3, 5), 4, rng)
        x[0, :4, :4, 0], w[..., 0] = 127, 7  # output (1, 1) sees 9 products of 889
        got = ops.conv_acc(_qt(x, 8), _qt(w, 4), ConvSpec(3, stride, True))
        want = conv2d_loop(x, w, stride, 1, depthwise=True).astype(np.int64)
        assert np.array_equal(got.data, want) and got.data[0, 1, 1, 0] == 9 * 889

    def test_conv3x3_full_extreme_codes_match_loop_oracle(self):
        rng = np.random.default_rng(22)
        x = _extreme_codes((1, 10, 10, 3), 8, rng)
        w = _extreme_codes((3, 3, 3, 4), 4, rng)
        # a rescale below 2**-8 keeps every 27-term sum (|acc| <= 24,003) unsaturated
        mult = rng.integers(1 << 30, 1 << 31, size=4)
        shift = np.full(4, 39)
        bias = rng.integers(-3, 4, size=4)
        rp = RequantParams(mult, shift, bias, out_delta=1.0)
        got = ops.conv3x3_full_q(_qt(x, 8), _qt(w, 4), ConvSpec(3, 2, False), rp)
        acc = conv2d_loop(x, w, 2, 1, depthwise=False).astype(np.int64)
        assert np.array_equal(got.data, requant_float64(acc, mult, shift, bias, False))

    def test_deform_extreme_codes_match_loop_oracle(self):
        rng = np.random.default_rng(23)
        x = _extreme_codes((1, 7, 8, 6), 8, rng)
        w = _extreme_codes((1, 3, 3, 6), 4, rng)
        vals = rng.integers(-3, 4, size=(1, 7, 8, 9, 2))
        off = OffsetField(BOUNDED_INT, vals, lo=-3, hi=3)
        got = ops.conv_acc(_qt(x, 8), _qt(w, 4), ConvSpec(3, 1, True), off)
        want = ref_dw3x3(x, w, off=off)
        assert np.array_equal(got.data, want)


class TestNoInputMutation:
    def _check(self, fn, *tensors):
        before = [t.data.copy() for t in tensors]
        fn(*tensors)
        for t, b in zip(tensors, before):
            assert np.array_equal(t.data, b) and t.data.dtype == b.dtype

    def test_kernels_and_requantize_leave_inputs_unchanged(self):
        rng = np.random.default_rng(31)
        x = _qt(_codes((1, 6, 6, 4), 8, rng), 8)
        rp = RequantParams(rng.integers(1 << 30, 1 << 31, size=4), np.full(4, 36),
                           rng.integers(-5, 6, size=4), out_delta=1.0, relu=True)
        dw = _qt(_codes((1, 3, 3, 4), 4, rng), 4)
        spec = ConvSpec(3, 1, True)
        off = OffsetField(BOUNDED_INT, rng.integers(-2, 3, size=(1, 6, 6, 9, 2)), lo=-2, hi=2)
        off_before = off.data.copy()
        self._check(lambda a, b: conv1x1_q(a, b, rp), x, _qt(_codes((4, 1, 1, 4), 4, rng), 4))
        self._check(lambda a, b: dw3x3_q(a, b, spec, rp), x, dw)
        self._check(lambda a, b: deform_conv_q(a, b, off, spec, rp), x, dw)
        self._check(lambda a, b: ops.conv3x3_full_q(a, b, ConvSpec(3, 2, False), rp),
                    x, _qt(_codes((4, 3, 3, 4), 4, rng), 4))
        assert np.array_equal(off.data, off_before)
        acc = ops.conv_acc(x, _qt(_codes((4, 1, 1, 4), 4, rng), 4), ConvSpec(1))
        self._check(lambda a: requantize(a, rp), acc)


class TestOffsetGen:
    def _setup(self, mode, rng):
        ic = 4
        ch = 1 if mode == SQUARE else 18
        x = _codes((1, 3, 3, ic), 8, rng)
        w = _codes((ic, 1, 1, ch), 4, rng)
        return x, w

    def test_zero_weights_zero_offsets(self):
        rng = np.random.default_rng(1)
        for mode in (BOUNDED_INT, SQUARE):
            x, w = self._setup(mode, rng)
            w = np.zeros_like(w)
            rp = _unit_rp(w.shape[-1])
            off = offset_gen(_qt(x, 8), _qt(w, 4), rp, mode, 0, 7)
            assert np.all(off.data == 0)

    def test_square_channel_reduction(self):
        assert 18 // 1 == 18  # one value per position instead of eighteen
        rng = np.random.default_rng(2)
        x, w = self._setup(SQUARE, rng)
        off = offset_gen(_qt(x, 8), _qt(w, 4), _unit_rp(1), SQUARE, 0, 7)
        assert off.data.shape == (1, 3, 3)
        x, w = self._setup(BOUNDED_INT, rng)
        off = offset_gen(_qt(x, 8), _qt(w, 4), _unit_rp(18), BOUNDED_INT, 0, 7)
        assert off.data.shape == (1, 3, 3, 9, 2)

    def test_bias_clamped_into_range(self):
        rng = np.random.default_rng(3)
        x, w = self._setup(BOUNDED_INT, rng)
        x = np.zeros_like(x)
        w = np.zeros_like(w)
        rp = RequantParams(np.full(18, 1 << 30), np.full(18, 30),
                           np.full(18, 12), out_delta=1.0)
        off = offset_gen(_qt(x, 8), _qt(w, 4), rp, BOUNDED_INT, 0, 7)
        assert np.all(off.data == 7)

    def test_wrong_channel_count(self):
        rng = np.random.default_rng(4)
        x, w = self._setup(BOUNDED_INT, rng)
        with pytest.raises(ValueError):
            offset_gen(_qt(x, 8), _qt(w, 4), _unit_rp(18), SQUARE, 0, 7)

    def test_direct_path_close_to_requant_path(self):
        rng = np.random.default_rng(6)
        x, w = self._setup(BOUNDED_INT, rng)
        rp = derive_requant(0.05, np.full(18, 0.01), 0.2)
        a = offset_gen(_qt(x, 8), _qt(w, 4), rp, BOUNDED_INT, -8, 7, path="requant")
        b = offset_gen(_qt(x, 8), _qt(w, 4), rp, BOUNDED_INT, -8, 7, path="direct")
        assert np.max(np.abs(a.data - b.data)) <= 1


class TestCodeDomainHelpers:
    def test_shuffle_inverse_identity(self):
        x = _codes((1, 2, 2, 8), 8)
        y = ops.shuffle(x)
        # inverting the interleave: shuffle with the transposed grouping
        d = y.reshape(1, 2, 2, 4, 2).swapaxes(3, 4).reshape(1, 2, 2, 8)
        assert np.array_equal(d, x)

    def test_split_concat_round_trip(self):
        x = _codes((1, 2, 2, 6), 8)
        a, b = ops.split_half(x)
        assert np.array_equal(ops.concat(a, b), x)

    def test_maxpool(self):
        arr = np.array([[1, 2], [3, 4]], dtype=np.int8).reshape(1, 2, 2, 1)
        out = ops.maxpool2x2(arr)
        assert out[0, 0, 0, 0] == 4

    def test_upsample_nearest(self):
        arr = np.array([[1]], dtype=np.int8).reshape(1, 1, 1, 1)
        out = ops.upsample2x_nearest(arr)
        assert np.all(out == 1)
