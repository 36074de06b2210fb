import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codenet import quant
from codenet.quant import (PER_CHANNEL, PER_LAYER, QuantParams, RequantParams,
                           calibrate, dequantize, derive_requant, quantize, requantize)
from codenet.tensor import AccumTensor, FloatTensor, Shape4

from oracles import normalize_factor_scalar, quantize_scalar, requant_float64


def _ft(values, shape=None):
    arr = np.asarray(values, dtype=np.float32)
    if shape is None:
        shape = (1, 1, 1, arr.size)
    return FloatTensor(Shape4(*shape), arr.reshape(shape))


def _qp(bits, t, granularity=PER_LAYER):
    return QuantParams(bits, granularity, np.atleast_1d(np.asarray(t, dtype=np.float64)))


class TestClamp:
    """quantize clamps into [-t, t] before scaling, so codes saturate at +-qmax."""

    def test_in_range_identity(self):
        # 0.5 lies inside t = 1: no clamp, 0.5 * 127 = 63.5 rounds away to 64
        out = quantize(_ft([0.5]), _qp(8, 1.0))
        assert out.data[0, 0, 0, 0] == 64

    def test_upper_clamp(self):
        out = quantize(_ft([200.0]), _qp(8, 127.0))
        assert out.data[0, 0, 0, 0] == 127

    def test_both_boundaries_and_zero(self):
        out = quantize(_ft([-3.2, 0.0, 9.9, -2.0, 2.0]), _qp(8, 2.0))
        assert out.data.ravel().tolist() == [-127, 0, 127, -127, 127]
        per_channel = quantize(_ft([-9.0, 9.0], shape=(1, 1, 1, 2)), _qp(4, [1.0, 20.0], PER_CHANNEL))
        assert per_channel.data.ravel().tolist() == [-7, 3]

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            _qp(8, 0.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, [1.0, np.nan]], ids=["nan", "inf", "channel_nan"])
    def test_nonfinite_threshold_rejected(self, t):
        granularity = PER_CHANNEL if np.ndim(t) else PER_LAYER
        with pytest.raises(ValueError, match="positive and finite"):
            _qp(8, t, granularity)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        q = quantize(_ft([0.0]), _qp(8, 5.0))
        assert q.data[0, 0, 0, 0] == 0

    def test_unit_step(self):
        # t = 127 at 8 bits gives delta exactly 1
        q = quantize(_ft([3.4]), _qp(8, 127.0))
        assert q.data[0, 0, 0, 0] == 3

    def test_matches_scalar_oracle_4bit(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-7, 7, size=256).astype(np.float32)
        q = quantize(_ft(xs), _qp(4, 7.0))
        expected = [quantize_scalar(float(np.float32(x)), 7.0, 4) for x in xs]
        assert q.data.ravel().tolist() == expected

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            quantize(_ft([0.5, np.nan, -0.5]), _qp(8, 1.0))

    def test_infinities_clamp_to_the_threshold(self):
        q = quantize(_ft([np.inf, -np.inf, 1e30]), _qp(4, 2.0))
        assert q.data.ravel().tolist() == [7, -7, 7]

    def test_per_channel_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        t = np.array([0.5, 3.0, 7.0])
        xs = rng.uniform(-8, 8, size=(1, 4, 5, 3)).astype(np.float32)
        q = quantize(FloatTensor(Shape4(1, 4, 5, 3), xs), _qp(8, t, PER_CHANNEL))
        expected = [quantize_scalar(float(x), float(t[i % 3]), 8) for i, x in enumerate(xs.ravel())]
        assert q.data.ravel().tolist() == expected

    def test_dequantize_unit_step(self):
        q = quantize(_ft([3.0]), _qp(8, 127.0))
        assert dequantize(q).data[0, 0, 0, 0] == 3.0

    def test_round_trip_error_bound(self):
        rng = np.random.default_rng(3)
        for bits, t in ((4, 2.5), (8, 1.0)):
            xs = rng.uniform(-t, t, size=2048).astype(np.float32)
            q = quantize(_ft(xs), _qp(bits, t))
            back = dequantize(q).data.ravel()
            delta = t / (2 ** (bits - 1) - 1)
            assert np.max(np.abs(back - xs.astype(np.float64))) <= delta / 2 * (1 + 1e-9)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_quantize_monotone(a, b):
    qp = _qp(8, 4.0)
    lo, hi = sorted((a, b))
    qa = quantize(_ft([lo]), qp).data[0, 0, 0, 0]
    qb = quantize(_ft([hi]), qp).data[0, 0, 0, 0]
    assert qa <= qb


@given(st.floats(-4, 4))
def test_quantize_odd_symmetry(x):
    qp = _qp(8, 4.0)
    qpos = quantize(_ft([x]), qp).data[0, 0, 0, 0]
    qneg = quantize(_ft([-x]), qp).data[0, 0, 0, 0]
    assert qneg == -qpos


class TestCalibrate:
    def test_per_layer_max_abs(self):
        qp = calibrate([_ft([-3.0, 2.0])], bits=8)
        assert qp.t[0] == 3.0

    def test_per_channel_max_abs(self):
        qp = calibrate([_ft([1.0, -5.0], shape=(1, 1, 1, 2))], bits=8, granularity=PER_CHANNEL)
        assert qp.t.tolist() == [1.0, 5.0]

    def test_all_zero_fallback(self):
        qp = calibrate([_ft([0.0, 0.0])], bits=4)
        assert qp.t[0] == 1.0
        assert qp.delta[0] == 1.0 / 7.0

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            calibrate([], bits=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("granularity", [PER_LAYER, PER_CHANNEL])
    def test_nonfinite_sample_raises(self, bad, granularity):
        # a nan maximum must not fall back to t = 1 as an all-zero group does
        with pytest.raises(ValueError, match="positive and finite"):
            calibrate([_ft([1.0, bad], shape=(1, 1, 1, 2))], bits=4, granularity=granularity)


class TestDeriveRequant:
    def test_power_of_two_factor(self):
        rp = derive_requant(1.0, [0.5], 1.0)
        assert rp.multiplier[0] == 2**30
        assert rp.shift[0] == 31

    def test_one_third_precision(self):
        rp = derive_requant(1.0, [1.0 / 3.0], 1.0)
        approx = rp.multiplier[0] * 2.0 ** (-rp.shift[0])
        assert abs(approx - 1.0 / 3.0) < 2.0**-24 / 3.0

    def test_zero_bias(self):
        rp = derive_requant(1.0, [0.25], 1.0, bias_fp=[0.0])
        assert rp.bias[0] == 0

    def test_factor_above_one(self):
        rp = derive_requant(4.0, [1.0], 1.0)
        assert abs(rp.multiplier[0] * 2.0 ** (-rp.shift[0]) - 4.0) < 1e-6

    def test_underflow_rejected(self):
        with pytest.raises(ValueError):
            derive_requant(1.0, [2.0**-40], 1.0)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            derive_requant(0.0, [1.0], 1.0)

    @pytest.mark.parametrize("out_delta", [0.0, -1.0, np.nan, np.inf])
    def test_bad_out_delta_rejected(self, out_delta):
        with pytest.raises(ValueError, match="out_delta .* is not positive and finite"):
            RequantParams([1 << 30], [31], [0], out_delta=out_delta)

    def test_matches_scalar_oracle(self):
        # log-uniform factors inside the normalizable range, plus the edges:
        # 1 - 2**-33 rounds its mantissa up to 1.0, 2**-33 takes the largest
        # shift and 2**31 - 1 the smallest
        rng = np.random.default_rng(13)
        factors = np.concatenate([np.exp2(rng.uniform(-32.9, 30.9, 5000)),
                                  [1 - 2.0**-33, 2.0**-33, 2.0**31 - 1, 0.5, 1.0]])
        rp = derive_requant(1.0, factors, 1.0)
        want = [normalize_factor_scalar(float(f)) for f in factors]
        assert rp.multiplier.tolist() == [m for m, _ in want]
        assert rp.shift.tolist() == [s for _, s in want]
        assert normalize_factor_scalar(1 - 2.0**-33) == (2**30, 30)  # 1.0 exactly

    @pytest.mark.parametrize("in_delta,w_delta,message", [
        (1.0, [0.5, 2.0**-40], f"rescale factor {2.0**-40} too small for a 63-bit shift"),
        (1.0, [2.0**31], "too large to normalize"),
        (1.0, [0.5, np.inf], "must be positive and finite"),
        (1e-200, [1e-200], "must be positive and finite"),
    ])
    def test_unnormalizable_factor_rejected(self, in_delta, w_delta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            derive_requant(in_delta, w_delta, 1.0)

    def test_bias_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="share one length"):
            derive_requant(1.0, [0.5, 0.25], 1.0, bias_fp=[1.0])


class TestRequantize:
    def _acc(self, values, oc=1):
        arr = np.asarray(values, dtype=np.int32)
        return AccumTensor(Shape4(1, 1, 1 if arr.ndim == 0 else arr.size // oc, oc),
                           arr.reshape(1, 1, -1, oc))

    def test_zero(self):
        rp = derive_requant(1.0, [0.5], 1.0)
        out = requantize(self._acc([0]), rp)
        assert out.data[0, 0, 0, 0] == 0

    def test_exact_halving_saturation_boundary(self):
        rp = derive_requant(1.0, [0.5], 1.0)
        out = requantize(self._acc([254]), rp)
        assert out.data[0, 0, 0, 0] == 127

    def test_saturates(self):
        rp = derive_requant(1.0, [0.5], 1.0)
        out = requantize(self._acc([100000, -100000]), rp)
        assert out.data.ravel().tolist() == [127, -127]

    def test_one_channel_params_not_broadcast(self):
        rp = derive_requant(1.0, [0.5], 1.0)
        with pytest.raises(ValueError, match="^requant params carry 1 channels, accumulator has 4$"):
            requantize(self._acc([1, 2, 3, 4], oc=4), rp)

    def test_matches_float64_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            oc = int(rng.integers(1, 9))
            acc = rng.integers(-(1 << 20), (1 << 20) + 1, size=(1, 4, 4, oc)).astype(np.int32)
            mult = rng.integers(1 << 30, 1 << 31, size=oc)
            shift = rng.integers(31, 45, size=oc)
            bias = rng.integers(-1000, 1000, size=oc)
            relu = bool(rng.integers(0, 2))
            rp = RequantParams(mult, shift, bias, out_delta=1.0, relu=relu)
            got = requantize(AccumTensor(Shape4(1, 4, 4, oc), acc), rp)
            want = requant_float64(acc, mult, shift, bias, relu)
            assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("block", [1, 5, 12, 1 << 17])
    def test_blocks_give_the_unblocked_codes(self, monkeypatch, block):
        # blocks of whole rows, a last partial block, and channels wider than a block
        rng = np.random.default_rng(block)
        oc = 7
        acc = rng.integers(-(1 << 20), (1 << 20) + 1, size=(1, 3, 5, oc)).astype(np.int32)
        mult = rng.integers(1 << 30, 1 << 31, size=oc)
        shift = rng.integers(31, 45, size=oc)
        bias = rng.integers(-1000, 1000, size=oc)
        monkeypatch.setattr(quant, "_BLOCK", block)
        got = requantize(AccumTensor(Shape4(1, 3, 5, oc), acc), RequantParams(mult, shift, bias, out_delta=1.0))
        assert np.array_equal(got.data, requant_float64(acc, mult, shift, bias, False))

    def test_matches_python_integers_at_the_extremes(self):
        # every shift from 0 to 63 with int32 extremes of bias and accumulator
        shifts = [0, 1, 31, 33, 40, 62, 63]
        biases = [0, 1, -1, (1 << 22) - 1, 1 << 22, -(1 << 29), (1 << 31) - 1, -(1 << 31)]
        pairs = [(s, b) for s in shifts for b in biases]
        rng = np.random.default_rng(12)
        oc = len(pairs)
        mult = rng.integers(1 << 30, 1 << 31, size=oc)
        shift = np.array([s for s, _ in pairs])
        bias = np.array([b for _, b in pairs])
        acc = rng.integers(-(1 << 31), 1 << 31, size=(1, 1, 6, oc), dtype=np.int64)
        acc[0, 0, :2] = [-(1 << 31)], [(1 << 31) - 1]
        acc = acc.astype(np.int32)
        for relu in (False, True):
            rp = RequantParams(mult, shift, bias, out_delta=1.0, relu=relu)
            got = requantize(AccumTensor(Shape4(1, 1, 6, oc), acc), rp).data
            for (i, j), a in np.ndenumerate(acc[0, 0]):
                m, s, b = int(mult[j]), int(shift[j]), int(bias[j])
                want = ((int(a) * m + (1 << s >> 1)) >> s) + b
                assert got[0, 0, i, j] == min(max(want, 0 if relu else -127), 127), (s, b, int(a))

    def test_determinism(self):
        rng = np.random.default_rng(5)
        acc = rng.integers(-(1 << 20), 1 << 20, size=(1, 8, 8, 4)).astype(np.int32)
        rp = derive_requant(0.01, [0.02, 0.3, 0.004, 0.11], 0.05, bias_fp=[1.0, -2.0, 0.0, 3.5])
        a = requantize(AccumTensor(Shape4(1, 8, 8, 4), acc), rp)
        b = requantize(AccumTensor(Shape4(1, 8, 8, 4), acc), rp)
        assert np.array_equal(a.data, b.data)


@settings(max_examples=200)
@given(st.integers(-(1 << 20), 1 << 20), st.integers(0, 40))
def test_requantize_rounding_identity(acc, shift):
    # the integer rounding shift equals round-half-up in the shifted domain
    m = 1 << 30
    rp = RequantParams([m], [shift], [0], out_delta=1.0)
    got = requantize(AccumTensor(Shape4(1, 1, 1, 1), np.array([[[[acc]]]], dtype=np.int32)), rp)
    want = requant_float64(np.array([[[[acc]]]], dtype=np.int32),
                           np.array([m]), np.array([shift]), np.array([0]), False)
    assert got.data[0, 0, 0, 0] == int(want.ravel()[0])
