"""Symmetric uniform quantizer and the integer requantization pipeline.

The quantizer clamps to a threshold ``t``, divides by the step
``delta = t / (2**(k-1) - 1)`` and rounds half away from zero, which keeps
the code range symmetric under negation. Requantization rescales 32-bit
accumulators back to 8-bit codes with a per-channel fixed-point multiplier,
right shift and bias, so results are bit-exact across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .tensor import AccumTensor, FloatTensor, QuantTensor, Shape4, symmetric_bounds

PER_LAYER = "per_layer"
PER_CHANNEL = "per_channel"

# Fixed-point multipliers are normalized into [2**30, 2**31); the relative
# approximation error of M * 2**-s is then below 2**-30.
_M_HI = 1 << 31
_MAX_SHIFT = 63
# Elements per block of requantize: its int64 buffer (1 MiB) stays in cache.
_BLOCK = 1 << 17


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest with ties away from zero (numpy rounds ties to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


@dataclass(frozen=True)
class QuantParams:
    """Threshold/step pair per quantization group.

    ``per_layer`` uses a single group; ``per_channel`` one group per channel
    of the innermost NHWC dimension.
    """

    bits: int
    granularity: str
    t: np.ndarray
    delta: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _, qmax = symmetric_bounds(self.bits)
        if self.granularity not in (PER_LAYER, PER_CHANNEL):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        t = np.atleast_1d(np.asarray(self.t, dtype=np.float64))
        if not np.all((t > 0) & (t < np.inf)):
            raise ValueError("thresholds must be positive and finite")
        if self.granularity == PER_LAYER and t.size != 1:
            raise ValueError("per-layer params take a single threshold")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta", t / qmax)
        self.t.setflags(write=False)
        self.delta.setflags(write=False)

    @property
    def num_groups(self) -> int:
        return self.t.size


def _group_view(qp: QuantParams, shape: Shape4, values: np.ndarray) -> np.ndarray:
    """Broadcast per-group values over an NHWC array."""
    if qp.granularity == PER_LAYER:
        return values.reshape(1, 1, 1, 1)
    if values.size != shape.c:
        raise ValueError(f"per-channel params carry {values.size} groups, tensor has {shape.c} channels")
    return values.reshape(1, 1, 1, shape.c)


def quantize(x: FloatTensor, qp: QuantParams) -> QuantTensor:
    """Clamp, scale by 1/delta and round half away from zero, in place on
    one float64 buffer. NaN has no code and raises; ±inf clamps to ±t."""
    t = _group_view(qp, x.shape, qp.t)
    delta = _group_view(qp, x.shape, qp.delta)
    if np.isnan(x.data).any():
        raise ValueError("cannot quantize NaN")
    buf = x.data.astype(np.float64)
    np.clip(buf, -t, t, out=buf)
    buf /= delta
    np.abs(buf, out=buf)  # round half away from zero: floor(|v| + 0.5) with the sign of x
    buf += 0.5
    np.floor(buf, out=buf)
    np.copysign(buf, x.data, out=buf)
    lo, hi = symmetric_bounds(qp.bits)
    codes = np.clip(buf, lo, hi, out=buf).astype(np.int8)
    return QuantTensor(x.shape, codes, bits=qp.bits, qparams=qp)


def dequantize(q: QuantTensor) -> FloatTensor:
    """Reconstruct reals as delta * code."""
    if q.qparams is None:
        raise ValueError("tensor carries no quantization params")
    delta = _group_view(q.qparams, q.shape, q.qparams.delta)
    return FloatTensor(q.shape, q.data.astype(np.float64) * delta)


def calibrate(
    samples: Iterable[FloatTensor | np.ndarray],
    bits: int,
    granularity: str = PER_LAYER,
    percentile: float | None = None,
) -> QuantParams:
    """Pick thresholds from calibration samples.

    Default policy is the max absolute value per group; ``percentile`` (e.g.
    99.9) switches to percentile clipping of the absolute values. Groups that
    never see a nonzero value fall back to t = 1 so the step stays positive;
    a non-finite threshold raises.
    """
    arrays = [s.data if isinstance(s, FloatTensor) else np.asarray(s) for s in samples]
    if not arrays:
        raise ValueError("calibration needs at least one sample")
    if granularity == PER_CHANNEL:
        channels = arrays[0].shape[-1]
        per_sample = []
        for a in arrays:
            flat = np.abs(a.reshape(-1, channels).astype(np.float64))
            if percentile is None:
                per_sample.append(flat.max(axis=0))
            else:
                per_sample.append(np.percentile(flat, percentile, axis=0))
        t = np.max(np.stack(per_sample), axis=0)
    else:
        flat = np.abs(np.concatenate([a.reshape(-1).astype(np.float64) for a in arrays]))
        t = np.atleast_1d(flat.max() if percentile is None else np.percentile(flat, percentile))
    t = np.where(t == 0, 1.0, t)
    return QuantParams(bits, granularity, t)


@dataclass(frozen=True)
class RequantParams:
    """Per-output-channel fixed-point rescale: code = (acc*M >> s) + bias.

    ``multiplier`` is normalized into [2**30, 2**31) so M * 2**-s tracks the
    real factor in_delta * w_delta / out_delta to better than 2**-24 relative
    error. ``out_delta`` is the step of the produced 8-bit activation, its one
    record (activation tensors carry no ``qparams``); ``relu`` applies
    max(0, .) after the clamp (folded activation).
    """

    multiplier: np.ndarray
    shift: np.ndarray
    bias: np.ndarray
    out_delta: float
    relu: bool = False

    def __post_init__(self) -> None:
        m = np.atleast_1d(np.asarray(self.multiplier, dtype=np.int64))
        s = np.atleast_1d(np.asarray(self.shift, dtype=np.int64))
        b = np.atleast_1d(np.asarray(self.bias, dtype=np.int64))
        if not (m.shape == s.shape == b.shape):
            raise ValueError("multiplier/shift/bias must share one length")
        if np.any(m < 0) or np.any(m >= _M_HI):
            raise ValueError("multiplier out of 32-bit range")
        if np.any(s < 0) or np.any(s > _MAX_SHIFT):
            raise ValueError("shift outside [0, 63]")
        info = np.iinfo(np.int32)
        if np.any(b < info.min) or np.any(b > info.max):
            raise ValueError("bias outside 32-bit range")
        for name, arr in (("multiplier", m), ("shift", s), ("bias", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not 0 < self.out_delta < np.inf:
            raise ValueError(f"out_delta {self.out_delta!r} is not positive and finite")

    @property
    def num_channels(self) -> int:
        return self.multiplier.size


def derive_requant(
    in_delta: float,
    w_delta: Sequence[float] | np.ndarray,
    out_delta: float,
    bias_fp: Sequence[float] | np.ndarray | None = None,
    relu: bool = False,
) -> RequantParams:
    """Fixed-point rescale parameters for in_delta * w_delta / out_delta."""
    if in_delta <= 0 or out_delta <= 0:
        raise ValueError("deltas must be positive")
    w_delta = np.atleast_1d(np.asarray(w_delta, dtype=np.float64))
    if np.any(w_delta <= 0):
        raise ValueError("deltas must be positive")
    factor = in_delta * w_delta / out_delta
    bad = (factor <= 0) | ~np.isfinite(factor)
    if bad.any():
        raise ValueError(f"rescale factor {factor[bad][0]} must be positive and finite")
    mantissa, exp = np.frexp(factor)  # factor = mantissa * 2**exp, mantissa in [0.5, 1)
    mult = np.rint(mantissa * _M_HI).astype(np.int64)
    shift = 31 - exp.astype(np.int64)
    up = mult == _M_HI  # mantissa rounded up to 1.0
    mult, shift = np.where(up, mult >> 1, mult), shift - up
    for out, why in ((shift > _MAX_SHIFT, "too small for a 63-bit shift"), (shift < 0, "too large to normalize")):
        if out.any():
            raise ValueError(f"rescale factor {factor[out][0]} {why}")
    if bias_fp is None:
        bias = np.zeros_like(mult)
    else:
        bias = round_half_away(np.atleast_1d(np.asarray(bias_fp, dtype=np.float64)) / out_delta)
        bias = bias.astype(np.int64)
    return RequantParams(mult, shift, bias, out_delta=out_delta, relu=relu)


def requantize(acc: AccumTensor, rp: RequantParams) -> QuantTensor:
    """Rescale a 32-bit accumulator to 8-bit codes.

    The rounding shift adds 2**(s-1) before the arithmetic right shift
    (round half up in the shifted domain), the bias is added and the result
    saturates into [-127, 127] ([0, 127] with relu). The steps run in place
    on one reused int64 buffer of about ``_BLOCK`` elements, one block of
    accumulator rows after another, so the buffer stays in cache, and each
    block's codes go straight into the int8 output.
    """
    c = acc.shape.c
    if rp.num_channels != c:
        raise ValueError(f"requant params carry {rp.num_channels} channels, accumulator has {c}")
    s = rp.shift
    add = np.where(s > 0, np.int64(1) << np.maximum(s - 1, 0), 0)
    lo, hi = symmetric_bounds(8)
    lo = 0 if rp.relu else lo
    flat = acc.data.reshape(-1, c)
    step = max(_BLOCK // c, 1)
    buf = np.empty((min(step, len(flat)), c), dtype=np.int64)
    codes = np.empty(flat.shape, dtype=np.int8)
    for a in range(0, len(flat), step):
        b = min(a + step, len(flat))
        out = buf[:b - a]
        np.multiply(flat[a:b], rp.multiplier, out=out)  # |acc| <= 2**31, M < 2**31: fits int64
        out += add
        out >>= s
        out += rp.bias
        np.clip(out, lo, hi, out=codes[a:b], casting="unsafe")  # in [lo, hi]: the cast is exact
    return QuantTensor(acc.shape, codes.reshape(acc.shape.dims), bits=8)
