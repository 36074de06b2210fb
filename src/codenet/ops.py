"""Operators: conv float references and integer kernels, and pass-through ops.

Weight layout conventions (NHWC-friendly, output channels contiguous):
  full k x k : shape (ic, k, k, oc)
  depthwise  : shape (1, k, k, c)
  1 x 1      : shape (ic, 1, 1, oc)

Every kernel is zero-padded by kernel // 2, so the window of output (y, x) is
centered on input (y, x) * stride, and a deformable 3x3 kernel with zero
displacements reduces exactly to the regular convolution. ``tap_positions``
is the one place that turns an offset field into sampled positions, for both
deformable kernels and memsim traces. Every 3x3 kernel, float or integer,
regular or deformable, sums its taps in ``_tap_sums``; a deformable tap reads
``_sample`` (one ``_gather`` at integer positions, four bilinear corners at
fractional ones), and ``_check_conv`` is the one check of weight layouts and
offset fields.
Every integer kernel sums code products exactly in ``conv_acc`` (depthwise
sums in int16, contractions in float32 so BLAS can do the work, each under
its bound in ``_acc_dtype``, gathering whole pixels with no interpolation)
and requantizes that 32-bit accumulator to 8-bit codes; out-of-bounds samples
read as zero in both the float and integer paths.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .quant import RequantParams, requantize, round_half_away
from .tensor import AccumTensor, FloatTensor, QuantTensor, Shape4

FREE_FRAC = "free_frac"
FREE_INT = "free_int"
BOUNDED_INT = "bounded_int"
SQUARE = "square"
# How offset_gen turns its accumulator into offsets (see there).
OFFSET_PATHS = ("requant", "direct")

# Row-major 3x3 tap grid: (dy, dx) of each tap from the window center, shape (9, 2).
TAPS = np.array([(ky, kx) for ky in (-1, 0, 1) for kx in (-1, 0, 1)], dtype=np.int64)
TAPS.setflags(write=False)


def offset_channels(mode: str) -> int:
    """Channels of the offset-generating 1x1 convolution: one half-width per
    position in square mode, a (dy, dx) pair per tap otherwise."""
    return 1 if mode == SQUARE else 2 * len(TAPS)


@dataclass(frozen=True)
class ConvSpec:
    """A convolution's shape. The input is zero-padded by kernel // 2 on each
    side, so the window of output (y, x) is centered on input
    (y, x) * stride and the output is ceil(h / stride) x ceil(w / stride)."""

    kernel: int = 3
    stride: int = 1
    depthwise: bool = False

    def __post_init__(self) -> None:
        if self.kernel not in (1, 3):
            raise ValueError("kernel must be 1 or 3")
        if self.stride not in (1, 2, 4):
            raise ValueError("stride must be 1, 2 or 4")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h - 1) // self.stride + 1
        ow = (w - 1) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError("spatial dims collapse to zero")
        return oh, ow


@dataclass(frozen=True)
class OffsetField:
    """Per-output-position sampling displacements.

    Free modes store (n, h, w, 9, 2) arrays ordered (dy, dx) per row-major
    tap; square mode stores one non-negative half-width d per position with
    shape (n, h, w). ``lo``/``hi`` document the clipped range for the integer
    modes.
    """

    mode: str
    data: np.ndarray
    lo: int = 0
    hi: int = 0

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if self.mode in (FREE_FRAC, FREE_INT, BOUNDED_INT):
            if data.ndim != 5 or data.shape[3:] != (9, 2):
                raise ValueError("free-mode offsets need shape (n,h,w,9,2)")
            dtype = np.float64 if self.mode == FREE_FRAC else np.int64
            data = data.astype(dtype)
            if self.mode == BOUNDED_INT and data.size:
                if data.min() < self.lo or data.max() > self.hi:
                    raise ValueError(f"bounded offsets must lie in [{self.lo},{self.hi}]")
        elif self.mode == SQUARE:
            if data.ndim != 3:
                raise ValueError("square-mode offsets need shape (n,h,w)")
            data = data.astype(np.int64)
            if data.size and (data.min() < 0 or data.max() > self.hi):
                raise ValueError(f"square half-widths must lie in [0,{self.hi}]")
        else:
            raise ValueError(f"unknown offset mode {self.mode!r}")
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def spatial(self) -> tuple[int, int, int]:
        return self.data.shape[:3]


def square_expand(d: np.ndarray) -> np.ndarray:
    """Expand per-position half-widths into the nine tap displacements.

    Taps sit on {-d, 0, d} x {-d, 0, d} relative to the window center, i.e. a
    dilated 3x3 pattern with a spatially varying dilation factor; d = 1 is the
    standard neighborhood and d = 0 collapses all taps onto the center.
    """
    d = np.asarray(d, dtype=np.int64)
    if d.size and d.min() < 0:
        raise ValueError("square half-widths must be non-negative")
    return d[..., None, None] * TAPS


def round_clip_offsets(reals: np.ndarray, mode: str, lo: int, hi: int) -> OffsetField:
    """Round real offsets half away from zero and clamp them into [lo, hi].

    ``reals`` has shape (n, h, w, ...) with ``offset_channels(mode)`` values
    per position: a half-width in square mode, clamped into [max(lo, 0), hi],
    or a (dy, dx) pair per tap for every other mode, which yields a
    bounded_int field. The clamp comes before the integer cast, so
    out-of-range reals cannot overflow it.
    """
    n, h, w = reals.shape[:3]
    if mode == SQUARE:
        lo, shape = max(lo, 0), (n, h, w)
    else:
        mode, shape = BOUNDED_INT, (n, h, w, len(TAPS), 2)
    if lo > hi:
        raise ValueError(f"empty offset range [{lo},{hi}]")
    vals = np.clip(round_half_away(reals), lo, hi).astype(np.int64).reshape(shape)
    return OffsetField(mode, vals, lo=lo, hi=hi)


def tap_positions(off: OffsetField | None, spec: ConvSpec, oh: int, ow: int) -> tuple[np.ndarray, np.ndarray]:
    """Input (row, column) sampled by each tap of each output position, two
    arrays of shape (n, oh, ow, taps); n is 1 without an offset field.

    The window of output (y, x) is centered at (y, x) * stride; a 1x1 kernel
    has a single tap at the center. A tap samples its grid position plus its
    displacement, added in that order so float positions round once. Square displacements are already absolute tap
    positions around the center and replace the grid.
    """
    taps = TAPS if spec.kernel == 3 else np.zeros((1, 2), dtype=np.int64)
    cy = (np.arange(oh) * spec.stride)[:, None, None]
    cx = (np.arange(ow) * spec.stride)[None, :, None]
    if off is None:
        shape = (1, oh, ow, len(taps))
        return np.broadcast_to(cy + taps[:, 0], shape), np.broadcast_to(cx + taps[:, 1], shape)
    if off.mode == SQUARE:
        disp = square_expand(off.data)
        return cy + disp[..., 0], cx + disp[..., 1]
    return (cy + taps[:, 0]) + off.data[..., 0], (cx + taps[:, 1]) + off.data[..., 1]


def window_rows(mode: str | None, lo: int, hi: int) -> int:
    """Input rows that one output row's 3x3 windows read with offsets of
    ``mode`` clamped into [lo, hi] (None: no offsets): the span of the tap rows
    of the fields at the range's two ends, each tap's row being monotone in its offset."""
    ends = [None] if mode is None else [
        round_clip_offsets(np.full((1, 1, 1, offset_channels(mode)), v), mode, lo, hi) for v in (lo, hi)]
    rows = np.concatenate([tap_positions(off, ConvSpec(), 1, 1)[0].ravel() for off in ends])
    return int(rows.max() - rows.min()) + 1


# ---------------------------------------------------------------------------
# Float reference path
# ---------------------------------------------------------------------------

# The one thread pool: row bands of every float 3x3 kernel and the pointwise
# float sums, and the calibration passes of graph.quantize_graph, whose bands nest in
# it. Each output element gets the same numpy operations in the same order
# however the rows are banded; einsum and the ufuncs release the GIL, so threads
# suffice. A band calls only numpy and private helpers, never a public function.
_CPUS = len(os.sched_getaffinity(0))
_BAND_POOL = ThreadPoolExecutor(max(_CPUS - 1, 1))  # on one CPU no permit exists: never used
_IDLE = threading.Semaphore(_CPUS - 1)  # one permit per idle pool thread


def _in_bands(rows: int, fn: Callable[[int, int], None]) -> None:
    """Call ``fn(a, b)`` once per contiguous slab [a, b) of min(rows, CPUs)
    slabs covering range(rows). Each slab after the first that finds an idle
    pool thread (a permit of ``_IDLE``, held until the slab ends) runs there,
    so no slab waits in the queue; the rest run on the calling thread. Every
    slab has run when this returns or raises the first failing slab's error."""
    n = max(min(rows, _CPUS), 1)
    slabs = [(rows * k // n, rows * (k + 1) // n) for k in range(n)]

    def pooled(a: int, b: int) -> None:
        try:
            fn(a, b)
        finally:
            _IDLE.release()

    mine = n - sum(_IDLE.acquire(blocking=False) for _ in slabs[1:])  # slab 0 stays here
    futures = [_BAND_POOL.submit(pooled, a, b) for a, b in slabs[mine:]]
    errors = []
    for call in [partial(fn, a, b) for a, b in slabs[:mine]] + [f.result for f in futures]:
        try:
            call()
        except BaseException as e:
            errors.append(e)
    if errors:
        raise errors[0]


def _tap_sums(data: np.ndarray, w: np.ndarray, spec: ConvSpec, dtype: type,
              off: OffsetField | None = None) -> np.ndarray:
    """Zero-padded convolution sums in ``dtype``. Depthwise kernels, and
    contractions in float64 or int64, accumulate tap by tap, the float64
    reference in the row bands of ``_in_bands``; a float32 contraction
    gathers every tap into one (rows, taps·ic) column matrix and takes one
    matmul, exact under the bound of ``_acc_dtype``. With an offset field
    each tap reads ``_sample`` at its ``tap_positions`` instead of a slice of
    the padded map. The map is padded, or gathered, in its own dtype (int8
    codes, or the float32 input of the float reference) and widens exactly
    in the products."""
    n, h, wd, ic = data.shape
    oh, ow = spec.out_hw(h, wd)
    pad, st = spec.kernel // 2, spec.stride
    taps = list(np.ndindex(spec.kernel, spec.kernel))
    if off is None:
        xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, ic), dtype=data.dtype)
        xp[:, pad:pad + h, pad:pad + wd, :] = data
    else:
        iy, ix = tap_positions(off, spec, oh, ow)

    def patch(tap: int, a: int, b: int) -> np.ndarray:
        if off is None:
            ky, kx = taps[tap]
            return xp[:, ky + a * st:ky + b * st:st, kx:kx + ow * st:st, :]
        return _sample(data, iy[:, a:b, :, tap], ix[:, a:b, :, tap])

    if dtype is np.float32 and not spec.depthwise:
        cols = np.stack([patch(t, 0, oh) for t in range(len(taps))], axis=3).astype(dtype)
        wcols = w.transpose(1, 2, 0, 3).reshape(len(taps) * ic, -1).astype(dtype)  # rows in (tap, ic) order
        return (cols.reshape(-1, len(taps) * ic) @ wcols).reshape(n, oh, ow, -1)
    acc = np.zeros((n, oh, ow, ic if spec.depthwise else w.shape[-1]), dtype=dtype)

    def band(a: int, b: int) -> None:
        for t, (ky, kx) in enumerate(taps):
            if spec.depthwise:
                acc[:, a:b] += patch(t, a, b) * w[0, ky, kx, :].astype(dtype)
            else:
                acc[:, a:b] += np.einsum("nhwi,io->nhwo", patch(t, a, b).astype(dtype, copy=False),
                                         w[:, ky, kx, :].astype(dtype))

    if dtype is np.float64:
        _in_bands(oh, band)
    else:  # integer sums move 1-2 bytes an element: handing bands to the pool was slower
        band(0, oh)
    return acc


def _gather(data: np.ndarray, py: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Pixels of (n,H,W,C) ``data`` at integer positions of shape (n, ...), in
    the dtype of ``data``; positions beyond the map read zero."""
    n, h, w, _ = data.shape
    nn = np.arange(n).reshape((n,) + (1,) * (py.ndim - 1))
    valid = (py >= 0) & (py < h) & (px >= 0) & (px < w)
    return data[nn, np.clip(py, 0, h - 1), np.clip(px, 0, w - 1), :] * valid[..., None]


def _sample(data: np.ndarray, py: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Bilinear samples of (n,H,W,C) ``data`` at positions of shape (n, ...).

    Integer positions take one ``_gather``. The four-corner sum there is
    1 * v plus three zero-weight corners, so it equals v for finite inputs,
    up to the sign of a zero, which no sum that starts at +0 keeps.
    Fractional positions sum four weighted corners in float64.
    """
    if py.dtype.kind == px.dtype.kind == "i":
        return _gather(data, py, px)
    y0, x0 = np.floor(py), np.floor(px)
    fy, fx = py - y0, px - x0
    y0, x0 = y0.astype(np.int64), x0.astype(np.int64)
    return sum(((fy if dy else 1.0 - fy) * (fx if dx else 1.0 - fx))[..., None] * _gather(data, y0 + dy, x0 + dx)
               for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)))


def _check_conv(x: FloatTensor | QuantTensor, w: FloatTensor | QuantTensor, spec: ConvSpec,
                off: OffsetField | None = None) -> None:
    """Weights of shape (1,k,k,c) for a depthwise spec or (ic,k,k,oc) for a
    full one; an offset field needs a 3x3 kernel and the output's (n, h, w)."""
    n, h, wd, ic = x.shape.dims
    k = spec.kernel
    want = (1, k, k, ic) if spec.depthwise else (ic, k, k, w.shape.c)
    if w.shape.dims != want:
        kind = "depthwise" if spec.depthwise else "full"
        raise ValueError(f"weights of shape {w.shape.dims} do not match the {kind} layout {want}")
    if off is not None:
        if k != 3:
            raise ValueError("deformable convolution is defined for 3x3 kernels")
        if off.spatial != (n, *spec.out_hw(h, wd)):
            raise ValueError("offset field spatial shape must match the output")


def conv_ref(x: FloatTensor, w: FloatTensor, spec: ConvSpec) -> FloatTensor:
    """Direct zero-padded convolution, full or depthwise."""
    _check_conv(x, w, spec)
    acc = _tap_sums(x.data, w.data, spec, np.float64)
    return FloatTensor(Shape4(*acc.shape), acc)


def bilinear_sample(x: FloatTensor, py: float, px: float, c: int) -> float:
    """Four-neighbor weighted sample of image 0; coordinates beyond the grid read zero."""
    return float(_sample(x.data[:1], np.array([py]), np.array([px]))[0, c])


def deform_conv_ref(x: FloatTensor, w: FloatTensor, off: OffsetField, spec: ConvSpec) -> FloatTensor:
    """Float deformable 3x3 convolution, bilinear at fractional positions;
    integer offset fields of any mode sample whole pixels exactly, with one
    gather per tap."""
    _check_conv(x, w, spec, off)
    acc = _tap_sums(x.data, w.data, spec, np.float64, off=off)
    return FloatTensor(Shape4(*acc.shape), acc)


# ---------------------------------------------------------------------------
# Integer kernels mirroring the accelerator engines
# ---------------------------------------------------------------------------

# A product of an 8-bit and a 4-bit code is at most 127 * 7 in magnitude;
# int16 holds every integer up to 2**15 - 1 and float32 every one up to 2**24.
_MAX_PRODUCT = 127 * 7
_I16_EXACT = (1 << 15) - 1
_F32_EXACT = 1 << 24


def _acc_dtype(terms: int, depthwise: bool) -> type:
    """Accumulator dtype for sums of ``terms`` code products, exact while
    every partial sum, in any order, fits it: int16 for depthwise sums of
    ``terms`` <= 36 (a 3x3 reaches 8,001), float32 for contractions of
    ``terms`` <= 18,872, so any BLAS tiling or thread count gives the same
    sum, and int64 beyond that. A contraction stays float32 where int16
    would hold it, because numpy has no BLAS path for integer matmuls."""
    if depthwise and _MAX_PRODUCT * terms <= _I16_EXACT:
        return np.int16
    return np.float32 if _MAX_PRODUCT * terms <= _F32_EXACT else np.int64


def conv_acc(x: QuantTensor, w: QuantTensor, spec: ConvSpec, off: OffsetField | None = None) -> AccumTensor:
    """Exact 32-bit accumulator of 8-bit codes convolved with 4-bit codes, the
    one accumulate step of every integer kernel: kernel² (times ic unless
    depthwise) terms per output in the dtype of ``_acc_dtype``, as one matmul
    for the stride-1 pointwise spec and in ``_tap_sums`` for any other. Offsets
    must be integers, as the engines do not interpolate. int16 and float32
    sums are integers below 2**24, so their cast to int32 is exact."""
    if x.bits != 8 or w.bits != 4:
        raise ValueError(f"needs 8-bit activation and 4-bit weight codes, got {x.bits} and {w.bits} bits")
    if off is not None and off.mode == FREE_FRAC:
        raise ValueError("integer kernel requires integer offsets; round and clip first")
    _check_conv(x, w, spec, off)
    dt = _acc_dtype(spec.kernel ** 2 * (1 if spec.depthwise else x.shape.c), spec.depthwise)
    if spec == ConvSpec(kernel=1):
        n, h, wd, ic = x.shape.dims
        acc = (x.data.reshape(-1, ic).astype(dt) @ w.data.reshape(ic, -1).astype(dt)).reshape(n, h, wd, -1)
    else:
        acc = _tap_sums(x.data, w.data, spec, dt, off=off)
    return AccumTensor(Shape4(*acc.shape), acc if dt is np.int64 else acc.astype(np.int32))


def conv1x1_q(x: QuantTensor, w: QuantTensor, rp: RequantParams) -> QuantTensor:
    """Pointwise integer convolution; its exact sums do not depend on the
    matmul's tiling order or thread count."""
    return requantize(conv_acc(x, w, ConvSpec(kernel=1)), rp)


def dw3x3_q(x: QuantTensor, w: QuantTensor, spec: ConvSpec, rp: RequantParams) -> QuantTensor:
    """Regular depthwise 3x3 integer convolution (tap-sliced, no gather)."""
    if not spec.depthwise or spec.kernel != 3:
        raise ValueError("dw3x3_q expects a depthwise 3x3 spec")
    return requantize(conv_acc(x, w, spec), rp)


def conv3x3_full_q(x: QuantTensor, w: QuantTensor, spec: ConvSpec, rp: RequantParams) -> QuantTensor:
    """Full 3x3 integer convolution (the stem layer; runs on the host)."""
    if spec.depthwise or spec.kernel != 3:
        raise ValueError("conv3x3_full_q expects a full 3x3 spec")
    return requantize(conv_acc(x, w, spec), rp)


def deform_conv_q(x: QuantTensor, w: QuantTensor, off: OffsetField, spec: ConvSpec, rp: RequantParams) -> QuantTensor:
    """Integer-gather depthwise deformable 3x3 convolution."""
    if not spec.depthwise or spec.kernel != 3:
        raise ValueError("deform_conv_q expects a depthwise 3x3 spec")
    return requantize(conv_acc(x, w, spec, off), rp)


def offset_gen(
    x: QuantTensor,
    w_off: QuantTensor,
    rp: RequantParams,
    mode: str,
    lo: int,
    hi: int,
    path: str = "requant",
) -> OffsetField:
    """Generate integer sampling offsets with a 1x1 convolution.

    ``path='requant'`` (default) requantizes the accumulator to 8-bit codes
    and rounds the dequantized values to integers; ``path='direct'`` rounds
    straight from the 32-bit accumulator without the 8-bit bottleneck. Both
    end with a clip into [lo, hi] ([max(lo,0), hi] for square mode).
    """
    expected = offset_channels(mode)
    if w_off.shape.c != expected:
        raise ValueError(f"offset weights for mode {mode!r} need {expected} output channels, got {w_off.shape.c}")
    if path == "requant":
        q = conv1x1_q(x, w_off, rp)
        reals = q.data.astype(np.float64) * rp.out_delta
    elif path == "direct":
        acc = conv_acc(x, w_off, ConvSpec(kernel=1))
        m, s, b = rp.multiplier, rp.shift, rp.bias
        factor = m.astype(np.float64) * np.exp2(-s.astype(np.float64)) * rp.out_delta
        reals = acc.data.astype(np.float64) * factor + b.astype(np.float64) * rp.out_delta
    else:
        raise ValueError(f"unknown offset path {path!r}")
    return round_clip_offsets(reals, mode, lo, hi)


# ---------------------------------------------------------------------------
# Pass-through ops on NHWC arrays, codes, reals or empty: one for both
# executors and the shape walk
# ---------------------------------------------------------------------------

def maxpool2x2(x: np.ndarray) -> np.ndarray:
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool2x2 needs even spatial dims")
    return x.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))


def upsample2x_nearest(x: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def split_half(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half, odd = divmod(x.shape[-1], 2)
    if odd:
        raise ValueError("split_half needs an even channel count")
    return x[..., :half], x[..., half:]


def concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[:3] != b.shape[:3]:
        raise ValueError("concat inputs must share n/h/w dims")
    return np.concatenate([a, b], axis=-1)


def shuffle(x: np.ndarray) -> np.ndarray:
    """Channel shuffle: interleave the two channel halves."""
    n, h, w, c = x.shape
    if c % 2:
        raise ValueError("shuffle needs an even channel count")
    return x.reshape(n, h, w, 2, c // 2).swapaxes(3, 4).reshape(n, h, w, c)
