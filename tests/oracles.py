"""Naive reference implementations used as independent oracles.

Everything here is written as plainly as possible (scalar loops, direct
formula transcriptions) and never calls into the library's vectorized paths.
"""
from __future__ import annotations

import math

import numpy as np

from codenet.golden import ref_conv1x1, ref_dw3x3, ref_requantize
from codenet.graph import HEADS, LayerNode, NetworkGraph, sigmoid_lut
from codenet.memsim import (ACP_REQUEST_CYCLES, DRAM_BYTES_PER_CYCLE, DRAM_LATENCY, LLC_HIT_CYCLES,
                            LLC_LINE, LLC_SETS, LLC_WAYS)
from codenet.ops import BOUNDED_INT, SQUARE, OffsetField


def quantize_scalar(x: float, t: float, bits: int) -> int:
    """Clamp, scale, round half away from zero; one scalar at a time."""
    qmax = 2 ** (bits - 1) - 1
    delta = t / qmax
    clamped = min(max(x, -t), t)
    scaled = clamped / delta
    code = math.floor(abs(scaled) + 0.5)
    if scaled < 0:
        code = -code
    return max(-qmax, min(qmax, code))


def conv2d_loop(x: np.ndarray, w: np.ndarray, stride: int, pad: int, depthwise: bool) -> np.ndarray:
    """Six-nested-loop direct convolution; x is (n,h,w,ic), w is the library
    layout ((ic,k,k,oc) full, (1,k,k,c) depthwise)."""
    n, h, wd, ic = x.shape
    k = w.shape[1]
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    oc = ic if depthwise else w.shape[3]
    out = np.zeros((n, oh, ow, oc))
    for b in range(n):
        for oy in range(oh):
            for ox in range(ow):
                for o in range(oc):
                    acc = 0.0
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy * stride - pad + ky
                            ix = ox * stride - pad + kx
                            if 0 <= iy < h and 0 <= ix < wd:
                                if depthwise:
                                    acc += float(x[b, iy, ix, o]) * float(w[0, ky, kx, o])
                                else:
                                    for i in range(ic):
                                        acc += float(x[b, iy, ix, i]) * float(w[i, ky, kx, o])
                    out[b, oy, ox, o] = acc
    return out


def bilinear_formula(x: np.ndarray, py: float, px: float, c: int, n: int = 0) -> float:
    """Hand-expanded four-term weighted sum with zero padding."""
    h, w = x.shape[1], x.shape[2]
    y0, x0 = math.floor(py), math.floor(px)
    fy, fx = py - y0, px - x0

    def pix(yy: int, xx: int) -> float:
        if 0 <= yy < h and 0 <= xx < w:
            return float(x[n, yy, xx, c])
        return 0.0

    return ((1 - fy) * (1 - fx) * pix(y0, x0)
            + (1 - fy) * fx * pix(y0, x0 + 1)
            + fy * (1 - fx) * pix(y0 + 1, x0)
            + fy * fx * pix(y0 + 1, x0 + 1))


def deform_dw_loop(x: np.ndarray, w: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Scalar-loop float deformable depthwise conv (stride 1, pad 1).

    ``off`` is (n,h,w,9,2) fractional (dy, dx) per row-major tap.
    """
    n, h, wd, c = x.shape
    taps = [(ky, kx) for ky in (-1, 0, 1) for kx in (-1, 0, 1)]
    out = np.zeros((n, h, wd, c))
    for b in range(n):
        for y in range(h):
            for xx in range(wd):
                for ch in range(c):
                    acc = 0.0
                    for t, (gy, gx) in enumerate(taps):
                        py = y + gy + off[b, y, xx, t, 0]
                        px = xx + gx + off[b, y, xx, t, 1]
                        acc += bilinear_formula(x, py, px, ch, b) * float(w[0, gy + 1, gx + 1, ch])
                    out[b, y, xx, ch] = acc
    return out


def requant_float64(acc: np.ndarray, mult: np.ndarray, shift: np.ndarray,
                    bias: np.ndarray, relu: bool) -> np.ndarray:
    """Extended-precision real rescale; exact while |acc * M| < 2**53."""
    wide = acc.astype(np.float64) * mult.astype(np.float64)
    scaled = np.floor(wide / np.exp2(shift.astype(np.float64)) + 0.5)
    no_round = np.floor(wide / np.exp2(shift.astype(np.float64)))
    out = np.where(shift > 0, scaled, no_round) + bias
    if relu:
        out = np.maximum(out, 0.0)
    return np.clip(out, -127, 127).astype(np.int8)


def normalize_factor_scalar(factor: float) -> tuple[int, int]:
    """Split one positive factor into (M, s), M in [2**30, 2**31), with
    factor ~= M * 2**-s; raises ValueError where no 63-bit shift fits."""
    if factor <= 0 or not math.isfinite(factor):
        raise ValueError(f"rescale factor {factor} must be positive and finite")
    mantissa, exp = math.frexp(factor)
    m, s = round(mantissa * 2**31), 31 - exp
    if m == 2**31:
        m, s = m // 2, s - 1
    if not 0 <= s <= 63:
        raise ValueError(f"rescale factor {factor} has shift {s} outside [0, 63]")
    return m, s


def conv1x1_rank1(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise float64 sums as in-order rank-1 updates: every output starts
    at +0 and adds x[..., i] * w[i, 0, 0, o] for i = 0, 1, ..., one float64
    multiply and one add each."""
    w = w[:, 0, 0, :].astype(np.float64)
    acc = np.zeros((*x.shape[:-1], w.shape[1]))
    for i in range(w.shape[0]):
        acc += x[..., i:i + 1] * w[i]
    return acc


def scalar_offsets(n: LayerNode, x: np.ndarray) -> OffsetField:
    """Offset field of deformable node ``n`` on codes ``x``, one value at a
    time: the offset 1x1 sums, then either their requantized codes times the
    output delta or (``direct``) the sums times the real rescale plus the
    bias; each real is rounded half away from zero and clipped."""
    acc, rp = ref_conv1x1(x, n.off_w_q.data), n.off_rp
    codes = ref_requantize(acc, rp) if n.offset_path == "requant" else None
    lo = max(n.offset_lo, 0) if n.offset_mode == SQUARE else n.offset_lo
    vals = np.zeros(acc.shape, dtype=np.int64)
    for idx in np.ndindex(acc.shape):
        ch = idx[-1]
        if codes is not None:
            real = float(codes[idx]) * rp.out_delta
        else:
            scale = float(rp.multiplier[ch]) * 2.0 ** -int(rp.shift[ch]) * rp.out_delta
            real = float(acc[idx]) * scale + float(rp.bias[ch]) * rp.out_delta
        vals[idx] = min(max(math.copysign(math.floor(abs(real) + 0.5), real), lo), n.offset_hi)
    if n.offset_mode == SQUARE:
        return OffsetField(SQUARE, vals[..., 0], lo=lo, hi=n.offset_hi)
    return OffsetField(BOUNDED_INT, vals.reshape(*vals.shape[:3], 9, 2), lo=lo, hi=n.offset_hi)


def scalar_network(gq: NetworkGraph, codes: np.ndarray) -> tuple[tuple[np.ndarray, ...], dict[str, OffsetField]]:
    """The heads of w4a8 graph ``gq`` (conv nodes only) on image codes
    (n,h,w,3), from the scalar loops alone: conv2d_loop for the stem, the
    golden 1x1 and depthwise references for the other convs, the golden
    requantizer after each, and the sigmoid table on the heatmap codes.
    Returns (heatmap, sizes, offsets) and each deformable node's field."""
    values, fields = {"input": codes}, {}
    for n in gq.nodes:
        x, w = values[n.inputs[0]], n.w_q.data
        if n.kind == "full3x3_first":
            acc = conv2d_loop(x, w, n.stride, 1, depthwise=False).astype(np.int64)
        elif n.kind == "conv1x1":
            acc = ref_conv1x1(x, w)
        elif n.kind == "dw3x3":
            acc = ref_dw3x3(x, w, n.stride)
        elif n.kind == "dw3x3_deform":
            fields[n.name] = scalar_offsets(n, x)
            acc = ref_dw3x3(x, w, n.stride, fields[n.name])
        else:
            raise NotImplementedError(f"no scalar loop for {n.kind}")
        values[n.name] = ref_requantize(acc, n.rp)
    y, s, o = (values[h] for h in HEADS)
    dy, ds, do = (gq.node(h).rp.out_delta for h in HEADS)
    return (sigmoid_lut(dy)[y.astype(np.int64) + 128], s * ds, o * do), fields


def peaks_exhaustive(hm: np.ndarray, top_k: int = 100) -> list[tuple[int, int, int, float]]:
    """O(HWC*9) neighbor scan; ties broken by (class, y, x)."""
    h, w, c = hm.shape
    found = []
    for ch in range(c):
        for y in range(h):
            for x in range(w):
                v = hm[y, x, ch]
                ok = v > 0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dy == 0 and dx == 0:
                            continue
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w and not (v >= hm[yy, xx, ch]):
                            ok = False
                if ok:
                    found.append((ch, x, y, float(v)))
    found.sort(key=lambda p: (-p[3], p[0], p[2], p[1]))
    return found[:top_k]


# The LLC as one scalar loop over every line touch, with no closed-form
# shortcut: memsim._cache_cost must return the same triple on any stream.
_CHUNK = 4096


def cache_cost_loop(addrs: np.ndarray, nbytes: int, seed: int) -> tuple[int, int, int]:
    """(cycles, line hits, line misses) of requests of ``nbytes`` at ``addrs``
    on a cold LLC.

    A miss fills a free way of its set, or else the way picked by a 16-bit
    Galois LFSR (taps 0xB400) seeded with ``seed``. Every request pays the
    coherency port overhead, every line the hit latency, every missing line
    its refill time, and a request with a miss the DRAM latency once (the
    misses of one request burst together).
    """
    sets: list[list[int]] = [[] for _ in range(LLC_SETS)]
    state = (seed & 0xFFFF) or 0xACE1
    hits = misses = missed_requests = 0
    for start in range(0, addrs.size, _CHUNK):
        chunk = addrs[start:start + _CHUNK]
        for first, last in zip((chunk // LLC_LINE).tolist(), ((chunk + nbytes - 1) // LLC_LINE).tolist()):
            missed = False
            for ln in range(first, last + 1):
                ways = sets[ln % LLC_SETS]
                if ln in ways:
                    hits += 1
                    continue
                misses += 1
                missed = True
                if len(ways) < LLC_WAYS:
                    ways.append(ln)
                else:
                    state = (state >> 1) ^ (0xB400 if state & 1 else 0)
                    ways[state % LLC_WAYS] = ln
            missed_requests += missed
    fill = LLC_HIT_CYCLES + math.ceil(LLC_LINE / DRAM_BYTES_PER_CYCLE)
    cycles = (int(addrs.size) * ACP_REQUEST_CYCLES + hits * LLC_HIT_CYCLES + misses * fill
              + missed_requests * DRAM_LATENCY)
    return cycles, hits, misses
