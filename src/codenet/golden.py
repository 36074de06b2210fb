"""Golden test vectors for the integer kernels.

``generate`` builds seeded random cases, computes expected outputs with the
plain scalar reference implementations below, cross-checks them against the
vectorized kernels and freezes everything into container files. ``verify``
replays the kernels against the stored vectors and demands exact equality,
so any platform or regression drift is caught bit for bit.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import ops
from .container import (CHUNK_DESCRIPTOR, CHUNK_QPARAMS, CHUNK_TENSOR, Chunk,
                        DTYPE_I4, DTYPE_I8, DTYPE_I32, parse_qparams, parse_tensor,
                        qparams_chunk, read_container, tensor_chunk, write_container)
from .quant import RequantParams
from .tensor import AccumTensor, QuantTensor, Shape4

OPS = ("conv1x1", "dw3x3", "dw3x3_s2", "deform_bounded", "deform_square", "requantize")


# ---------------------------------------------------------------------------
# Scalar reference implementations (independent of the vectorized kernels)
# ---------------------------------------------------------------------------

def ref_requant_scalar(acc: int, m: int, s: int, bias: int, relu: bool) -> int:
    v = acc * m
    if s > 0:
        v = (v + (1 << (s - 1))) >> s
    v += bias
    if relu and v < 0:
        v = 0
    return max(-127, min(127, v))


def ref_requantize(acc: np.ndarray, rp: RequantParams) -> np.ndarray:
    out = np.zeros(acc.shape, dtype=np.int8)
    chans = acc.shape[-1]
    for idx in np.ndindex(acc.shape):
        ch = idx[-1] if rp.num_channels == chans else 0
        out[idx] = ref_requant_scalar(int(acc[idx]), int(rp.multiplier[ch]),
                                      int(rp.shift[ch]), int(rp.bias[ch]), rp.relu)
    return out


def ref_conv1x1(x: np.ndarray, w: np.ndarray, rp: RequantParams) -> np.ndarray:
    n, h, wd, ic = x.shape
    oc = w.shape[-1]
    out = np.zeros((n, h, wd, oc), dtype=np.int8)
    for b in range(n):
        for y in range(h):
            for xx in range(wd):
                for o in range(oc):
                    acc = 0
                    for i in range(ic):
                        acc += int(x[b, y, xx, i]) * int(w[i, 0, 0, o])
                    out[b, y, xx, o] = ref_requant_scalar(
                        acc, int(rp.multiplier[o]), int(rp.shift[o]), int(rp.bias[o]), rp.relu)
    return out


def ref_dw3x3(x: np.ndarray, w: np.ndarray, stride: int, rp: RequantParams) -> np.ndarray:
    n, h, wd, c = x.shape
    oh = (h + 2 - 3) // stride + 1
    ow = (wd + 2 - 3) // stride + 1
    out = np.zeros((n, oh, ow, c), dtype=np.int8)
    for b in range(n):
        for y in range(oh):
            for xx in range(ow):
                for ch in range(c):
                    acc = 0
                    for ky in range(3):
                        for kx in range(3):
                            iy = y * stride - 1 + ky
                            ix = xx * stride - 1 + kx
                            if 0 <= iy < h and 0 <= ix < wd:
                                acc += int(x[b, iy, ix, ch]) * int(w[0, ky, kx, ch])
                    out[b, y, xx, ch] = ref_requant_scalar(
                        acc, int(rp.multiplier[ch]), int(rp.shift[ch]), int(rp.bias[ch]), rp.relu)
    return out


def ref_deform_dw(x: np.ndarray, w: np.ndarray, off: ops.OffsetField, rp: RequantParams) -> np.ndarray:
    n, h, wd, c = x.shape
    out = np.zeros((n, h, wd, c), dtype=np.int8)
    taps = [(ky, kx) for ky in (-1, 0, 1) for kx in (-1, 0, 1)]
    for b in range(n):
        for y in range(h):
            for xx in range(wd):
                for ch in range(c):
                    acc = 0
                    for t, (gy, gx) in enumerate(taps):
                        if off.mode == ops.SQUARE:
                            d = int(off.data[b, y, xx])
                            iy, ix = y + gy * d, xx + gx * d
                        else:
                            iy = y + gy + int(off.data[b, y, xx, t, 0])
                            ix = xx + gx + int(off.data[b, y, xx, t, 1])
                        if 0 <= iy < h and 0 <= ix < wd:
                            acc += int(x[b, iy, ix, ch]) * int(w[0, gy + 1, gx + 1, ch])
                    out[b, y, xx, ch] = ref_requant_scalar(
                        acc, int(rp.multiplier[ch]), int(rp.shift[ch]), int(rp.bias[ch]), rp.relu)
    return out


# ---------------------------------------------------------------------------
# Case construction
# ---------------------------------------------------------------------------

def _random_rp(rng: np.random.Generator, oc: int, relu: bool = False) -> RequantParams:
    mult = rng.integers(1 << 30, 1 << 31, size=oc, dtype=np.int64)
    shift = rng.integers(34, 42, size=oc, dtype=np.int64)
    bias = rng.integers(-16, 17, size=oc, dtype=np.int64)
    return RequantParams(mult, shift, bias, out_delta=1.0 / 127.0, relu=relu)


def _random_codes(rng: np.random.Generator, shape: tuple[int, ...], bits: int) -> np.ndarray:
    hi = 2 ** (bits - 1) - 1
    return rng.integers(-hi, hi + 1, size=shape, dtype=np.int64).astype(np.int8)


@dataclass
class GoldenCase:
    op: str
    seed: int
    tensors: dict[str, np.ndarray]
    rp: RequantParams
    expected: np.ndarray


def _build_case(op: str, seed: int) -> GoldenCase:
    rng = np.random.default_rng([seed, OPS.index(op)])
    relu = bool(rng.integers(0, 2))
    if op == "requantize":
        shape = (1, 4, 4, 8)
        acc = rng.integers(-(1 << 20), (1 << 20) + 1, size=shape).astype(np.int32)
        rp = _random_rp(rng, 8, relu)
        expected = ref_requantize(acc, rp)
        tensors = {"acc": acc}
    elif op == "conv1x1":
        h, wd, ic, oc = 5, 3, 12, 9
        x = _random_codes(rng, (1, h, wd, ic), 8)
        w = _random_codes(rng, (ic, 1, 1, oc), 4)
        rp = _random_rp(rng, oc, relu)
        expected = ref_conv1x1(x, w, rp)
        tensors = {"x": x, "w": w}
    elif op in ("dw3x3", "dw3x3_s2"):
        stride = 2 if op.endswith("s2") else 1
        h, wd, c = 7, 6, 10
        x = _random_codes(rng, (1, h, wd, c), 8)
        w = _random_codes(rng, (1, 3, 3, c), 4)
        rp = _random_rp(rng, c, relu)
        expected = ref_dw3x3(x, w, stride, rp)
        tensors = {"x": x, "w": w}
    else:
        h, wd, c = 6, 6, 8
        x = _random_codes(rng, (1, h, wd, c), 8)
        w = _random_codes(rng, (1, 3, 3, c), 4)
        rp = _random_rp(rng, c, relu)
        if op == "deform_square":
            off = ops.OffsetField(ops.SQUARE, rng.integers(0, 8, size=(1, h, wd)), lo=0, hi=7)
        else:
            off = ops.OffsetField(ops.BOUNDED_INT, rng.integers(-8, 8, size=(1, h, wd, 9, 2)),
                                  lo=-8, hi=7)
        expected = ref_deform_dw(x, w, off, rp)
        tensors = {"x": x, "w": w, "off": off.data.astype(np.int32),
                   "off_mode": np.array([1 if op == "deform_square" else 0], dtype=np.int32)}
    if not np.array_equal(expected, _replay(op, tensors, rp)):
        raise AssertionError(f"golden generation: kernel disagrees with reference for {op}")
    return GoldenCase(op, seed, tensors, rp, expected)


def _qt(codes: np.ndarray, bits: int) -> QuantTensor:
    return QuantTensor(Shape4(*codes.shape), codes, bits=bits)


def _case_path(directory: str, op: str) -> str:
    return os.path.join(directory, f"golden_{op}.cdnt")


def generate(directory: str, seed: int = 1) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for op in OPS:
        case = _build_case(op, seed)
        desc = f"golden-vector 1\nop {op}\nseed {seed}\ntolerance 0\n"
        chunks = [Chunk(CHUNK_DESCRIPTOR, "case", desc.encode())]
        for name, arr in case.tensors.items():
            code = DTYPE_I8 if arr.dtype == np.int8 else DTYPE_I32
            chunks.append(tensor_chunk(name, arr, code))
        chunks.append(qparams_chunk("rp", None, case.rp))
        chunks.append(tensor_chunk("expected", case.expected, DTYPE_I8))
        path = _case_path(directory, op)
        write_container(path, chunks)
        paths.append(path)
    return paths


def _replay(op: str, tensors: dict[str, np.ndarray], rp: RequantParams) -> np.ndarray:
    if op == "requantize":
        acc = tensors["acc"]
        return ops.requantize(AccumTensor(Shape4(*acc.shape), acc), rp).data
    if op == "conv1x1":
        return ops.conv1x1_q(_qt(tensors["x"], 8), _qt(tensors["w"], 4), rp).data
    if op in ("dw3x3", "dw3x3_s2"):
        stride = 2 if op.endswith("s2") else 1
        return ops.dw3x3_q(_qt(tensors["x"], 8), _qt(tensors["w"], 4),
                           ops.ConvSpec(3, stride, True), rp).data
    square = bool(tensors["off_mode"][0])
    if square:
        off = ops.OffsetField(ops.SQUARE, tensors["off"].astype(np.int64), lo=0, hi=7)
    else:
        off = ops.OffsetField(ops.BOUNDED_INT, tensors["off"].astype(np.int64), lo=-8, hi=7)
    return ops.deform_conv_q(_qt(tensors["x"], 8), _qt(tensors["w"], 4), off,
                             ops.ConvSpec(3, 1, True), rp).data


def verify(directory: str) -> list[str]:
    """Replay each stored vector; returns a list of mismatch descriptions."""
    failures = []
    for op in OPS:
        path = _case_path(directory, op)
        if not os.path.exists(path):
            failures.append(f"{op}: missing vector file {path}")
            continue
        try:
            chunks = read_container(path)
            tensors = {c.name: parse_tensor(c) for c in chunks if c.kind == CHUNK_TENSOR}
            (rp_chunk,) = [c for c in chunks if c.kind == CHUNK_QPARAMS]
            _, rp = parse_qparams(rp_chunk)
            expected = tensors.pop("expected")
            got = _replay(op, tensors, rp)
        except Exception as e:  # corrupt container, bad payload, ...
            failures.append(f"{op}: unreadable vector ({e})")
            continue
        if not np.array_equal(expected, got):
            bad = np.argwhere(expected != got)
            i = tuple(int(v) for v in bad[0])
            failures.append(
                f"{op}: {bad.shape[0]} mismatches, first at {i}: "
                f"expected {int(expected[i])}, actual {int(got[i])}")
    return failures
