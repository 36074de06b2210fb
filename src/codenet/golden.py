"""Golden test vectors for the integer kernels.

``generate`` builds seeded random cases, computes expected outputs with the
plain scalar reference implementations below, cross-checks them against the
vectorized kernels and freezes everything into container files. ``verify``
replays the kernels against the stored vectors and demands exact equality,
so any platform or regression drift is caught bit for bit.
"""
from __future__ import annotations

import os
from typing import Callable

import numpy as np

from . import ops
from .container import (CHUNK_DESCRIPTOR, CHUNK_QPARAMS, CHUNK_TENSOR, Chunk,
                        DTYPE_I4, DTYPE_I8, DTYPE_I32, parse_qparams, parse_tensor,
                        qparams_chunk, read_container, tensor_chunk, write_container)
from .graph import OFFSET_RANGE
from .quant import RequantParams
from .tensor import AccumTensor, QuantTensor, Shape4, symmetric_bounds

OPS = ("conv1x1", "dw3x3", "dw3x3_s2", "deform_bounded", "deform_square", "requantize")


# ---------------------------------------------------------------------------
# Scalar reference implementations (independent of the vectorized kernels).
# The conv references return int64 sums; ref_requantize turns sums into codes.
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
    for idx in np.ndindex(acc.shape):
        ch = idx[-1]
        out[idx] = ref_requant_scalar(int(acc[idx]), int(rp.multiplier[ch]),
                                      int(rp.shift[ch]), int(rp.bias[ch]), rp.relu)
    return out


def ref_conv1x1(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise sums, int64."""
    out = np.zeros(x.shape[:3] + w.shape[-1:], dtype=np.int64)
    for b, y, xx, o in np.ndindex(out.shape):
        out[b, y, xx, o] = sum(int(x[b, y, xx, i]) * int(w[i, 0, 0, o]) for i in range(x.shape[-1]))
    return out


def ref_dw3x3(x: np.ndarray, w: np.ndarray, stride: int = 1, off: ops.OffsetField | None = None) -> np.ndarray:
    """Depthwise 3x3 sums, int64. Tap (gy, gx) of output (y, x) reads input
    (y·stride + dy, x·stride + dx), zero outside the map: (dy, dx) is (gy, gx),
    plus the tap's pair in a bounded field, or times d in a square field."""
    n, h, wd, c = x.shape
    out = np.zeros((n, (h - 1) // stride + 1, (wd - 1) // stride + 1, c), dtype=np.int64)
    taps = [(gy, gx) for gy in (-1, 0, 1) for gx in (-1, 0, 1)]
    for b, y, xx, ch in np.ndindex(out.shape):
        acc = 0
        for t, (gy, gx) in enumerate(taps):
            if off is None:
                dy, dx = gy, gx
            elif off.mode == ops.SQUARE:
                dy, dx = gy * int(off.data[b, y, xx]), gx * int(off.data[b, y, xx])
            else:
                dy, dx = gy + int(off.data[b, y, xx, t, 0]), gx + int(off.data[b, y, xx, t, 1])
            iy, ix = y * stride + dy, xx * stride + dx
            if 0 <= iy < h and 0 <= ix < wd:
                acc += int(x[b, iy, ix, ch]) * int(w[0, gy + 1, gx + 1, ch])
        out[b, y, xx, ch] = acc
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
    lo, hi = symmetric_bounds(bits)
    return rng.integers(lo, hi + 1, size=shape, dtype=np.int64).astype(np.int8)


def _build_case(op: str, seed: int) -> tuple[dict[str, np.ndarray], RequantParams, np.ndarray]:
    rng = np.random.default_rng([seed, OPS.index(op)])
    relu = bool(rng.integers(0, 2))
    if op == "requantize":
        shape = (1, 4, 4, 8)
        acc = rng.integers(-(1 << 20), (1 << 20) + 1, size=shape).astype(np.int32)
        rp = _random_rp(rng, 8, relu)
        sums, tensors = acc, {"acc": acc}
    elif op == "conv1x1":
        h, wd, ic, oc = 5, 3, 12, 9
        x = _random_codes(rng, (1, h, wd, ic), 8)
        w = _random_codes(rng, (ic, 1, 1, oc), 4)
        rp = _random_rp(rng, oc, relu)
        sums, tensors = ref_conv1x1(x, w), {"x": x, "w": w}
    else:  # depthwise, regular or deformable
        h, wd, c = (7, 6, 10) if op.startswith("dw3x3") else (6, 6, 8)
        x = _random_codes(rng, (1, h, wd, c), 8)
        w = _random_codes(rng, (1, 3, 3, c), 4)
        rp = _random_rp(rng, c, relu)
        tensors, off = {"x": x, "w": w}, None
        if op.startswith("deform"):
            square = op == "deform_square"
            off = _offset_field(square, lambda lo, hi, taps: rng.integers(lo, hi + 1, size=(1, h, wd, *taps)))
            tensors.update(off=off.data.astype(np.int32), off_mode=np.array([square], dtype=np.int32))
        sums = ref_dw3x3(x, w, 2 if op.endswith("s2") else 1, off)
    expected = ref_requantize(sums, rp)
    if not np.array_equal(expected, _replay(op, tensors, rp)):
        raise AssertionError(f"golden generation: kernel disagrees with reference for {op}")
    return tensors, rp, expected


def _offset_field(square: bool, values: Callable[[int, int, tuple[int, ...]], np.ndarray]) -> ops.OffsetField:
    """A deformable case's offsets ``values(lo, hi, taps)``: per position, a half-width
    in [0, hi] if ``square``, else (9, 2) tap pairs in [lo, hi] = OFFSET_RANGE."""
    lo, hi = OFFSET_RANGE
    mode, lo, taps = (ops.SQUARE, 0, ()) if square else (ops.BOUNDED_INT, lo, (9, 2))
    return ops.OffsetField(mode, values(lo, hi, taps), lo=lo, hi=hi)


def _qt(codes: np.ndarray, bits: int) -> QuantTensor:
    return QuantTensor(Shape4(*codes.shape), codes, bits=bits)


def _case_path(directory: str, op: str) -> str:
    return os.path.join(directory, f"golden_{op}.cdnt")


def generate(directory: str, seed: int = 1) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for op in OPS:
        tensors, rp, expected = _build_case(op, seed)
        desc = f"golden-vector 1\nop {op}\nseed {seed}\ntolerance 0\n"
        chunks = [Chunk(CHUNK_DESCRIPTOR, "case", desc.encode())]
        for name, arr in tensors.items():
            code = DTYPE_I8 if arr.dtype == np.int8 else DTYPE_I32
            chunks.append(tensor_chunk(name, arr, code))
        chunks.append(qparams_chunk("rp", None, rp))
        chunks.append(tensor_chunk("expected", expected, DTYPE_I8))
        path = _case_path(directory, op)
        write_container(path, chunks)
        paths.append(path)
    return paths


def _replay(op: str, tensors: dict[str, np.ndarray], rp: RequantParams) -> np.ndarray:
    if op == "requantize":
        acc = tensors["acc"]
        return ops.requantize(AccumTensor(Shape4(*acc.shape), acc), rp).data
    x, w = _qt(tensors["x"], 8), _qt(tensors["w"], 4)
    if op == "conv1x1":
        return ops.conv1x1_q(x, w, rp).data
    spec = ops.ConvSpec(3, 2 if op.endswith("s2") else 1, True)
    if op.startswith("dw3x3"):
        return ops.dw3x3_q(x, w, spec, rp).data
    off = _offset_field(bool(tensors["off_mode"][0]), lambda *_: tensors["off"].astype(np.int64))
    return ops.deform_conv_q(x, w, off, spec, rp).data


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
