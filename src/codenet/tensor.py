"""Dense NHWC tensor containers shared by every stage of the pipeline.

All tensors are immutable after construction (the backing numpy buffer is
marked read-only) so they can be shared freely across threads. An input array
already in the storage dtype (int8 codes, int32 sums) is adopted as a
read-only view without a copy: its range was checked once, so the caller must
not write to it afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .quant import QuantParams

# Largest element count we accept; keeps flat offsets inside a signed 64-bit int.
_MAX_ELEMENTS = 2**63 - 1


def symmetric_bounds(bits: int) -> tuple[int, int]:
    """Signed symmetric code range for a k-bit tensor.

    The most negative two's-complement code is excluded so negation of any
    valid code is itself a valid code.
    """
    if bits not in (4, 8):
        raise ValueError(f"unsupported bit width {bits}; expected 4 or 8")
    hi = 2 ** (bits - 1) - 1
    return -hi, hi


@dataclass(frozen=True)
class Shape4:
    """NHWC shape: batch, rows, columns, channels."""

    n: int
    h: int
    w: int
    c: int

    def __post_init__(self) -> None:
        for name, dim in zip("nhwc", self.dims):
            if not isinstance(dim, (int, np.integer)) or dim < 1:
                raise ValueError(f"dim {name}={dim} must be a positive integer")
        if self.n * self.h * self.w * self.c > _MAX_ELEMENTS:
            raise ValueError("element count overflows 63-bit range")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.n, self.h, self.w, self.c)

    @property
    def num_elements(self) -> int:
        return self.n * self.h * self.w * self.c


def _freeze(data: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(data)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FloatTensor:
    """32-bit real tensor in NHWC layout."""

    shape: Shape4
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32).reshape(self.shape.dims)
        object.__setattr__(self, "data", _freeze(arr))


@dataclass(frozen=True)
class QuantTensor:
    """Signed integer tensor with a symmetric k-bit code range.

    ``bits`` is 4 for weights or 8 for activations; codes live in int8 storage
    either way. ``qparams`` carries the quantizer step(s) and is set on weights
    and on quantized images only; an activation's step is its producer's
    ``RequantParams.out_delta``. An int8 ``data`` array is adopted as a
    read-only view, not copied; the caller must not write to it afterwards.
    """

    shape: Shape4
    data: np.ndarray
    bits: int = 8
    qparams: "QuantParams | None" = None

    def __post_init__(self) -> None:
        lo, hi = symmetric_bounds(self.bits)
        arr = np.asarray(self.data)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("QuantTensor data must be integer typed")
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise ValueError(f"codes outside symmetric {self.bits}-bit range [{lo},{hi}]")
        arr = arr.astype(np.int8, copy=False).reshape(self.shape.dims)
        object.__setattr__(self, "data", _freeze(arr))


@dataclass(frozen=True)
class AccumTensor:
    """32-bit accumulator holding exact integer sums of code products."""

    shape: Shape4
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("AccumTensor data must be integer typed")
        info = np.iinfo(np.int32)
        if arr.dtype != np.int32 and arr.size and (arr.min() < info.min or arr.max() > info.max):
            raise ValueError("accumulator value outside 32-bit range")
        arr = arr.astype(np.int32, copy=False).reshape(self.shape.dims)
        object.__setattr__(self, "data", _freeze(arr))
