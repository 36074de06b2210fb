import numpy as np
import pytest

from codenet.tensor import AccumTensor, FloatTensor, QuantTensor, Shape4, symmetric_bounds


def test_new_tensor_zero_fill():
    # a flat buffer is cast to float32 and reshaped to the NHWC dims
    t = FloatTensor(Shape4(1, 2, 2, 1), np.zeros(4))
    assert t.data.shape == (1, 2, 2, 1)
    assert t.data.dtype == np.float32
    assert np.all(t.data == 0)


def test_new_tensor_int8_boundary():
    t = QuantTensor(Shape4(1, 1, 1, 1), np.full((1, 1, 1, 1), 127), bits=8)
    assert t.data[0, 0, 0, 0] == 127


def test_new_tensor_int4_out_of_range():
    with pytest.raises(ValueError):
        QuantTensor(Shape4(1, 1, 1, 1), np.full((1, 1, 1, 1), 8), bits=4)
    with pytest.raises(ValueError):
        QuantTensor(Shape4(1, 1, 1, 1), np.full((1, 1, 1, 1), -8), bits=4)


def test_symmetric_bounds_exclude_most_negative():
    assert symmetric_bounds(8) == (-127, 127)
    assert symmetric_bounds(4) == (-7, 7)
    with pytest.raises(ValueError):
        QuantTensor(Shape4(1, 1, 1, 1), np.array([[[[-128]]]], dtype=np.int16), bits=8)


def test_index_first_element():
    t = FloatTensor(Shape4(1, 2, 2, 2), np.full(8, 3.0))
    assert t.data[0, 0, 0, 0] == 3.0


def test_flat_offset_formula():
    # element (n, h, w, c) sits at flat offset ((n*H + h)*W + w)*C + c
    t = FloatTensor(Shape4(1, 2, 2, 2), np.arange(8))
    assert t.data[0, 1, 0, 1] == 5
    assert t.data.ravel()[5] == 5


def test_invalid_shape():
    with pytest.raises(ValueError):
        Shape4(1, 0, 2, 2)


def test_channel_contiguity():
    # a column-major input is stored row-major, channels innermost
    t = FloatTensor(Shape4(2, 3, 4, 5), np.zeros((5, 4, 3, 2), dtype=np.float32).T)
    assert t.data.flags.c_contiguous
    assert t.data.strides[-1] == t.data.itemsize


def test_immutable_after_construction():
    t = FloatTensor(Shape4(1, 1, 1, 1), np.ones(1))
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 2.0


def test_accum_int32_input_not_copied():
    acc = np.arange(-6, 6, dtype=np.int32).reshape(1, 2, 2, 3)
    before = acc.copy()
    t = AccumTensor(Shape4(1, 2, 2, 3), acc)
    assert np.shares_memory(t.data, acc)
    assert not t.data.flags.writeable
    assert acc.flags.writeable and np.array_equal(acc, before)
    with pytest.raises(ValueError):
        AccumTensor(Shape4(1, 1, 1, 1), np.array([2**31], dtype=np.int64))


def test_quant_int8_input_adopted_not_copied():
    codes = np.arange(-6, 6, dtype=np.int8).reshape(1, 2, 2, 3)
    before = codes.copy()
    t = QuantTensor(Shape4(1, 2, 2, 3), codes, bits=4)
    assert np.shares_memory(t.data, codes)
    assert not t.data.flags.writeable
    assert codes.flags.writeable and np.array_equal(codes, before)


@pytest.mark.parametrize("bits, dtype, value", [
    (8, np.int8, -128), (4, np.int8, 8), (4, np.int8, -8),
    (8, np.int16, 128), (8, np.int16, -128), (8, np.int64, 200), (8, np.int64, -200),
    (4, np.int16, 8), (4, np.int64, -8),
])
def test_quant_codes_out_of_range_rejected(bits, dtype, value):
    codes = np.zeros((1, 1, 2, 1), dtype=dtype)
    codes[0, 0, 1, 0] = value
    with pytest.raises(ValueError, match="outside symmetric"):
        QuantTensor(Shape4(1, 1, 2, 1), codes, bits=bits)
