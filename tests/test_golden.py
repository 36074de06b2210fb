from pathlib import Path

import numpy as np
import pytest

from codenet import golden, ops

from conftest import set_requant_flag

# The six vectors `codenet golden generate --seed 1` writes, frozen in the
# repository: a change that moves one byte of a reference, a kernel, the RNG
# draws or the container format fails here.
FROZEN = Path(__file__).parent / "data" / "golden"


def test_frozen_vectors_verify():
    assert golden.verify(str(FROZEN)) == []


def test_a_vector_without_requant_parameters_is_unreadable(tmp_path):
    for p in FROZEN.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    set_requant_flag(tmp_path / "golden_requantize.cdnt", "rp", 0)
    assert golden.verify(str(tmp_path)) == [
        "requantize: unreadable vector (quantization parameters 'rp': requant flag is 0, not 1)"]


def test_generate_matches_the_frozen_vectors_byte_for_byte(tmp_path):
    paths = golden.generate(str(tmp_path), seed=1)
    assert sorted(Path(p).name for p in paths) == sorted(p.name for p in FROZEN.iterdir())
    for p in paths:
        assert Path(p).read_bytes() == (FROZEN / Path(p).name).read_bytes()


class TestDepthwiseReference:
    """The one depthwise loop, against facts that need no kernel."""

    rng = np.random.default_rng(3)
    x = rng.integers(-127, 128, size=(1, 5, 6, 3)).astype(np.int8)
    w = rng.integers(-7, 8, size=(1, 3, 3, 3)).astype(np.int8)

    def test_zero_offsets_are_the_regular_kernel(self):
        zero = ops.OffsetField(ops.BOUNDED_INT, np.zeros((1, 5, 6, 9, 2)))
        assert np.array_equal(golden.ref_dw3x3(self.x, self.w, off=zero), golden.ref_dw3x3(self.x, self.w))

    def test_square_half_width_one_is_the_regular_kernel(self):
        one = ops.OffsetField(ops.SQUARE, np.ones((1, 5, 6), dtype=np.int64), lo=0, hi=7)
        assert np.array_equal(golden.ref_dw3x3(self.x, self.w, off=one), golden.ref_dw3x3(self.x, self.w))

    def test_square_half_width_zero_reads_the_center_nine_times(self):
        zero = ops.OffsetField(ops.SQUARE, np.zeros((1, 5, 6), dtype=np.int64), lo=0, hi=7)
        want = self.x.astype(np.int64) * self.w.astype(np.int64).sum(axis=(1, 2))
        assert np.array_equal(golden.ref_dw3x3(self.x, self.w, off=zero), want)

    @pytest.mark.parametrize("stride, shape", [(1, (1, 5, 6, 3)), (2, (1, 3, 3, 3))])
    def test_center_tap_alone_samples_the_stride_grid(self, stride, shape):
        w = np.zeros((1, 3, 3, 3), dtype=np.int8)
        w[0, 1, 1, :] = 1
        out = golden.ref_dw3x3(self.x, w, stride)
        assert out.dtype == np.int64 and out.shape == shape
        assert np.array_equal(out, self.x[:, ::stride, ::stride, :])

    def test_bounded_offset_reads_the_shifted_pixel_or_zero(self):
        w = np.zeros((1, 3, 3, 3), dtype=np.int8)
        w[0, 1, 1, :] = 1  # only the center tap counts
        disp = np.zeros((1, 5, 6, 9, 2), dtype=np.int64)
        disp[..., 4, :] = (1, 2)
        out = golden.ref_dw3x3(self.x, w, off=ops.OffsetField(ops.BOUNDED_INT, disp, lo=-8, hi=7))
        want = np.zeros((1, 5, 6, 3), dtype=np.int64)
        want[:, :4, :4, :] = self.x[:, 1:, 2:, :]
        assert np.array_equal(out, want)
