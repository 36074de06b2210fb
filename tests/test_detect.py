import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codenet.detect import Detection, GroundTruth, ap50, decode, find_peaks, iou

from oracles import peaks_exhaustive


class TestFindPeaks:
    def test_single_positive_pixel(self):
        hm = np.zeros((8, 8, 1))
        hm[3, 5, 0] = 0.9
        peaks = find_peaks(hm)
        assert peaks == [(0, 5, 3, 0.9)]

    def test_uniform_plateau_matches_oracle(self):
        hm = np.full((5, 4, 2), 0.25)
        assert find_peaks(hm) == peaks_exhaustive(hm)

    def test_top_k_keeps_highest(self):
        rng = np.random.default_rng(0)
        hm = np.zeros((20, 20, 2))
        # 150 isolated peaks on a sparse grid with distinct scores
        scores = rng.permutation(150) + 1.0
        idx = 0
        for y in range(0, 20, 2):
            for x in range(0, 20, 2):
                for c in range(2):
                    if idx < 150:
                        hm[y, x, c] = scores[idx] / 200.0
                        idx += 1
        peaks = find_peaks(hm, top_k=100)
        assert len(peaks) == 100
        kept = sorted(p[3] for p in peaks)
        assert min(kept) > (50.0 / 200.0)

    def test_negative_top_k_raises(self):
        hm = np.zeros((4, 4, 1))
        hm[1, 1, 0] = 0.5
        with pytest.raises(ValueError, match="top_k"):
            find_peaks(hm, top_k=-1)
        assert find_peaks(hm, top_k=0) == []

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            hm = rng.integers(0, 256, size=(12, 9, 3)).astype(np.float64) / 255.0
            assert find_peaks(hm) == peaks_exhaustive(hm)


    def test_top_k_zero_gives_nothing(self):
        hm = np.random.default_rng(3).random((6, 6, 2))
        assert find_peaks(hm, top_k=0) == []

    @pytest.mark.parametrize("extra", [0, 1, 50])
    def test_top_k_at_or_above_the_peak_count_keeps_every_peak(self, extra):
        hm = np.random.default_rng(4).integers(0, 6, size=(9, 7, 3)).astype(np.float64) / 255.0
        every = peaks_exhaustive(hm, top_k=hm.size)
        assert find_peaks(hm, top_k=len(every) + extra) == every

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plateau_maps_match_the_full_sort(self, dtype):
        # few 8-bit levels make plateaus and ties at the k-th score; nan cells are never peaks
        rng = np.random.default_rng(5)
        for trial in range(40):
            levels = int(rng.integers(2, 6))
            hm = (rng.integers(0, levels, size=(10, 8, 3)) * 37 / 255.0).astype(dtype)
            if trial % 2:
                hm[rng.random(hm.shape) < 0.05] = np.nan
            every = peaks_exhaustive(hm, top_k=hm.size)
            for top_k in (0, 1, 3, len(every) // 2, max(len(every) - 1, 0), 100):
                assert find_peaks(hm, top_k=top_k) == every[:top_k]
            if dtype is np.float32:
                assert find_peaks(hm) == find_peaks(hm.astype(np.float64))


class TestDecode:
    def test_formula_example(self):
        offsets = np.zeros((16, 16, 2))
        sizes = np.zeros((16, 16, 2))
        offsets[12, 10] = (0.2, -0.1)
        sizes[12, 10] = (4.0, 6.0)
        dets = decode([(0, 10, 12, 0.8)], offsets, sizes, stride=1)
        assert dets[0].box == pytest.approx((8.2, 8.9, 12.2, 14.9))

    def test_degenerate_box_at_peak(self):
        offsets = np.zeros((4, 4, 2))
        sizes = np.zeros((4, 4, 2))
        dets = decode([(1, 2, 3, 0.5)], offsets, sizes, stride=1)
        assert dets[0].box == pytest.approx((2.0, 3.0, 2.0, 3.0))

    def test_stride_scaling(self):
        offsets = np.zeros((16, 16, 2))
        sizes = np.zeros((16, 16, 2))
        offsets[12, 10] = (0.2, -0.1)
        sizes[12, 10] = (4.0, 6.0)
        d1 = decode([(0, 10, 12, 0.8)], offsets, sizes, stride=1)[0]
        d4 = decode([(0, 10, 12, 0.8)], offsets, sizes, stride=4)[0]
        assert d4.box == pytest.approx(tuple(4 * v for v in d1.box))

    def test_translation_equivariance(self):
        offsets = np.full((16, 16, 2), 0.3)
        sizes = np.full((16, 16, 2), 2.0)
        a = decode([(0, 5, 6, 0.9)], offsets, sizes, stride=4)[0]
        b = decode([(0, 7, 9, 0.9)], offsets, sizes, stride=4)[0]
        assert b.box == pytest.approx((a.x1 + 4 * 2, a.y1 + 4 * 3, a.x2 + 4 * 2, a.y2 + 4 * 3))


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_half_shifted_unit_squares(self):
        assert iou((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1.0 / 3.0)

    def test_symmetric(self):
        a, b = (0, 0, 3, 2), (1, 1, 4, 5)
        assert iou(a, b) == pytest.approx(iou(b, a))

    def test_zero_union(self):
        assert iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0

    @settings(max_examples=200)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 20), st.floats(0.1, 20),
           st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 20), st.floats(0.1, 20))
    def test_range_and_identity(self, ax, ay, aw, ah, bx, by, bw, bh):
        a = (ax, ay, ax + aw, ay + ah)
        b = (bx, by, bx + bw, by + bh)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert iou(a, a) == 1.0
        if v == 1.0:
            assert a == pytest.approx(b)


def _det(cls, conf, box):
    return Detection(cls, conf, *box)


def _gt(cls, box):
    return GroundTruth(cls, *box)


class TestAp50:
    def test_perfect_predictions(self):
        gts = [_gt(0, (0, 0, 10, 10)), _gt(1, (5, 5, 9, 9))]
        dets = [_det(0, 0.9, (0, 0, 10, 10)), _det(1, 0.8, (5, 5, 9, 9))]
        assert ap50(dets, gts) == 1.0

    def test_no_overlap(self):
        gts = [_gt(0, (0, 0, 10, 10))]
        dets = [_det(0, 0.9, (50, 50, 60, 60))]
        assert ap50(dets, gts) == 0.0

    def test_hit_miss_hit_curve(self):
        # two ground truths, three ranked predictions: hit, miss, hit.
        # PR points: (r=0.5, p=1), (r=0.5, p=1/2), (r=1, p=2/3);
        # all-point AP = 0.5 * 1 + 0.5 * 2/3 = 5/6 (hand enumeration).
        gts = [_gt(0, (0, 0, 10, 10)), _gt(0, (20, 20, 30, 30))]
        dets = [
            _det(0, 0.9, (0, 0, 10, 10)),
            _det(0, 0.8, (50, 50, 60, 60)),
            _det(0, 0.7, (20, 20, 30, 30)),
        ]
        assert ap50(dets, gts) == pytest.approx(5.0 / 6.0)

    def test_each_gt_matched_once(self):
        gts = [_gt(0, (0, 0, 10, 10))]
        dets = [_det(0, 0.9, (0, 0, 10, 10)), _det(0, 0.8, (0, 0, 10, 10))]
        # second detection is a false positive: AP = area under (1.0, then 0.5)
        assert ap50(dets, gts) == pytest.approx(1.0)

    def test_ground_truths_left_unchanged(self):
        gts = [_gt(0, (0, 0, 10, 10)), _gt(0, (20, 20, 30, 30))]
        dets = [_det(0, 0.9, (0, 0, 10, 10)), _det(0, 0.7, (20, 20, 30, 30))]
        before = [dict(vars(g)) for g in gts]
        first = ap50(dets, gts)
        assert [vars(g) for g in gts] == before
        assert ap50(dets, gts) == first

    def test_macro_average_skips_absent_classes(self):
        gts = [_gt(0, (0, 0, 10, 10))]
        dets = [_det(0, 0.9, (0, 0, 10, 10)), _det(3, 0.99, (0, 0, 10, 10))]
        assert ap50(dets, gts) == 1.0

    def test_empty_gt_errors(self):
        with pytest.raises(ValueError):
            ap50([], [])

    def test_eleven_point_option(self):
        gts = [_gt(0, (0, 0, 10, 10)), _gt(0, (20, 20, 30, 30))]
        dets = [
            _det(0, 0.9, (0, 0, 10, 10)),
            _det(0, 0.8, (50, 50, 60, 60)),
            _det(0, 0.7, (20, 20, 30, 30)),
        ]
        # recalls >= {0..0.5} see precision 1.0; above 0.5 precision 2/3
        want = (6 * 1.0 + 5 * 2.0 / 3.0) / 11.0
        assert ap50(dets, gts, interpolation="eleven_point") == pytest.approx(want)

    @pytest.mark.parametrize("interpolation", ["11point", "All_Point", ""])
    def test_unknown_interpolation_rejected(self, interpolation):
        gts = [_gt(0, (0, 0, 10, 10))]
        with pytest.raises(ValueError, match="unknown interpolation"):
            ap50([_det(0, 0.9, (0, 0, 10, 10))], gts, interpolation=interpolation)


@settings(max_examples=50)
@given(st.floats(0.1, 10.0), st.floats(0.0, 5.0))
def test_ap50_rank_preserving_rescale_invariance(scale, shift):
    gts = [_gt(0, (0, 0, 10, 10)), _gt(0, (20, 20, 30, 30)), _gt(1, (40, 0, 50, 10))]
    base = [
        _det(0, 0.9, (1, 1, 10, 10)),
        _det(0, 0.5, (19, 21, 31, 31)),
        _det(0, 0.3, (70, 70, 80, 80)),
        _det(1, 0.8, (40, 0, 50, 10)),
    ]
    rescaled = [Detection(d.class_id, d.confidence * scale + shift, *d.box) for d in base]
    assert ap50(base, gts) == pytest.approx(ap50(rescaled, gts))


def test_detection_line_round_trip():
    d = _det(3, 0.5, (1.25, 2.5, 3.75, 4.0))
    line = d.to_line()
    assert len(line.split()) == 6
    cls, x1, y1, x2, y2, conf = line.split()
    assert int(cls) == 3 and float(conf) == pytest.approx(0.5)
    assert (float(x1), float(y1), float(x2), float(y2)) == pytest.approx(d.box)


def test_detection_invalid_box():
    with pytest.raises(ValueError):
        Detection(0, 0.5, 5, 0, 1, 2)
