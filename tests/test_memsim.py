import numpy as np
import pytest

from codenet import memsim
from codenet.memsim import (ABLATION_BOUND, BASELINE_DRAM, LINE_BUFFER,
                            LINE_BUFFER_MULTIPORT, LLC, LLC_LINE, LLC_SETS, EngineConfig,
                            MemConfig, ablation_case, ablation_table, gen_trace, roofline,
                            row_to_csv, simulate, table_speedups)
from codenet.ops import BOUNDED_INT, FREE_INT, SQUARE, ConvSpec, OffsetField

DIMS = (16, 16, 16, 16)


def _dw_spec():
    return ConvSpec(3, 1, True, 1)


def _bounded(rng, h, w, lo=0, hi=7):
    vals = rng.integers(lo, hi + 1, size=(1, h, w, 9, 2))
    return OffsetField(BOUNDED_INT, vals, lo=lo, hi=hi)


class TestGenTrace:
    def test_regular_interior_reuse_is_nine(self):
        trace = gen_trace(_dw_spec(), None, DIMS)
        addrs, counts = np.unique(trace.in_addr, return_counts=True)
        h, w, ic, _ = DIMS
        interior = []
        for a, c in zip(addrs, counts):
            pix = a // ic
            y, x = divmod(int(pix), w)
            if 1 <= y < h - 1 and 1 <= x < w - 1:
                interior.append(c)
        assert interior and all(c == 9 for c in interior)

    def test_offset_volume_square_vs_free(self):
        rng = np.random.default_rng(0)
        free = gen_trace(_dw_spec(), _bounded(rng, 16, 16), DIMS)
        d = OffsetField(SQUARE, rng.integers(0, 8, size=(1, 16, 16)), lo=0, hi=7)
        sq = gen_trace(_dw_spec(), d, DIMS)
        assert free.off_bytes_per_pos == 18
        assert sq.off_bytes_per_pos == 1

    def test_trace_replay_oracle(self):
        # recompute the address multiset independently from the same offsets
        rng = np.random.default_rng(3)
        off = _bounded(rng, 16, 16)
        trace = gen_trace(_dw_spec(), off, DIMS)
        h, w, ic, _ = DIMS
        expected = []
        for y in range(h):
            for x in range(w):
                for t, (gy, gx) in enumerate([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]):
                    iy = y + gy + int(off.data[0, y, x, t, 0])
                    ix = x + gx + int(off.data[0, y, x, t, 1])
                    if 0 <= iy < h and 0 <= ix < w:
                        expected.append((iy * w + ix) * ic)
        assert sorted(trace.in_addr.tolist()) == sorted(expected)

    def test_macs(self):
        full = gen_trace(ConvSpec(3, 1, False, 1), None, (8, 8, 4, 6))
        dw = gen_trace(_dw_spec(), None, (8, 8, 4, 4))
        assert full.macs == 8 * 8 * 9 * 4 * 6
        assert dw.macs == 8 * 8 * 9 * 4


class TestSimulate:
    def test_single_fetch_property_exhaustive(self):
        # bounded offsets, N=7, 15 rows: every input byte crosses DRAM once
        h, w, ic, _ = DIMS
        rng = np.random.default_rng(1)
        for trial in range(20):
            off = _bounded(rng, h, w, lo=0, hi=7)
            trace = gen_trace(_dw_spec(), off, DIMS)
            mem = MemConfig(design=LINE_BUFFER, line_buffer_rows=15)
            rep = simulate(trace, mem)
            assert rep.input_dram_bytes == h * w * ic

    def test_monotone_hierarchy(self):
        # input-read latency contribution: baseline >= llc >= line buffer
        rng = np.random.default_rng(2)
        for trial in range(10):
            off = _bounded(rng, 16, 16)
            trace = gen_trace(_dw_spec(), off, DIMS)
            base = simulate(trace, MemConfig(design=BASELINE_DRAM))
            llc = simulate(trace, MemConfig(design=LLC))
            buf = simulate(trace, MemConfig(design=LINE_BUFFER, line_buffer_rows=15))
            assert base.input_cycles >= llc.input_cycles >= buf.input_cycles

    def test_multiport_never_slower(self):
        rng = np.random.default_rng(4)
        d = OffsetField(SQUARE, rng.integers(0, 8, size=(1, 16, 16)), lo=0, hi=7)
        trace = gen_trace(_dw_spec(), d, DIMS)
        single = simulate(trace, MemConfig(design=LINE_BUFFER, line_buffer_rows=15))
        multi = simulate(trace, MemConfig(design=LINE_BUFFER_MULTIPORT, line_buffer_rows=15))
        assert multi.cycles <= single.cycles

    def test_multiport_requires_square(self):
        rng = np.random.default_rng(5)
        trace = gen_trace(_dw_spec(), _bounded(rng, 16, 16), DIMS)
        with pytest.raises(ValueError):
            simulate(trace, MemConfig(design=LINE_BUFFER_MULTIPORT))

    def test_zero_trace(self):
        trace = gen_trace(_dw_spec(), None, DIMS)
        empty = memsim.Trace(kind="dw", dims=trace.dims, in_h=16, in_w=16, macs=0,
                             deformable=False, square=False,
                             in_addr=np.array([], dtype=np.int64),
                             in_row=np.array([], dtype=np.int64),
                             in_out_row=np.array([], dtype=np.int64),
                             in_bytes=16, off_bytes_per_pos=0, weight_bytes=0,
                             out_bytes_per_pos=16)
        rep = simulate(empty, MemConfig(design=BASELINE_DRAM))
        assert rep.cycles == 0
        assert rep.dram_bytes_read == 0 and rep.dram_bytes_written == 0

    def test_seeded_replacement_deterministic(self):
        # a 48x48x512 map (1.18 MB) overflows the 1 MiB LLC, so victims matter
        trace, _ = ablation_case("dw_deform", (48, 48, 512, 512), seed=3)
        reps = {s: [simulate(trace, MemConfig(design=LLC, llc_seed=s)) for _ in range(2)]
                for s in (9, 10)}
        for a, b in reps.values():
            assert a == b
        # the seed changes the victim sequence, and so the hit count
        assert reps[9][0].llc_hits != reps[10][0].llc_hits
        assert reps[9][0].llc_hits + reps[9][0].llc_misses == reps[10][0].llc_hits + reps[10][0].llc_misses

    def test_cache_cost_closed_form(self):
        # two 128-byte requests at address 0: two cold misses, then two hits
        cycles, hits, misses = memsim._cache_cost(np.array([0, 0], dtype=np.int64), 128, seed=1)
        assert (hits, misses) == (2, 2)
        fill = memsim.LLC_HIT_CYCLES + -(-LLC_LINE // memsim.DRAM_BYTES_PER_CYCLE)
        assert cycles == (2 * memsim.ACP_REQUEST_CYCLES + 2 * memsim.LLC_HIT_CYCLES + 2 * fill
                          + memsim.DRAM_LATENCY)

    @pytest.mark.parametrize("seed,victim", [(1, 0), (2, 1)])
    def test_lfsr_picks_the_victim(self, seed, victim):
        # 17 lines of one set overflow its 16 ways; the first LFSR step from
        # the seed (1 -> 0xB400, 2 -> 1) names the evicted way, which then
        # misses again while every other line still hits
        conflict = np.arange(17, dtype=np.int64) * LLC_SETS * LLC_LINE
        for k in range(17):
            again = np.concatenate([conflict, conflict[k:k + 1]])
            _, hits, misses = memsim._cache_cost(again, 1, seed)
            assert (hits, misses) == ((0, 18) if k == victim else (1, 17))

    def test_gops_identity_and_peak_bound(self):
        rng = np.random.default_rng(7)
        off = _bounded(rng, 16, 16)
        trace = gen_trace(_dw_spec(), off, DIMS)
        eng = EngineConfig()
        for mem in (MemConfig(design=BASELINE_DRAM), MemConfig(design=LINE_BUFFER, line_buffer_rows=15)):
            rep = simulate(trace, mem, eng)
            clock = eng.clock_mhz * 1e6
            assert rep.gops == pytest.approx(2 * rep.macs / (rep.cycles / clock) / 1e9)
            assert rep.gops <= rep.peak_gops + 1e-9

    def test_latency_is_cycles_over_clock(self):
        trace = gen_trace(_dw_spec(), None, DIMS)
        rep = simulate(trace, MemConfig(design=LINE_BUFFER, line_buffer_rows=3))
        assert rep.latency_ms == pytest.approx(rep.cycles / 250e6 * 1e3)


class TestRoofline:
    def test_thresholds_exact(self):
        assert roofline(ConvSpec(1, 1, False, 0)).threshold_ops_per_pair == 32.0
        assert roofline(_dw_spec()).threshold_ops_per_pair == 18.0

    def test_classification(self):
        r = roofline(ConvSpec(1, 1, False, 0), dims=(64, 64, 256, 256))
        assert r.intensity_ops_per_pair == pytest.approx(2 * 256)
        assert r.bound == "compute"
        r = roofline(ConvSpec(1, 1, False, 0), dims=(64, 64, 256, 4))
        assert r.bound == "memory"
        r = roofline(_dw_spec(), dims=(64, 64, 256, 256))
        assert r.intensity_ops_per_pair == 18.0
        assert r.bound == "compute"


@pytest.fixture(scope="module")
def rows():
    return ablation_table((64, 64, 256, 256), seed=1)


class TestAblation:

    def test_sixteen_rows(self, rows):
        assert len(rows) == 16

    def test_dw_ordering_without_llc(self, rows):
        lat = {(r.operation, r.llc): r.report.latency_ms for r in rows}
        assert lat[("dw_default", False)] < lat[("dw_square", False)]
        assert lat[("dw_square", False)] < lat[("dw_bound", False)]
        assert lat[("dw_bound", False)] < lat[("dw_deform", False)]

    def test_full_llc_ordering_preserved(self, rows):
        lat = {(r.operation, r.llc): r.report.latency_ms for r in rows}
        assert lat[("full_deform", True)] < lat[("full_deform", False)]
        assert lat[("full_default", True)] < lat[("full_deform", True)]

    def test_speedups_in_windows(self, rows):
        sp = table_speedups(rows)
        assert 9.76 * 0.7 <= sp["dw"] <= 9.76 * 1.3
        assert 1.36 * 0.7 <= sp["full"] <= 1.36 * 1.3

    def test_default_full_gops_near_peak(self, rows):
        by = {(r.operation, r.llc): r.report for r in rows}
        rep = by[("full_default", False)]
        assert rep.gops >= 0.85 * rep.peak_gops

    def test_same_seed_bit_identical(self, rows):
        again = ablation_table((64, 64, 256, 256), seed=1)
        assert [row_to_csv(r) for r in rows] == [row_to_csv(r) for r in again]

    def test_csv_shape(self, rows):
        line = row_to_csv(rows[0])
        assert len(line.split(",")) == len(memsim.CSV_HEADER.split(","))
