import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from codenet import memsim, ops
from codenet.memsim import (ABLATION_BOUND, BASELINE_DRAM, LINE_BUFFER,
                            LINE_BUFFER_MULTIPORT, LLC, LLC_LINE, LLC_SETS, EngineConfig,
                            MemConfig, ablation_case, ablation_table, engine_work, gen_trace,
                            roofline, row_to_csv, simulate, table_speedups)
from codenet.graph import OFFSET_RANGE
from codenet.ops import BOUNDED_INT, FREE_INT, SQUARE, ConvSpec, OffsetField, offset_channels

from oracles import cache_cost_loop

DIMS = (16, 16, 16, 16)


def _dw_spec():
    return ConvSpec(3, 1, True)


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
        assert (free.mode, sq.mode) == (BOUNDED_INT, SQUARE)
        assert offset_channels(free.mode) == 18
        assert offset_channels(sq.mode) == 1

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
        full = gen_trace(ConvSpec(3, 1, False), None, (8, 8, 4, 6))
        dw = gen_trace(_dw_spec(), None, (8, 8, 4, 4))
        assert (full.dims, dw.dims) == ((8, 8, 4, 6), (8, 8, 4, 4))
        assert engine_work(full.spec, full.dims) == ("full", 8 * 8 * 9 * 4 * 6, 9 * 4 * 6)
        assert engine_work(dw.spec, dw.dims) == ("dw", 8 * 8 * 9 * 4, 9 * 4)
        mem = MemConfig(design=BASELINE_DRAM)
        assert (simulate(full, mem).macs, simulate(dw, mem).macs) == (8 * 8 * 9 * 4 * 6, 8 * 8 * 9 * 4)

    @pytest.mark.parametrize("spec,dims", [(ConvSpec(3, 2, True), (64, 64, 116, 116)),
                                           (ConvSpec(3, 4, False), (32, 32, 3, 24))])
    def test_strided_lead_is_from_the_window_center(self, spec, dims):
        # output row y's window is centered on input row y * stride, so a
        # regular strided conv reads one row above and below it and a
        # 3-row buffer serves every read
        trace = gen_trace(spec, None, dims)
        h, w, ic, _ = dims
        assert set(np.unique(trace.in_row_lead).tolist()) == {-1, 0, 1}
        rep = simulate(trace, MemConfig(design=LINE_BUFFER, line_buffer_rows=ops.window_rows(None, 0, 0)))
        assert rep.buffer_hits == trace.in_addr.size
        assert rep.input_dram_bytes == h * w * ic


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

    @staticmethod
    def _no_samples() -> memsim.Trace:
        """A dw trace at DIMS whose every sample falls outside the map: each
        tap is displaced 17 rows down a 16-row map."""
        h, w, _, _ = DIMS
        trace = gen_trace(_dw_spec(), OffsetField(FREE_INT, np.full((1, h, w, 9, 2), h + 1)), DIMS)
        assert trace.in_addr.size == trace.in_row_lead.size == 0
        return trace

    def test_empty_llc_trace_with_macs(self):
        # the LLC prices no request, the engines still compute
        rep = simulate(self._no_samples(), MemConfig(design=LLC))
        assert (rep.llc_hits, rep.llc_misses, rep.input_cycles, rep.input_dram_bytes) == (0, 0, 0, 0)
        assert rep.cycles > 0 and rep.macs == 16 * 16 * 9 * 16

    @pytest.mark.parametrize("rows", [0, -3])
    def test_line_buffer_needs_a_row(self, rows):
        with pytest.raises(ValueError):
            MemConfig(design=LINE_BUFFER, line_buffer_rows=rows)

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
            assert rep.gops <= eng.peak_gops("dw") + 1e-9

    def test_latency_is_cycles_over_clock(self):
        trace = gen_trace(_dw_spec(), None, DIMS)
        rep = simulate(trace, MemConfig(design=LINE_BUFFER, line_buffer_rows=3))
        assert rep.latency_ms == pytest.approx(rep.cycles / 250e6 * 1e3)


RULE_DIMS = (32, 32, 16, 16)


def _rule_trace(mode, lo, hi, seed=0):
    """A dw trace on a RULE_DIMS map with offsets of ``mode`` drawn uniformly
    from [lo, hi] (None: no offsets)."""
    h, w, _, _ = RULE_DIMS
    rng = np.random.default_rng([seed, lo + 8, hi + 8])
    if mode == SQUARE:
        off = OffsetField(SQUARE, rng.integers(lo, hi + 1, size=(1, h, w)), lo=lo, hi=hi)
    else:
        off = None if mode is None else _bounded(rng, h, w, lo, hi)
    return gen_trace(_dw_spec(), off, RULE_DIMS)


def _violations(trace, rows):
    """Reads that fall behind a line buffer of ``rows`` rows: each costs one
    more ``ic`` bytes of DRAM beyond the one fill of the map."""
    rep = simulate(trace, MemConfig(design=LINE_BUFFER, line_buffer_rows=rows))
    h, w, ic, _ = trace.dims
    return (rep.input_dram_bytes - h * w * ic) // ic


def _fewest_rows(trace):
    rows = 1
    while _violations(trace, rows):
        rows += 1
    return rows


RULE_CASES = ([(None, 0, 0)] + [(BOUNDED_INT, 0, n) for n in range(8)] + [(SQUARE, 0, n) for n in range(8)]
              + [(BOUNDED_INT, *OFFSET_RANGE), (BOUNDED_INT, -3, 2)])


class TestWindowRows:
    @pytest.mark.parametrize("mode,lo,hi", RULE_CASES)
    def test_rule_is_the_fewest_rows_without_a_violation(self, mode, lo, hi):
        assert ops.window_rows(mode, lo, hi) == _fewest_rows(_rule_trace(mode, lo, hi))

    @pytest.mark.parametrize("mode,lo,hi,rows", [
        (None, 0, 7, 3), (BOUNDED_INT, 0, 7, 10), (SQUARE, 0, 7, 15), (BOUNDED_INT, -8, 7, 18),
        (BOUNDED_INT, 0, 0, 3), (SQUARE, 0, 1, 3), (SQUARE, 0, 0, 1), (BOUNDED_INT, -3, 2, 8)])
    def test_row_counts(self, mode, lo, hi, rows):
        assert ops.window_rows(mode, lo, hi) == rows

    @pytest.mark.parametrize("n", range(8))
    def test_ablation_buffers_follow_the_bound(self, monkeypatch, n):
        monkeypatch.setattr(memsim, "ABLATION_BOUND", n)
        rows = {op: memsim._ablation_mem(op, False, 1).line_buffer_rows for op in ("default", "bound", "square")}
        assert rows == {"default": 3, "bound": n + 3, "square": 2 * n + 1}

    def test_ablation_and_default_buffers(self):
        rows = {op: ablation_case(f"dw_{op}", DIMS, 1)[1][0].line_buffer_rows for op in ("default", "bound", "square")}
        assert ABLATION_BOUND == 7 and rows == {"default": 3, "bound": 10, "square": 15}
        assert MemConfig().line_buffer_rows == 15

    def test_network_range_needs_18_rows(self):
        trace = _rule_trace(BOUNDED_INT, *OFFSET_RANGE, seed=1)
        assert _violations(trace, 17) > 0 and _violations(trace, 18) == 0


class TestRoofline:
    def test_thresholds_exact(self):
        assert roofline(ConvSpec(1, 1, False)).threshold_ops_per_pair == 32.0
        assert roofline(_dw_spec()).threshold_ops_per_pair == 18.0

    def test_classification(self):
        r = roofline(ConvSpec(1, 1, False), dims=(64, 64, 256, 256))
        assert r.intensity_ops_per_pair == pytest.approx(2 * 256)
        assert r.bound == "compute"
        r = roofline(ConvSpec(1, 1, False), dims=(64, 64, 256, 4))
        assert r.bound == "memory"
        r = roofline(_dw_spec(), dims=(64, 64, 256, 256))
        assert r.intensity_ops_per_pair == 18.0
        assert r.bound == "compute"


@pytest.fixture(scope="module")
def rows():
    return ablation_table((64, 64, 256, 256), seed=1)


class TestAblation:
    @pytest.mark.parametrize("operation", ["dw_bogus", "dw", "half_square", ""])
    def test_unknown_operation_names_the_valid_ones(self, operation):
        with pytest.raises(ValueError, match=r"full, dw .* default, deform, bound, square") as caught:
            ablation_case(operation, DIMS, 1)
        assert repr(operation) in str(caught.value)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -5$"):
            ablation_case("dw_default", DIMS, -5)

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
        assert rep.gops >= 0.85 * EngineConfig().peak_gops("full")

    def test_same_seed_bit_identical(self, rows):
        again = ablation_table((64, 64, 256, 256), seed=1)
        assert [row_to_csv(r) for r in rows] == [row_to_csv(r) for r in again]

    def test_csv_shape(self, rows):
        line = row_to_csv(rows[0])
        assert len(line.split(",")) == len(memsim.CSV_HEADER.split(","))


CAPACITY = LLC_SETS * memsim.LLC_WAYS  # lines the LLC holds


def _stream(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, int, str]:
    """(addresses, request bytes, the path _cache_cost must take) of one
    request stream: "disjoint" (no line touched twice), "fits" (the lines
    span at most the LLC's capacity) or "loop" (neither, so LFSR victims)."""
    if kind == "random_fits":
        return rng.integers(0, 1 << 19, 3000), int(rng.integers(1, 301)), "fits"
    if kind == "random_overflows":
        return rng.integers(0, 1 << 22, 3000), int(rng.integers(1, 301)), "loop"
    if kind == "span_16384":
        # both end lines present, above line 0, every line at least once
        lines = np.concatenate([np.arange(CAPACITY), rng.integers(0, CAPACITY, 4000)])
        return (rng.permutation(lines) + 1000) * LLC_LINE, LLC_LINE, "fits"
    if kind == "span_16385":
        # one set receives 17 lines, so the second pass rereads a victim
        lines = np.arange(CAPACITY + 1)
        return (np.concatenate([lines, lines]) + 7) * LLC_LINE, LLC_LINE, "loop"
    if kind == "sorted_disjoint":
        gaps = rng.integers(4, 40, 6000)  # a request spans at most 4 lines
        return np.cumsum(gaps) * LLC_LINE + 5, 200, "disjoint"
    if kind == "shared_line":
        # request i + 1 starts in the line request i ends in
        return np.arange(20000) * 100, 100, "loop"
    raise ValueError(kind)


def _loop_counts(addrs: np.ndarray, nbytes: int, seed: int) -> tuple[int, int, int]:
    """(hits, misses, missed requests) of the scalar loop; the missed
    requests are read back from its cycles."""
    cycles, hits, misses = cache_cost_loop(addrs, nbytes, seed)
    fill = memsim.LLC_HIT_CYCLES + -(-LLC_LINE // memsim.DRAM_BYTES_PER_CYCLE)
    rest = cycles - addrs.size * memsim.ACP_REQUEST_CYCLES - hits * memsim.LLC_HIT_CYCLES - misses * fill
    return hits, misses, rest // memsim.DRAM_LATENCY


@pytest.fixture
def paths(monkeypatch):
    """The counting functions _cache_cost calls in this process, in order."""
    taken = []
    for name in ("_first_touches", "_lfsr_counts"):
        def spy(*args, _real=getattr(memsim, name), _name=name):
            taken.append(_name)
            return _real(*args)
        monkeypatch.setattr(memsim, name, spy)
    return taken


class TestCacheCostOracle:
    """memsim._cache_cost against the scalar LFSR loop of the oracles."""

    @pytest.mark.parametrize("kind", ["random_fits", "random_overflows", "span_16384", "span_16385",
                                      "sorted_disjoint", "shared_line"])
    def test_equals_loop(self, paths, kind):
        rng = np.random.default_rng([31, len(kind)])
        addrs, nbytes, path = _stream(kind, rng)
        addrs = addrs.astype(np.int64)
        for seed in (1, 2):
            assert memsim._cache_cost(addrs, nbytes, seed) == cache_cost_loop(addrs, nbytes, seed)
        want = {"disjoint": [], "fits": ["_first_touches"], "loop": ["_lfsr_counts"]}[path]
        assert paths == want * 2

    def test_victims_matter_past_capacity(self):
        rng = np.random.default_rng(0)
        addrs, nbytes, _ = _stream("span_16385", rng)
        _, hits, misses = memsim._cache_cost(addrs.astype(np.int64), nbytes, 1)
        assert misses > CAPACITY + 1 and hits + misses == addrs.size

    def test_unaligned_request_sizes(self):
        rng = np.random.default_rng(5)
        for nbytes in range(1, 301):
            hi = int(rng.choice([1 << 14, 1 << 21]))
            addrs = rng.integers(0, hi, 120)
            if nbytes % 3 == 0:
                addrs = np.sort(addrs)
            if nbytes % 5 == 0:
                addrs = np.arange(120) * nbytes + int(rng.integers(0, 64))
            for a in (addrs.astype(np.int64), np.sort(addrs).astype(np.int64) * 7):
                assert memsim._cache_cost(a, nbytes, 3) == cache_cost_loop(a, nbytes, 3), nbytes

    @pytest.mark.parametrize("nbytes", [0, -1, -200])
    def test_requests_of_no_bytes(self, nbytes):
        # a request of n <= 0 bytes touches no line, or one if unaligned
        rng = np.random.default_rng(9)
        for addrs in (np.arange(50) * 64, np.arange(50) * 97 + 3, rng.integers(0, 1 << 21, 50)):
            a = addrs.astype(np.int64)
            assert memsim._cache_cost(a, nbytes, 1) == cache_cost_loop(a, nbytes, 1)

    def test_victim_list_wraps(self, paths):
        # one-line requests over 4x the capacity evict more often than the
        # LFSR's period of 65,535 steps, so the replay cycles its victim list
        addrs = np.random.default_rng(11).integers(0, 4 * CAPACITY, 8 * CAPACITY) * LLC_LINE
        want = cache_cost_loop(addrs, LLC_LINE, 4)
        assert want[2] - CAPACITY > 0xFFFF  # evictions: misses past the cold fills
        assert memsim._cache_cost(addrs, LLC_LINE, 4) == want
        assert paths == ["_lfsr_counts"]

    @pytest.mark.parametrize("seed", [0, 0x10000, -1])
    def test_seed_keeps_sixteen_bits(self, paths, seed):
        # the LFSR takes the seed's low 16 bits, and a zero state starts at
        # 0xACE1 instead
        addrs = np.random.default_rng(2).integers(0, 4 * CAPACITY, 20000) * LLC_LINE + 17
        got = memsim._cache_cost(addrs, 100, seed)
        assert got == cache_cost_loop(addrs, 100, seed)
        assert got == memsim._cache_cost(addrs, 100, (seed & 0xFFFF) or 0xACE1)
        assert paths == ["_lfsr_counts"] * 2

    @pytest.mark.parametrize("base", [0, -(1 << 41)])
    def test_sparse_addresses(self, paths, base):
        # requests 2**30 bytes apart over 2**40 bytes: a flag per line of that
        # span would take 2**34 bytes, the touched blocks take 1 KiB each.
        # Each request's lines fall in sets 0-4, so those sets overflow.
        rng = np.random.default_rng(8)
        addrs = base + rng.integers(0, 1 << 10, 3000) * (1 << 30) + rng.integers(0, 4, 3000) * LLC_LINE
        assert memsim._cache_cost(addrs, 100, 7) == cache_cost_loop(addrs, 100, 7)
        assert paths == ["_lfsr_counts"]

    def test_requests_longer_than_a_block(self, paths):
        # a request of 150,000 bytes spans three or four 64 KiB blocks, some
        # of them touched by no other request's end lines, and its lines must
        # stay consecutive after the blocks are numbered
        rng = np.random.default_rng(13)
        addrs = rng.choice(rng.integers(0, 1 << 26, 30), 90)
        assert memsim._cache_cost(addrs, 150_000, 5) == cache_cost_loop(addrs, 150_000, 5)
        assert paths == ["_lfsr_counts"]

    def test_requests_of_no_lines_among_long_ones(self):
        # requests whose last line precedes their first (no lines, or a
        # negative count) touch nothing, wherever they lie, so mixing them
        # into requests of 40 or 41 lines changes no count
        rng = np.random.default_rng(12)
        addrs = rng.integers(0, 4 * CAPACITY * LLC_LINE, 4000)
        nbytes = 40 * LLC_LINE
        empty = rng.integers(-(1 << 40), 1 << 40, 3000)
        at = np.sort(rng.integers(0, addrs.size + 1, empty.size))
        firsts = np.insert(addrs // LLC_LINE, at, empty)
        lasts = np.insert((addrs + nbytes - 1) // LLC_LINE, at, empty - rng.integers(1, 50, empty.size))
        assert memsim._lfsr_counts(firsts, lasts, 6) == _loop_counts(addrs, nbytes, 6)

    @pytest.mark.parametrize("addrs", [[], [0], [63], [12345678]])
    @pytest.mark.parametrize("nbytes", [1, 64, 65, 300, 1 << 21])
    def test_empty_and_single_request(self, addrs, nbytes):
        a = np.array(addrs, dtype=np.int64)
        assert memsim._cache_cost(a, nbytes, 1) == cache_cost_loop(a, nbytes, 1)
        if not addrs:
            assert memsim._cache_cost(a, nbytes, 1) == (0, 0, 0)

    def test_paper_grid_takes_no_loop(self, paths):
        # the paper map is exactly the LLC's capacity and its fills are whole
        # lines, so no call of the grid replays LFSR victims
        ablation_table((64, 64, 256, 256), seed=1)
        assert paths and "_lfsr_counts" not in paths

    @pytest.mark.parametrize("op", ["dw_deform", "full_deform"])
    def test_paper_deform_trace(self, op):
        trace, _ = ablation_case(op, (64, 64, 256, 256), seed=4)
        assert (memsim._cache_cost(trace.in_addr, trace.dims[2], 5)
                == cache_cost_loop(trace.in_addr, trace.dims[2], 5))


MAP4X = (128, 128, 256, 256)  # 4 MiB of input: the deform rows overflow the LLC


class TestReplayWorkers:
    """ablation_table replays the LLC rows of an overflowing map on a process
    pool; every row must equal the one-CPU run, and no worker may outlive
    the call."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def allow(n: int) -> None:
            monkeypatch.setattr(ops, "_CPUS", n)
        return allow

    @pytest.mark.parametrize("seed", [2, 9])
    def test_workers_give_the_one_cpu_grid(self, paths, cpus, seed):
        cpus(2)
        forked = ablation_table(MAP4X, seed)
        assert multiprocessing.active_children() == []
        assert "_lfsr_counts" not in paths  # both replays ran in the workers
        cpus(1)
        inline = ablation_table(MAP4X, seed)
        assert paths.count("_lfsr_counts") == 2
        assert [row_to_csv(r) for r in forked] == [row_to_csv(r) for r in inline]
        for op in ("full_deform", "dw_deform"):
            trace, mems = ablation_case(op, MAP4X, seed)
            report = next(r.report for r in forked if r.operation == op and r.llc)
            assert ((report.input_cycles, report.llc_hits, report.llc_misses)
                    == cache_cost_loop(trace.in_addr, trace.dims[2], mems[1].llc_seed))

    def test_paper_grid_starts_no_process(self, cpus, monkeypatch):
        def start(process):
            raise AssertionError("a process was started")
        cpus(2)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        ablation_table((64, 64, 256, 256), 1)

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def pool(*args, **kwargs):
            raise AssertionError("a replay pool was built")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)

    def test_bad_seed_raises_with_no_child_left(self, cpus, no_pool):
        cpus(2)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            ablation_table(MAP4X, seed=-1)
        assert multiprocessing.active_children() == []

    def test_bad_dims_raise_with_no_child_left(self, cpus, no_pool):
        cpus(2)
        with pytest.raises(ValueError, match="^dims must be positive$"):
            ablation_table((-128, -128, 256, 256), 1)  # h * w * ic overflows the LLC
        assert multiprocessing.active_children() == []

    def test_failing_worker_raises_in_the_caller(self, cpus, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("replay lost")
        cpus(2)
        monkeypatch.setattr(memsim, "_lfsr_counts", broken)
        with pytest.raises(ZeroDivisionError, match="^replay lost$") as caught:
            ablation_table(MAP4X, 1)
        assert "in broken\n" in str(caught.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_in_the_caller(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.setattr(memsim, "_lfsr_counts", lambda *args: os._exit(3))
        with pytest.raises(BrokenProcessPool):
            ablation_table(MAP4X, 1)
        assert multiprocessing.active_children() == []

    def test_parent_error_waits_for_the_running_replays(self, cpus, monkeypatch):
        # the first row raises just after both replays start (each takes
        # about 0.15 s); the error must reach the caller only after both
        # workers have finished and exited
        running = []

        def broken(trace, mem):
            running.extend(memsim._REPLAYS)
            raise RuntimeError("pricing failed")
        cpus(2)
        monkeypatch.setattr(memsim, "simulate", broken)
        with pytest.raises(RuntimeError, match="pricing failed"):
            ablation_table(MAP4X, 1)
        assert len(running) == 2 and all(future.done() for future in running)
        assert multiprocessing.active_children() == []

    def test_paper_grid_imports_no_process_pool(self):
        # a grid whose map fits the LLC replays nothing, so it need not load
        # the process machinery at all
        script = ("import sys\n"
                  "from codenet.memsim import ablation_table\n"
                  "ablation_table((64, 64, 256, 256), 1)\n"
                  "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "[]\n"
