import multiprocessing
import os

import numpy as np
import pytest

from codenet import memsim
from codenet.memsim import (ABLATION_BOUND, BASELINE_DRAM, LINE_BUFFER,
                            LINE_BUFFER_MULTIPORT, LLC, LLC_LINE, LLC_SETS, EngineConfig,
                            MemConfig, ablation_case, ablation_table, gen_trace, roofline,
                            row_to_csv, simulate, table_speedups)
from codenet.ops import BOUNDED_INT, FREE_INT, SQUARE, ConvSpec, OffsetField

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
        full = gen_trace(ConvSpec(3, 1, False), None, (8, 8, 4, 6))
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

    @staticmethod
    def _no_samples(macs: int) -> memsim.Trace:
        """A dw trace at DIMS whose every sample falls outside the map."""
        return memsim.Trace(kind="dw", dims=DIMS, in_h=16, in_w=16, macs=macs,
                            deformable=False, square=False,
                            in_addr=np.array([], dtype=np.int64),
                            in_row=np.array([], dtype=np.int64),
                            in_out_row=np.array([], dtype=np.int64),
                            in_bytes=16, off_bytes_per_pos=0, weight_bytes=0,
                            out_bytes_per_pos=16)

    def test_zero_trace(self):
        rep = simulate(self._no_samples(0), MemConfig(design=BASELINE_DRAM))
        assert rep.cycles == 0
        assert rep.dram_bytes_read == 0 and rep.dram_bytes_written == 0

    def test_empty_llc_trace_with_macs(self):
        # the LLC prices no request, the engines still compute
        rep = simulate(self._no_samples(1000), MemConfig(design=LLC))
        assert (rep.llc_hits, rep.llc_misses, rep.input_cycles, rep.input_dram_bytes) == (0, 0, 0, 0)
        assert rep.cycles > 0 and rep.macs == 1000

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
            assert rep.gops <= rep.peak_gops + 1e-9

    def test_latency_is_cycles_over_clock(self):
        trace = gen_trace(_dw_spec(), None, DIMS)
        rep = simulate(trace, MemConfig(design=LINE_BUFFER, line_buffer_rows=3))
        assert rep.latency_ms == pytest.approx(rep.cycles / 250e6 * 1e3)


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
        assert (memsim._cache_cost(trace.in_addr, trace.in_bytes, 5)
                == cache_cost_loop(trace.in_addr, trace.in_bytes, 5))


MAP4X = (128, 128, 256, 256)  # 4 MiB of input: the deform rows overflow the LLC


class TestReplayWorkers:
    """ablation_table replays the LLC rows of an overflowing map in forked
    workers; every row must equal the one-CPU run, and no worker may outlive
    the call."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def allow(n: int) -> None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
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
                    == cache_cost_loop(trace.in_addr, trace.in_bytes, mems[1].llc_seed))

    def test_paper_grid_starts_no_process(self, cpus, monkeypatch):
        def start(process):
            raise AssertionError("a process was started")
        cpus(2)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        ablation_table((64, 64, 256, 256), 1)

    def test_bad_seed_raises_with_no_child_left(self, cpus):
        cpus(2)
        with pytest.raises(ValueError, match="non-negative"):
            ablation_table(MAP4X, seed=-1)
        assert multiprocessing.active_children() == []

    def test_failing_worker_raises_in_the_caller(self, cpus, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("replay lost")
        cpus(2)
        monkeypatch.setattr(memsim, "_lfsr_counts", broken)
        with pytest.raises(RuntimeError, match="worker of full_deform failed") as caught:
            ablation_table(MAP4X, 1)
        assert "in broken\n" in str(caught.value)  # the worker's traceback
        assert str(caught.value).endswith("ZeroDivisionError: replay lost\n")
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_in_the_caller(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.setattr(memsim, "_lfsr_counts", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="worker of full_deform exited with code 3"):
            ablation_table(MAP4X, 1)
        assert multiprocessing.active_children() == []
