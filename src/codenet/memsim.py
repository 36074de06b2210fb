"""Deterministic trace-driven model of the accelerator memory hierarchy.

The simulator is event-count based, not cycle-accurate: every memory request
is priced from a small set of constants (per-request DRAM latency, streaming
bandwidth, cache/buffer hit cost) and the total is

    cycles = max(compute, memory) + port_stalls + overlap * min(compute, memory)

where the overlap term models the imperfect pipelining between the compute
engines and the shared bus. Absolute milliseconds are therefore meaningless;
the model is meant to preserve *relative* latencies between designs, which is
what the ablation grid reports.

Four designs are modeled:
  baseline_dram          every sampled input block is its own DRAM request
  llc                    per-request path probing a set-associative cache
  line_buffer            inputs stream once into an on-chip row buffer
  line_buffer_multiport  same buffer with three read ports (square offsets
                         guarantee taps spread over three rows, so three
                         reads per cycle are conflict free)

A line buffer of ops.window_rows rows serves every read: hi - lo + 3 for
bounded offsets in [lo, hi], 2 hi + 1 for square ones, 3 without offsets.

The cache uses pseudo-random replacement driven by a seeded 16-bit LFSR, so
identical seeds give identical hit/miss sequences. Where the LFSR's choice
cannot change a count, the cache is counted in closed form with the same
result as the replay (see _cache_cost): when no line is touched twice, and
when every touched line fits the cache without an eviction.

The replay (_lfsr_counts) tests residency with one index into a flag per
line, not a scan of the set's 16 ways. The flags cover only the touched 64 KiB
blocks, renumbered by rank: 1 KiB per touched block. The victim ways of one
LFSR period (65,535 evictions) are listed once and cycled.

A replay is one sequential loop, because all sets share one LFSR, but the
replays of one ablation grid do not depend on each other. So when the map
overflows the LLC (h * w * ic > 1 MiB) and more than one CPU is available,
ablation_table replays the LLC rows that replay (the two deform rows) on a
pool of forked workers, one per row, while it prices the rows in order;
fork, so that a caller script needs no main guard. _cache_cost takes the
counts of the replay whose stream matches its own (LFSR seed, request bytes
and a digest of the addresses), and replays inline otherwise.
Every count is the same on any number of CPUs.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import (BOUNDED_INT, FREE_FRAC, FREE_INT, SQUARE, ConvSpec, OffsetField,
                  offset_channels, tap_positions, window_rows)

BASELINE_DRAM = "baseline_dram"
LLC = "llc"
LINE_BUFFER = "line_buffer"
LINE_BUFFER_MULTIPORT = "line_buffer_multiport"
_DESIGNS = (BASELINE_DRAM, LLC, LINE_BUFFER, LINE_BUFFER_MULTIPORT)


# The modeled hardware: fitted to the reference latencies of the paper's
# ablation (tests/test_acceptance.py), a calibration rather than a datasheet.
DRAM_LATENCY = 100          # cycles charged per request / per miss run
DRAM_BYTES_PER_CYCLE = 24   # 6 GB/s at the 250 MHz engine clock
LLC_HIT_CYCLES = 2
BUFFER_HIT_CYCLES = 1
BUFFER_PORT_BYTES = 8       # one 64-bit BRAM word per port per cycle
OVERLAP = 0.25              # un-overlapped fraction of min(compute, memory)
ACP_REQUEST_CYCLES = 35     # coherency-port overhead per cached request
LLC_LINE = 64               # a 1 MiB, 16-way LLC with 64-byte lines
LLC_WAYS = 16
LLC_SETS = (1 << 20) // (LLC_LINE * LLC_WAYS)
ABLATION_BOUND = 7  # the ablation's offsets are drawn uniformly from [0, ABLATION_BOUND]


@dataclass(frozen=True)
class MemConfig:
    design: str = LINE_BUFFER
    line_buffer_rows: int = window_rows(SQUARE, 0, ABLATION_BOUND)
    llc_routed: bool = False     # line-buffer fills go through the cache port
    llc_seed: int = 1            # seed of the LLC's replacement LFSR

    def __post_init__(self) -> None:
        if self.design not in _DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.line_buffer_rows < 1:
            raise ValueError(f"a line buffer needs at least one row, got {self.line_buffer_rows}")


@dataclass(frozen=True)
class EngineConfig:
    macs_1x1: tuple[int, int] = (16, 16)
    macs_dw: tuple[int, int] = (16, 9)
    macs_full: tuple[int, int, int] = (8, 8, 9)
    clock_mhz: int = 250

    def rate(self, kind: str) -> int:
        """MACs per cycle of the engine that runs ``kind`` (see engine_work)."""
        arrays = {"1x1": self.macs_1x1, "dw": self.macs_dw, "full": self.macs_full}
        if kind not in arrays:
            raise ValueError(f"unknown engine kind {kind!r}")
        return math.prod(arrays[kind])

    def peak_gops(self, kind: str) -> float:
        return self.rate(kind) * 2 * self.clock_mhz / 1000.0


def engine_work(spec: ConvSpec, dims: tuple[int, int, int, int]) -> tuple[str, int, int]:
    """Engine kind ('1x1', 'dw' or 'full'), MACs and weight count of a
    convolution producing an (h, w) output from ic to oc channels."""
    h, w, ic, oc = dims
    if spec.kernel == 1:
        kind = "1x1"
    else:
        kind = "dw" if spec.depthwise else "full"
    weights = spec.kernel * spec.kernel * ic * (1 if spec.depthwise else oc)
    return kind, h * w * weights, weights


@dataclass(frozen=True)
class Trace:
    """Logical access trace of one convolution kernel.

    ``in_addr`` holds one entry per sampled input block (all channels of one
    pixel, ``ic`` bytes); out-of-map samples read zero and emit no access.
    """

    kind: str                 # '1x1' | 'dw' | 'full'
    dims: tuple[int, int, int, int]
    in_h: int
    in_w: int
    macs: int
    deformable: bool
    square: bool
    in_addr: np.ndarray       # int64 byte addresses
    in_row_lead: np.ndarray   # sampled input row minus the output row, per access
    in_bytes: int             # bytes per input access (= ic)
    off_bytes_per_pos: int    # 18 free / 1 square / 0 none
    weight_bytes: int
    out_bytes_per_pos: int


def gen_trace(spec: ConvSpec, off: OffsetField | None, dims: tuple[int, int, int, int]) -> Trace:
    """Deterministic access trace for a conv kernel at NHWC byte addresses."""
    h, w, ic, oc = dims
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    if spec.depthwise and ic != oc:
        raise ValueError("depthwise kernels need ic == oc")
    if off is not None and spec.kernel != 3:
        raise ValueError("offsets only apply to 3x3 kernels")
    oh, ow = spec.out_hw(h, w)
    kind, macs, weights = engine_work(spec, (oh, ow, ic, oc))
    if off is not None and off.mode == FREE_FRAC:
        raise ValueError("trace generation needs integer offsets")
    if off is not None and off.spatial != (1, oh, ow):
        raise ValueError("offset field must cover the output with batch 1")
    iy, ix = (p[0] for p in tap_positions(off, spec, oh, ow))
    valid = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    addr = (iy * w + ix) * ic
    return Trace(
        kind=kind,
        dims=(oh, ow, ic, oc),
        in_h=h,
        in_w=w,
        macs=macs,
        deformable=off is not None,
        square=off is not None and off.mode == SQUARE,
        in_addr=addr[valid].astype(np.int64, copy=False),
        in_row_lead=(iy - np.arange(oh)[:, None, None])[valid].astype(np.int64, copy=False),
        in_bytes=ic,
        off_bytes_per_pos=0 if off is None else offset_channels(off.mode),
        weight_bytes=(weights + 1) // 2,
        out_bytes_per_pos=oc,
    )


@dataclass(frozen=True)
class SimReport:
    cycles: int
    latency_ms: float
    gops: float
    peak_gops: float
    dram_bytes_read: int
    dram_bytes_written: int
    input_dram_bytes: int
    input_cycles: int
    llc_hits: int
    llc_misses: int
    buffer_hits: int
    stalls: int
    macs: int


def _request_cycles(nbytes: int) -> int:
    """One DRAM request: its latency plus the streaming time of its bytes."""
    return DRAM_LATENCY + math.ceil(nbytes / DRAM_BYTES_PER_CYCLE)


def _stream_cost(total_bytes: int, chunk_bytes: int) -> int:
    """Contiguous stream broken into chunk-sized requests."""
    if total_bytes <= 0:
        return 0
    chunks = math.ceil(total_bytes / chunk_bytes)
    return chunks * _request_cycles(math.ceil(total_bytes / chunks))


_CHUNK = 4096  # requests turned into Python ints at a time


def _cache_cost(addrs: np.ndarray, nbytes: int, seed: int) -> tuple[int, int, int]:
    """(cycles, line hits, line misses) of requests of ``nbytes`` at ``addrs``
    on a cold LLC.

    Request i touches lines ``firsts[i]..lasts[i]`` in order. A miss fills a
    free way of its set, or else the way picked by a 16-bit Galois LFSR (taps
    0xB400) seeded with ``seed``. Every request pays the coherency port
    overhead, every line the hit latency, every missing line its refill time,
    and a request with a miss the DRAM latency once (the misses of one
    request burst together).

    The general path replays every touch through the sets (_lfsr_counts),
    with a residency flag per touched line (1 KiB per touched 64 KiB block)
    and the victim ways of one LFSR period listed up front. Two kinds of
    stream are counted in closed form instead, because no choice of victim
    can change a count there:

    * No line is touched twice (``firsts[1:] > lasts[:-1]``, as in row fills
      of whole lines): every touch is its line's first, so it misses, every
      request that touches a line misses, and no victim is ever read again.
    * The footprint fits (``lasts.max() - firsts.min() < LLC_SETS *
      LLC_WAYS``): the touched lines are fewer than LLC_SETS * LLC_WAYS
      consecutive ones, so no set ever holds more than LLC_WAYS of them and
      nothing is evicted. A touch then misses exactly when it is its line's
      first, and a request misses exactly when it holds some line's first
      touch.
    """
    if addrs.size == 0:
        return 0, 0, 0
    firsts = addrs // LLC_LINE
    lasts = (addrs + nbytes - 1) // LLC_LINE
    lengths = np.maximum(lasts - firsts + 1, 0)  # lines per request
    if np.all(firsts[1:] > lasts[:-1]):
        hits, misses, missed_requests = 0, int(lengths.sum()), int(np.count_nonzero(lengths))
    elif lasts.max() - firsts.min() < LLC_SETS * LLC_WAYS:
        hits, misses, missed_requests = _first_touches(firsts, lengths)
    else:
        hits, misses, missed_requests = _replayed(addrs, nbytes, seed) or _lfsr_counts(firsts, lasts, seed)
    fill = LLC_HIT_CYCLES + math.ceil(LLC_LINE / DRAM_BYTES_PER_CYCLE)
    cycles = (int(addrs.size) * ACP_REQUEST_CYCLES + hits * LLC_HIT_CYCLES + misses * fill
              + missed_requests * DRAM_LATENCY)
    return cycles, hits, misses


def _first_touches(firsts: np.ndarray, lengths: np.ndarray) -> tuple[int, int, int]:
    """(hits, misses, missed requests) of requests whose lines all lie within
    LLC_SETS * LLC_WAYS of ``firsts.min()``, on an LLC that evicts nothing:
    the earliest request to touch a line misses on it, every later touch hits.

    One pass per line offset within a request keeps every temporary as small
    as the request count or the LLC's line capacity.
    """
    n = firsts.size
    first_req = np.full(LLC_SETS * LLC_WAYS, n, dtype=np.int64)  # by line - firsts.min()
    rel = firsts - firsts.min()
    reqs = np.arange(n, dtype=np.int64)
    for k in range(int(lengths.max())):
        sel = lengths > k
        np.minimum.at(first_req, rel[sel] + k, reqs[sel])
    first_req = first_req[first_req < n]
    missed = np.zeros(n, dtype=bool)
    missed[first_req] = True
    misses = int(first_req.size)
    return int(lengths.sum()) - misses, misses, int(np.count_nonzero(missed))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers of range(s, s + n) for each (s, n) in order, as one array."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _lfsr_counts(firsts: np.ndarray, lasts: np.ndarray, seed: int) -> tuple[int, int, int]:
    """(hits, misses, missed requests) of the line touches, replayed through
    the sets with LFSR victim selection.

    A flag per line says whether it is resident: set when the line fills a
    way, cleared when it is evicted. The flags cover the touched 64 KiB
    blocks (``line // LLC_SETS``, each block from a request's first line to
    its last) numbered by rank, a line keeping its set, so they cost 1 KiB
    per touched block however sparse the addresses. The one LFSR steps once
    per eviction and repeats after 65,535 steps, so the victims of one period
    are listed once and cycled. Requests of no lines are dropped; the touches
    of _CHUNK requests are walked as one list, and a request misses when any
    of its touches does.
    """
    lengths = np.maximum(lasts - firsts + 1, 0)
    firsts, lengths = firsts[lengths > 0], lengths[lengths > 0]
    blocks = firsts // LLC_SETS
    spans = (firsts + lengths - 1) // LLC_SETS - blocks + 1
    touched, rank = np.unique(_ranges(blocks, spans), return_inverse=True)
    firsts = rank[np.cumsum(spans) - spans] * LLC_SETS + firsts % LLC_SETS
    resident = bytearray(touched.size * LLC_SETS)
    sets: list[list[int]] = [[] for _ in range(LLC_SETS)]
    state = (seed & 0xFFFF) or 0xACE1
    victims = []
    for _ in range(0xFFFF):
        state = (state >> 1) ^ (0xB400 if state & 1 else 0)
        victims.append(state % LLC_WAYS)
    victim = itertools.cycle(victims).__next__
    misses = missed_requests = 0
    for start in range(0, firsts.size, _CHUNK):
        counts = lengths[start:start + _CHUNK]
        touches = _ranges(firsts[start:start + _CHUNK], counts)
        missed = bytearray(touches.size)
        for i, ln in enumerate(touches.tolist()):
            if resident[ln]:
                continue
            missed[i] = resident[ln] = 1
            ways = sets[ln % LLC_SETS]
            if len(ways) < LLC_WAYS:
                ways.append(ln)
            else:
                way = victim()
                resident[ways[way]] = 0
                ways[way] = ln
        flags = np.frombuffer(missed, np.uint8)
        misses += int(np.count_nonzero(flags))
        missed_requests += int(np.count_nonzero(np.maximum.reduceat(flags, np.cumsum(counts) - counts)))
    return int(lengths.sum()) - misses, misses, missed_requests


def _stream_key(addrs: np.ndarray, nbytes: int, seed: int) -> tuple[int, int, bytes]:
    """What identifies a replayed stream: its seed, request bytes and addresses."""
    return seed, nbytes, hashlib.sha256(np.ascontiguousarray(addrs, dtype=np.int64)).digest()


def _replay(operation: str, dims: tuple[int, int, int, int], seed: int) -> tuple[tuple, tuple[int, int, int]]:
    """The _stream_key and the replayed counts of one ablation operation's LLC
    stream, as a pool worker computes them."""
    trace, mems = ablation_case(operation, dims, seed)
    addrs, nbytes, llc_seed = trace.in_addr, trace.in_bytes, mems[1].llc_seed
    return (_stream_key(addrs, nbytes, llc_seed),
            _lfsr_counts(addrs // LLC_LINE, (addrs + nbytes - 1) // LLC_LINE, llc_seed))


# The futures of the running ablation_table's replays, in the order it prices
# its rows. They are found here rather than passed down because simulate and
# _cache_cost keep their signatures: callers wrap both by name.
_REPLAYS: list = []


def _replayed(addrs: np.ndarray, nbytes: int, seed: int) -> tuple[int, int, int] | None:
    """The counts of this stream from the replay that matches it, or None
    when no replay does."""
    if not _REPLAYS:
        return None
    key = _stream_key(addrs, nbytes, seed)
    for future in _REPLAYS:
        replay_key, counts = future.result()
        if replay_key == key:
            _REPLAYS.remove(future)
            return counts
    return None


def simulate(trace: Trace, mem: MemConfig, eng: EngineConfig | None = None) -> SimReport:
    """Price a trace under one memory design.

    Weights, offsets and outputs always stream over the direct DRAM port;
    the design only changes how sampled inputs are served.
    """
    eng = eng or EngineConfig()
    if mem.design == LINE_BUFFER_MULTIPORT and trace.deformable and not trace.square:
        raise ValueError("multiport buffering requires square-mode offsets")
    oh, ow, _, _ = trace.dims
    if trace.macs == 0 and trace.in_addr.size == 0:
        return SimReport(0, 0.0, 0.0, eng.peak_gops(trace.kind), 0, 0, 0, 0, 0, 0, 0, 0, 0)

    compute = math.ceil(trace.macs / eng.rate(trace.kind))

    # Streams shared by every design.
    off_total = trace.off_bytes_per_pos * oh * ow
    out_total = trace.out_bytes_per_pos * oh * ow
    stream_cycles = (
        _stream_cost(off_total, ow * max(trace.off_bytes_per_pos, 1))
        + _stream_cost(trace.weight_bytes, trace.weight_bytes)
        + _stream_cost(out_total, ow * trace.out_bytes_per_pos)
    )
    dram_read = off_total + trace.weight_bytes
    dram_written = out_total

    llc_hits = llc_misses = 0
    buffer_hits = 0
    stalls = 0

    if mem.design == BASELINE_DRAM:
        n = int(trace.in_addr.size)
        input_cycles = n * _request_cycles(trace.in_bytes)
        input_bytes = n * trace.in_bytes
    elif mem.design == LLC:
        input_cycles, llc_hits, llc_misses = _cache_cost(trace.in_addr, trace.in_bytes, mem.llc_seed)
        input_bytes = llc_misses * LLC_LINE
    else:
        # Line buffer: every input row is streamed into the buffer exactly
        # once; reads that fall behind the resident window go back to DRAM.
        lead = trace.in_row_lead
        reach = int(lead.max()) if lead.size else 0
        resident = lead > reach - mem.line_buffer_rows
        violations = int((~resident).sum())
        buffer_hits = int(resident.sum())
        row_bytes = trace.in_bytes * trace.in_w
        fill_bytes = trace.in_h * row_bytes
        if mem.llc_routed:
            row_addrs = np.arange(trace.in_h, dtype=np.int64) * row_bytes
            fill_cycles, llc_hits, llc_misses = _cache_cost(row_addrs, row_bytes, mem.llc_seed)
        else:
            fill_cycles = _stream_cost(fill_bytes, row_bytes)
        viol_cycles = violations * _request_cycles(trace.in_bytes)
        input_cycles = fill_cycles + viol_cycles
        input_bytes = fill_bytes + violations * trace.in_bytes
        if trace.deformable:
            words = buffer_hits * math.ceil(trace.in_bytes / BUFFER_PORT_BYTES)
            ports = 3 if mem.design == LINE_BUFFER_MULTIPORT else 1
            feed = math.ceil(words * BUFFER_HIT_CYCLES / ports)
            stalls = max(0, feed - compute)

    memory = input_cycles + stream_cycles
    cycles = max(compute, memory) + stalls + math.ceil(OVERLAP * min(compute, memory))
    clock_hz = eng.clock_mhz * 1e6
    latency_ms = cycles / clock_hz * 1e3
    gops = 2.0 * trace.macs / (cycles / clock_hz) / 1e9 if cycles else 0.0
    return SimReport(
        cycles=cycles,
        latency_ms=latency_ms,
        gops=gops,
        peak_gops=eng.peak_gops(trace.kind),
        dram_bytes_read=dram_read + input_bytes,
        dram_bytes_written=dram_written,
        input_dram_bytes=input_bytes,
        input_cycles=input_cycles,
        llc_hits=llc_hits,
        llc_misses=llc_misses,
        buffer_hits=buffer_hits,
        stalls=stalls,
        macs=trace.macs,
    )


@dataclass(frozen=True)
class RooflineResult:
    threshold_ops_per_pair: float
    intensity_ops_per_pair: float | None
    bound: str | None


def roofline(spec: ConvSpec, dims: tuple[int, int, int, int] | None = None) -> RooflineResult:
    """Compute-bound threshold in OPs per loaded activation/weight pair.

    A pair is one 8-bit activation plus one 4-bit weight (1.5 bytes), so the
    DRAM, at DRAM_BYTES_PER_CYCLE of the engine clock, delivers its GB/s
    divided by 1.5 giga-pairs per second; the threshold is
    the engine's peak GOPs divided by that rate. With ``dims`` the layer's
    own intensity (2 MACs per streamed pair, weights held on chip) is
    classified against the threshold.
    """
    eng = EngineConfig()
    kind, macs, weights = engine_work(spec, dims or (1, 1, 1, 1))
    gpairs = DRAM_BYTES_PER_CYCLE * eng.clock_mhz / 1000.0 / 1.5
    threshold = eng.peak_gops(kind) / gpairs
    if dims is None:
        return RooflineResult(threshold, None, None)
    h, w, ic, oc = dims
    pairs = max(h * w * ic, weights)
    intensity = 2.0 * macs / pairs
    return RooflineResult(threshold, intensity, "compute" if intensity >= threshold else "memory")


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------

_OPERATIONS = ("default", "deform", "bound", "square")
_HALVES = ("full", "dw")
# The offset mode of each operation that a line buffer serves (deform samples anywhere).
_BUFFERED = {"default": None, "bound": BOUNDED_INT, "square": SQUARE}


@dataclass(frozen=True)
class AblationRow:
    operation: str   # e.g. "dw_square"
    design: str
    llc: bool
    report: SimReport


def _ablation_offsets(op: str, oh: int, ow: int, rng: np.random.Generator) -> OffsetField | None:
    """Synthetic offset streams for the ablation rows.

    The bounded rows draw uniformly from the legal clipped range; the
    unbounded deform row samples arbitrary pixels anywhere in the map, which
    is what makes its access pattern irregular.
    """
    if op == "deform":  # displacement = random target pixel minus the regular tap position
        ty = rng.integers(0, oh, size=(1, oh, ow, 9))
        tx = rng.integers(0, ow, size=(1, oh, ow, 9))
        base_y, base_x = tap_positions(None, ConvSpec(), oh, ow)
        return OffsetField(FREE_INT, np.stack([ty - base_y, tx - base_x], axis=-1))
    mode = _BUFFERED[op]
    if mode is None:
        return None
    shape = (1, oh, ow) if mode == SQUARE else (1, oh, ow, 9, 2)
    return OffsetField(mode, rng.integers(0, ABLATION_BOUND + 1, size=shape), lo=0, hi=ABLATION_BOUND)


def _ablation_mem(op: str, llc: bool, llc_seed: int) -> MemConfig:
    """DRAM or the LLC for deform, else a line buffer of ops.window_rows rows for
    offsets in [0, N = ABLATION_BOUND]: 3 for default, N + 3 for bound, 2N + 1 for square."""
    if op == "deform":
        return MemConfig(design=LLC if llc else BASELINE_DRAM, llc_seed=llc_seed)
    rows = window_rows(_BUFFERED[op], 0, ABLATION_BOUND)
    design = LINE_BUFFER_MULTIPORT if op == "square" else LINE_BUFFER
    return MemConfig(design=design, line_buffer_rows=rows, llc_routed=llc, llc_seed=llc_seed)


def _check_grid(dims: tuple[int, int, int, int], seed: int) -> None:
    """What an ablation case rejects before it draws a trace: a negative seed
    and a dimension below 1."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")


def ablation_case(operation: str, dims: tuple[int, int, int, int],
                  seed: int) -> tuple[Trace, tuple[MemConfig, MemConfig]]:
    """The ablation recipe for one operation such as ``"dw_square"``: its
    access trace and the memory design that serves it, indexed by LLC
    setting (0 without, 1 with), so one trace serves both.

    The offsets are drawn from an RNG keyed by (seed, half, operation), so
    ``seed`` must be non-negative; a depthwise half runs ic -> ic channels.
    The LLC replacement seed is seed + 1.
    """
    half, _, op = operation.partition("_")
    if half not in _HALVES or op not in _OPERATIONS:
        raise ValueError(f"unknown operation {operation!r}: expected HALF_OP with HALF one of "
                         f"{', '.join(_HALVES)} and OP one of {', '.join(_OPERATIONS)}")
    _check_grid(dims, seed)
    h, w, ic, oc = dims
    depthwise = half == "dw"
    spec = ConvSpec(kernel=3, stride=1, depthwise=depthwise)
    rng = np.random.default_rng([seed, _HALVES.index(half), _OPERATIONS.index(op)])
    trace = gen_trace(spec, _ablation_offsets(op, h, w, rng), (h, w, ic, ic if depthwise else oc))
    return trace, (_ablation_mem(op, False, llc_seed=seed + 1), _ablation_mem(op, True, llc_seed=seed + 1))


def _replay_operations(dims: tuple[int, int, int, int]) -> list[str]:
    """The operations whose LLC rows ablation_table replays on its pool: none
    when the map fits the LLC (every stream then has a closed form) or only
    one CPU is available (``ops._CPUS``), else those served by the ``llc``
    design."""
    h, w, ic, _ = dims
    if h * w * ic <= LLC_SETS * LLC_WAYS * LLC_LINE or ops._CPUS < 2:
        return []
    return [f"{half}_{op}" for half in _HALVES for op in _OPERATIONS
            if _ablation_mem(op, True, 0).design == LLC]


def ablation_table(dims: tuple[int, int, int, int], seed: int) -> list[AblationRow]:
    """Full ablation grid: 4 operations x {full, depthwise} x {no-LLC, LLC}.

    Replays of the LLC rows run on a process pool (see the module docstring);
    the rows are priced here, in order, with the same counts on any number
    of CPUs. A worker's exception reaches the caller as itself, a dead worker
    raises BrokenProcessPool, and no worker outlives the call. A bad seed or
    dims raise before the pool starts.
    """
    _check_grid(dims, seed)
    operations = _replay_operations(dims)
    if operations:
        import multiprocessing  # loaded only by a grid that replays in workers
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(len(operations), mp_context=multiprocessing.get_context("fork"))
    rows: list[AblationRow] = []
    try:
        _REPLAYS[:] = [pool.submit(_replay, op, dims, seed) for op in operations]
        for half in _HALVES:
            for op in _OPERATIONS:
                trace, mems = ablation_case(f"{half}_{op}", dims, seed)
                for llc, mem in enumerate(mems):
                    rows.append(AblationRow(f"{half}_{op}", mem.design, bool(llc), simulate(trace, mem)))
    finally:
        _REPLAYS.clear()
        if operations:
            pool.shutdown(cancel_futures=True)
    return rows


def table_speedups(rows: list[AblationRow]) -> dict[str, float]:
    """Co-design speedups: unbuffered deform versus bounded square buffering."""
    by_key = {(r.operation, r.llc): r.report.latency_ms for r in rows}
    return {
        "dw": by_key[("dw_deform", False)] / by_key[("dw_square", False)],
        "full": by_key[("full_deform", False)] / by_key[("full_square", False)],
    }


CSV_HEADER = "design,operation,llc,latency_ms,gops,dram_bytes,llc_hits,llc_misses,buffer_hits,stalls"


def row_to_csv(row: AblationRow) -> str:
    r = row.report
    dram = r.dram_bytes_read + r.dram_bytes_written
    return (f"{row.design},{row.operation},{int(row.llc)},{r.latency_ms:.6f},{r.gops:.3f},"
            f"{dram},{r.llc_hits},{r.llc_misses},{r.buffer_hits},{r.stalls}")
