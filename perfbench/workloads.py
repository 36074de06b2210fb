"""The three benchmark workloads.

Each workload has a set-up step (timed separately, repeated), an input
generator driven by the run seed (untimed), one timed operation, and the
checks that make its outputs verifiable: a digest compared against the pins
in ``pins.json`` and invariants used when a seed has no pins.

Every call into the library goes through a module attribute
(``graph.run_inference``, not a name imported from it) so the traced mode can
swap in span wrappers.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from codenet import container, detect, graph, memsim, quant

# Model weights and the set-up calibration image are fixed (seed 0, the seed
# the README uses), so the set-up output is pinned for every run seed; the
# per-operation inputs come from the run seed.
MODEL_SEED = 0
RESOLUTION = 512
TOP_K = 100

# Paper kernel dims (tests/test_acceptance.py BENCH_DIMS) and a map with 4x
# the pixels: at 64x64x256 the input map is exactly the 1 MiB LLC, at
# 128x128x256 it overflows it four times over.
PAPER_DIMS = (64, 64, 256, 256)
MAP4X_DIMS = (128, 128, 256, 256)
# Reference results the simulator is calibrated against, copied from
# tests/test_acceptance.py (REF_FULL_MS, REF_DW_MS and the speedup targets of
# criterion 1, which uses seed 1). The model was tuned on these same numbers;
# no held-out reference exists, so the error below is a fit, not a validation.
REF_SEED = 1
REF_SPEEDUP = {"dw": 9.76, "full": 1.36}
REF_FULL_MS = {
    ("default", False): 43.1, ("deform", False): 59.0,
    ("bound", False): 43.4, ("square", False): 43.4,
    ("default", True): 41.6, ("deform", True): 42.7,
    ("bound", True): 41.8, ("square", True): 41.8,
}
REF_DW_MS = {
    ("default", False): 1.9, ("deform", False): 20.5,
    ("bound", False): 3.0, ("square", False): 2.1,
    ("default", True): 2.0, ("deform", True): 17.8,
    ("bound", True): 3.4, ("square", True): 2.3,
}


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _pixels(key: list[int]) -> np.ndarray:
    rng = np.random.default_rng(key)
    return rng.integers(0, 256, (RESOLUTION, RESOLUTION, 3), dtype=np.uint8)


def graph_digest(g: graph.NetworkGraph) -> str:
    """SHA-256 over every parameter a graph carries: float weights, weight
    codes and their scales, and the requant multiplier/shift/bias/out_delta."""
    h = hashlib.sha256(f"{g.precision} {g.input_delta!r}".encode())
    for n in g.nodes:
        h.update(n.name.encode())
        for arr in (n.w_fp, n.b_fp, n.off_w_fp, n.off_b_fp):
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
        for q in (n.w_q, n.off_w_q):
            if q is not None:
                h.update(q.data.tobytes())
                h.update(q.qparams.t.tobytes())
        for rp in (n.rp, n.off_rp):
            if rp is not None:
                h.update(rp.multiplier.tobytes() + rp.shift.tobytes() + rp.bias.tobytes())
                h.update(f"{rp.out_delta!r} {int(rp.relu)}".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reference tasks: fixed work written without the library. run.py times a
# workload's tasks right after each operation and bounds the ratio of the two
# times, which cancels most of the host's speed drift (README.md). Each
# workload uses the tasks that drifted most like its operation did on
# recordings of back-to-back operations.
# ---------------------------------------------------------------------------

def cache_loop_task():
    """Set-associative lookups in Python lists over a numpy address array,
    the kind of work of memsim's per-address LLC loop."""
    addrs = np.random.default_rng(0).integers(0, 1 << 23, 60_000)

    def task() -> None:
        sets: list[list[int]] = [[] for _ in range(1024)]
        for addr in addrs:
            line = int(addr) // 64
            ways = sets[line % 1024]
            if line not in ways:
                if len(ways) >= 16:
                    ways[line % 16] = line
                else:
                    ways.append(line)
    return task


def int_matmul_task():
    """An int64 matmul of a 1x1 convolution's shape, like the integer kernels."""
    rng = np.random.default_rng(0)
    a = rng.integers(-128, 128, (1024, 256)).astype(np.int64)
    b = rng.integers(-8, 8, (256, 256)).astype(np.int64)
    return lambda: a @ b


def float_einsum_task():
    """A float64 einsum tap of the kind ops.conv_ref sums."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 32, 64, 256))
    w = rng.standard_normal((256, 256))
    return lambda: np.einsum("nhwi,io->nhwo", x, w)


# ---------------------------------------------------------------------------
# infer-c512: the `codenet infer` path on one fresh image per operation
# ---------------------------------------------------------------------------

@dataclass
class InferState:
    model: graph.NetworkGraph
    qp: quant.QuantParams


@dataclass
class InferOut:
    heads: tuple
    peaks: list
    lines: list[str] | None
    error: str | None


class Infer:
    name = "infer-c512"
    reference = (cache_loop_task, int_matmul_task)
    setup_spans = ("graph.quantize_graph", "container.save_graph", "container.load_graph")
    op_spans = ("container.read_image", "quant.quantize", "graph.run_inference",
                "ops.conv1x1_q", "ops.dw3x3_q", "ops.deform_conv_q", "ops.offset_gen",
                "ops.conv3x3_full_q", "ops.passthrough", "quant.requantize",
                "tensor.construct", "detect.find_peaks", "detect.decode")

    def setup(self, work) -> InferState:
        """Config c built, quantized on one calibration image, then
        round-tripped through the container as `codenet infer` loads it."""
        g = graph.build_codenet("c", seed=MODEL_SEED)
        gq = graph.quantize_graph(g, [container.image_to_float(_pixels([MODEL_SEED]))])
        path = str(work / "model_c_w4a8.cdnt")
        container.save_graph(path, gq)
        model = container.load_graph(path)
        qp = quant.QuantParams(8, quant.PER_LAYER, np.array([model.input_delta * 127.0]))
        return InferState(model, qp)

    def setup_digest(self, state: InferState) -> str:
        return graph_digest(state.model)

    def make_input(self, state: InferState, seed: int, i: int, work) -> str:
        path = str(work / "input.img")
        container.write_image(path, _pixels([seed, i]))
        return path

    def run(self, state: InferState, path: str) -> InferOut:
        pixels = container.read_image(path)
        image_q = quant.quantize(container.image_to_float(pixels), state.qp)
        heads = graph.run_inference(state.model, image_q)
        heat, sizes, offs = heads
        peaks = detect.find_peaks(heat.data[0], top_k=TOP_K)
        try:
            dets = detect.decode(peaks, offs.data[0], sizes.data[0], stride=state.model.stride_out)
        except ValueError as e:
            # The decode defect of the seed commit: reported, not skipped.
            return InferOut(heads, peaks, None, f"ValueError: {e}")
        return InferOut(heads, peaks, [d.to_line() for d in dets], None)

    def digest(self, out: InferOut) -> dict:
        heads = _sha(*(t.data.tobytes() for t in out.heads))
        dets = out.error if out.lines is None else _sha("\n".join(out.lines).encode())
        return {"heads": heads, "dets": dets}

    def problems(self, state: InferState, out: InferOut) -> list[str]:
        side = state.model.resolution // state.model.stride_out
        heat, sizes, offs = out.heads
        found = []
        if heat.data.shape != (1, side, side, state.model.classes):
            found.append(f"heatmap shape {heat.data.shape}")
        if not (np.all(heat.data >= 0.0) and np.all(heat.data <= 1.0)):
            found.append("heatmap outside [0, 1]")
        for name, t in (("sizes", sizes), ("offsets", offs)):
            if t.data.shape != (1, side, side, 2) or not np.all(np.isfinite(t.data)):
                found.append(f"{name} head malformed")
        if len(out.peaks) > TOP_K:
            found.append(f"{len(out.peaks)} peaks > top_k")
        return found

    def counts(self, out: InferOut) -> dict:
        return {}

    def kernel_macs(self, state: InferState) -> Counter:
        """MACs per image of each integer kernel, from graph.count_cost."""
        macs: Counter = Counter()
        cost = graph.count_cost(state.model)
        for node, layer in zip(state.model.nodes, cost.layers):
            if node.kind == "conv1x1":
                macs["conv1x1_q"] += layer.macs
            elif node.kind == "dw3x3":
                macs["dw3x3_q"] += layer.macs
            elif node.kind == "full3x3_first":
                macs["conv3x3_full_q"] += layer.macs
            elif node.kind == "dw3x3_deform":
                h, w, c = layer.out_shape
                macs["deform_conv_q"] += h * w * 9 * c
                macs["offset_gen"] += layer.macs - h * w * 9 * c
        return macs


# ---------------------------------------------------------------------------
# ptq-d512: post-training quantization of the 2x-width network
# ---------------------------------------------------------------------------

class Ptq:
    name = "ptq-d512"
    reference = (int_matmul_task, float_einsum_task)
    setup_spans = ("container.save_graph", "container.load_graph")
    op_spans = ("graph.quantize_graph", "graph.run_inference_float", "ops.conv_ref",
                "ops.deform_conv_ref", "quant.calibrate", "quant.derive_requant",
                "quant.quantize", "tensor.construct")

    def setup(self, work) -> graph.NetworkGraph:
        """Config d fp32 graph round-tripped through the container, as
        `codenet quantize` loads it."""
        path = str(work / "model_d_fp32.cdnt")
        container.save_graph(path, graph.build_codenet("d", seed=MODEL_SEED))
        return container.load_graph(path)

    def setup_digest(self, state: graph.NetworkGraph) -> str:
        return graph_digest(state)

    def make_input(self, state, seed: int, i: int, work) -> list:
        return [container.image_to_float(_pixels([seed, i, k])) for k in range(2)]

    def run(self, state: graph.NetworkGraph, calib: list) -> graph.NetworkGraph:
        return graph.quantize_graph(state, calib)

    def digest(self, out: graph.NetworkGraph) -> str:
        return graph_digest(out)

    def problems(self, state, out: graph.NetworkGraph) -> list[str]:
        found = []
        if out.precision != "w4a8":
            found.append(f"precision {out.precision}")
        for n in out.nodes:
            if not n.is_conv:
                continue
            if n.w_q is None or n.w_q.bits != 4 or n.rp is None:
                found.append(f"node {n.name} not quantized")
            elif np.any(n.rp.multiplier < 1 << 30):
                found.append(f"node {n.name} multiplier not normalized")
        try:
            out.lint()
        except graph.GraphError as e:
            found.append(str(e))
        return found

    def counts(self, out) -> dict:
        return {}


# ---------------------------------------------------------------------------
# sim-grid: the ablation grid at the paper dims and at a 4x map
# ---------------------------------------------------------------------------

@dataclass
class SimOut:
    paper: list
    map4x: list
    accesses: int


def grid_csv(rows: list) -> str:
    return "\n".join([memsim.CSV_HEADER] + [memsim.row_to_csv(r) for r in rows]) + "\n"


def model_error_pct(rows: list) -> dict[str, float]:
    """Error of the simulated co-design speedups against the references."""
    speed = memsim.table_speedups(rows)
    return {k: abs(speed[k] - REF_SPEEDUP[k]) / REF_SPEEDUP[k] * 100.0 for k in REF_SPEEDUP}


def reference_lines(rows: list) -> list[str]:
    """Each simulated latency of the reference grid beside the hardware
    latency it was calibrated against (the acceptance test asserts only
    their order)."""
    refs = {"full": REF_FULL_MS, "dw": REF_DW_MS}
    lines = []
    for r in rows:
        half, op = r.operation.split("_", 1)
        ref = refs[half][(op, r.llc)]
        lines.append(f"reference grid {r.operation:12} llc={int(r.llc)} simulated {r.report.latency_ms:9.4f} ms"
                     f"  reference {ref:5.1f} ms  error {(r.report.latency_ms - ref) / ref * 100:+7.2f}%")
    return lines


def _llc(rows: list) -> tuple[int, int]:
    hits = sum(r.report.llc_hits for r in rows)
    return hits, hits + sum(r.report.llc_misses for r in rows)


class Sim:
    name = "sim-grid"
    reference = (cache_loop_task,)
    setup_spans = ("memsim.ablation_table",)
    op_spans = ("memsim.ablation_table", "memsim.gen_trace", "memsim.llc",
                *(f"memsim.simulate.{d}" for d in (memsim.BASELINE_DRAM, memsim.LLC,
                                                   memsim.LINE_BUFFER, memsim.LINE_BUFFER_MULTIPORT)))

    def setup(self, work) -> list:
        """The reference grid: paper dims at the acceptance seed, from which
        the model error is computed."""
        return memsim.ablation_table(PAPER_DIMS, REF_SEED)

    def setup_digest(self, rows: list) -> str:
        return _sha(grid_csv(rows).encode())

    def make_input(self, state, seed: int, i: int, work) -> tuple[int, int]:
        a, b = np.random.default_rng([seed, i]).integers(0, 1 << 30, size=2)
        return int(a), int(b)

    def run(self, state, seeds: tuple[int, int]) -> SimOut:
        """One step of the sweep: a paper-dims grid, then a 4x-map grid.

        A pass-through counter on simulate() records the input accesses each
        call prices (32 calls per step); nothing else is intercepted."""
        priced = []
        simulate = memsim.simulate

        def counting(trace, mem, eng=None):
            priced.append(int(trace.in_addr.size))
            return simulate(trace, mem, eng)

        memsim.simulate = counting
        try:
            paper = memsim.ablation_table(PAPER_DIMS, seeds[0])
            map4x = memsim.ablation_table(MAP4X_DIMS, seeds[1])
        finally:
            memsim.simulate = simulate
        return SimOut(paper, map4x, sum(priced))

    def digest(self, out: SimOut) -> list[str]:
        return [_sha(grid_csv(out.paper).encode()), _sha(grid_csv(out.map4x).encode())]

    def problems(self, state, out: SimOut) -> list[str]:
        found = []
        for label, rows in (("paper", out.paper), ("map4x", out.map4x)):
            if len(rows) != 16 or any(r.report.cycles <= 0 for r in rows):
                found.append(f"{label} grid malformed")
            elif min(memsim.table_speedups(rows).values()) <= 1.0:
                found.append(f"{label} grid: bounded square sampling is not faster than deform")
        return found

    def counts(self, out: SimOut) -> dict:
        hits_p, touches_p = _llc(out.paper)
        hits_4, touches_4 = _llc(out.map4x)
        rows = out.paper + out.map4x
        return {
            "accesses": out.accesses,
            "llc_hits": hits_p + hits_4,
            "llc_touches": touches_p + touches_4,
            "llc_hits_paper": hits_p, "llc_touches_paper": touches_p,
            "llc_hits_map4x": hits_4, "llc_touches_map4x": touches_4,
            "cycles": sum(r.report.cycles for r in rows),
            "dram_bytes": sum(r.report.dram_bytes_read + r.report.dram_bytes_written for r in rows),
        }


WORKLOADS = {w.name: w for w in (Infer(), Ptq(), Sim())}
