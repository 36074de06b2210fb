"""codenet benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload infer-c512 --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from ``src/``. The
report lines come first and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, taken from spans around the library's functions on
every other operation, the operations between them running untraced to
measure the tracing overhead. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from tracing import KERNELS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up repeats until both limits are reached; setup_s is their median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
PIN_FILE = HERE / "pins.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The bounded per-operation time is relative to the workload's reference task
# timed right after each operation (workloads.py): the host's speed drifts by
# up to a factor of two over minutes, which moved the run median of sim-grid
# by 0.3 of itself between runs (README.md). The times in ms are still printed.
END_TO_END = (
    ("op_time_ref_ratio", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

DESIGNS = ("baseline_dram", "llc", "line_buffer", "line_buffer_multiport")
PER_LAYER = (
    *((f"ops.{k}.{m}", u, b) for k in KERNELS for m, u, b in (
        ("calls", "count", "lower"), ("self_s", "s", "lower"), ("gmac_per_s", "GMAC/s", "higher"),
        ("gmac", "GMAC", "lower"), ("mb_moved", "MB", "lower"))),
    ("ops.passthrough.calls", "count", "lower"),
    ("ops.passthrough.self_s", "s", "lower"),
    ("quant.requantize.calls", "count", "lower"),
    ("quant.requantize.self_s", "s", "lower"),
    ("quant.quantize.self_s", "s", "lower"),
    ("tensor.construct.calls", "count", "lower"),
    ("tensor.construct.self_s", "s", "lower"),
    ("graph.run_inference.self_s", "s", "lower"),
    ("detect.find_peaks.self_s", "s", "lower"),
    ("detect.decode.self_s", "s", "lower"),
    ("detect.decode.fail", "count", "lower"),
    ("container.read_image.self_s", "s", "lower"),
    ("graph.run_inference_float.self_s", "s", "lower"),
    ("ops.conv_ref.self_s", "s", "lower"),
    ("ops.deform_conv_ref.self_s", "s", "lower"),
    ("quant.calibrate.self_s", "s", "lower"),
    ("quant.derive_requant.self_s", "s", "lower"),
    ("graph.quantize_graph.self_s", "s", "lower"),
    ("container.load_graph.s", "s", "lower"),
    ("container.save_graph.s", "s", "lower"),
    *((f"memsim.simulate.{d}.{m}", u, "lower") for d in DESIGNS
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("memsim.gen_trace.self_s", "s", "lower"),
    ("memsim.ablation_table.self_s", "s", "lower"),
    ("memsim.llc.self_s", "s", "lower"),
    ("memsim.llc.touches_per_s", "1/s", "higher"),
    ("memsim.llc.hit_ratio", "ratio", "higher"),
    ("memsim.llc.hit_ratio.paper", "ratio", "higher"),
    ("memsim.llc.hit_ratio.map4x", "ratio", "higher"),
    ("memsim.accesses", "count", "lower"),
    ("memsim.llc.touches", "count", "lower"),
    ("memsim.model.cycles", "cycles", "lower"),
    ("memsim.model.dram_bytes", "B", "lower"),
    ("memsim.model.err_dw_pct", "%", "lower"),
    ("memsim.model.err_full_pct", "%", "lower"),
    ("trace.op_ms_untraced", "ms", "lower"),
    ("trace.op_ms_traced", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.self_sum_ms", "ms", "lower"),
    ("bench.self_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def cap_threads() -> int:
    """Cap the BLAS/OpenMP thread-count variables at nproc; this must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def environment(nproc: int) -> list[str]:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [f"env python {platform.python_version()} numpy {np.__version__} blas {blas}",
            f"env nproc {nproc} {threads}"]


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least 10 samples beyond it, or None
    when that percentile would not be above the median."""
    k = len(samples) - 10
    if k < len(samples) / 2:
        return None, None
    return sorted(samples)[k - 1], 100.0 * k / len(samples)


def load_pins() -> dict:
    with open(PIN_FILE) as f:
        return json.load(f)


class Run:
    """One benchmark run: set-up repeats, then the closed measurement loop."""

    def __init__(self, wl, seed: int, seconds: float, trace: bool, pins: dict) -> None:
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.pins = pins
        self.setup_tracer = Tracer()
        self.op_tracer = Tracer()
        self.setup_times: list[float] = []
        self.untraced: list[float] = []
        self.reference = [make() for make in wl.reference]
        self.ref_times: list[float] = []
        self.traced: list[float] = []
        self.completed = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.problems: list[str] = []
        self.verified = 0
        self.unverified = 0
        self.counts_all: Counter = Counter()
        self.counts_traced: Counter = Counter()
        self.counts_first: dict = {}

    def setup(self, work: Path):
        expected = self.pins["setup"][self.wl.name]
        state = None
        while len(self.setup_times) < SETUP_MIN_REPEATS or sum(self.setup_times) < SETUP_MIN_SECONDS:
            with self.setup_tracer.installed() if self.trace else nullcontext():
                t0 = time.perf_counter()
                state = self.wl.setup(work)
                self.setup_times.append(time.perf_counter() - t0)
            got = self.wl.setup_digest(state)
            if got != expected:
                self.problems.append(f"set-up output {got[:16]} != pinned {expected[:16]}")
        return state

    def _check(self, state, i: int, out) -> bool:
        """True when the output agrees with its pin, or with the invariants
        when this seed has no pin for operation i."""
        pinned = self.pins["ops"][self.wl.name] if self.seed == self.pins["seed"] else []
        if i < len(pinned):
            self.verified += 1
            if self.wl.digest(out) == pinned[i]:
                return True
            self.problems.append(f"op {i}: output differs from the pin")
            return False
        self.unverified += 1
        found = self.wl.problems(state, out)
        self.problems.extend(f"op {i}: {p}" for p in found)
        return not found

    def measure(self, state, work: Path) -> None:
        deadline = time.perf_counter() + self.seconds
        i = 0
        # In the traced mode operations alternate untraced / traced, and the
        # loop runs at least one of each.
        while time.perf_counter() < deadline or i < (2 if self.trace else 1):
            inp = self.wl.make_input(state, self.seed, i, work)
            traced = self.trace and i % 2 == 1
            out, error = None, None
            with self.op_tracer.installed() if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    with self.op_tracer.span("bench") if traced else nullcontext():
                        out = self.wl.run(state, inp)
                except Exception as e:  # counted in fail_rate, reported by type
                    error = f"{type(e).__name__}: {e}"
                dt = time.perf_counter() - t0
            (self.traced if traced else self.untraced).append(dt)
            if not traced:
                t0 = time.perf_counter()
                for task in self.reference:
                    task()
                self.ref_times.append(time.perf_counter() - t0)
            if out is not None:
                self.completed += 1
                error = getattr(out, "error", None)
                counts = self.wl.counts(out)
                self.counts_all.update(counts)
                if traced:
                    self.counts_traced.update(counts)
                if i == 0:
                    self.counts_first = counts
                ok = self._check(state, i, out)
            else:
                ok = False
            if error is not None:
                self.errors[error] += 1
            if error is not None or not ok:
                self.failed += 1
            i += 1

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced)

    def missing_spans(self) -> list[str]:
        if not self.trace:
            return []
        return ([f"set-up span {s}" for s in self.wl.setup_spans if not self.setup_tracer.calls[s]]
                + [f"span {s}" for s in self.wl.op_spans if not self.op_tracer.calls[s]])


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "op_time_ref_ratio": statistics.median(
            op / ref for op, ref in zip(run.untraced, run.ref_times)),
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, state, sim_err: dict[str, float]) -> dict[str, float]:
    """Per-operation means over the traced operations."""
    tr, n = run.op_tracer, len(run.traced)
    m: dict[str, float] = {}
    macs = run.wl.kernel_macs(state) if hasattr(run.wl, "kernel_macs") else Counter()
    for k in KERNELS:
        span = f"ops.{k}"
        self_s = tr.self_s[span] / n
        gmac = macs[k] / 1e9 if tr.calls[span] else 0.0
        m[f"{span}.calls"] = tr.calls[span] / n
        m[f"{span}.self_s"] = self_s
        m[f"{span}.gmac_per_s"] = gmac / self_s if self_s else 0.0
        m[f"{span}.gmac"] = gmac
        m[f"{span}.mb_moved"] = tr.nbytes[span] / n / 1e6
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls" and name not in m:
            m[name] = tr.calls[span] / n
        elif field == "self_s" and name not in m:
            m[name] = tr.self_s[span] / n
    m["detect.decode.fail"] = tr.fails["detect.decode"] / n
    for span in ("container.load_graph", "container.save_graph"):
        calls = run.setup_tracer.calls[span]
        m[f"{span}.s"] = run.setup_tracer.total_s[span] / calls if calls else 0.0
    ct, ca, first = run.counts_traced, run.counts_all, run.counts_first
    llc_s = tr.total_s["memsim.llc"]
    m["memsim.llc.touches_per_s"] = ct["llc_touches"] / llc_s if llc_s else 0.0
    for suffix in ("", "_paper", "_map4x"):
        touches = ca[f"llc_touches{suffix}"]
        key = "memsim.llc.hit_ratio" + suffix.replace("_", ".")
        m[key] = ca[f"llc_hits{suffix}"] / touches if touches else 0.0
    m["memsim.accesses"] = first.get("accesses", 0)
    m["memsim.llc.touches"] = first.get("llc_touches", 0)
    m["memsim.model.cycles"] = first.get("cycles", 0)
    m["memsim.model.dram_bytes"] = first.get("dram_bytes", 0)
    m["memsim.model.err_dw_pct"] = sim_err.get("dw", 0.0)
    m["memsim.model.err_full_pct"] = sim_err.get("full", 0.0)
    untraced_ms = statistics.fmean(run.untraced) * 1e3
    traced_ms = statistics.fmean(run.traced) * 1e3
    m["trace.op_ms_untraced"] = untraced_ms
    m["trace.op_ms_traced"] = traced_ms
    m["trace.overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100.0
    m["trace.self_sum_ms"] = sum(v for s, v in tr.self_s.items() if s != "bench") / n * 1e3
    m["bench.self_s"] = tr.self_s["bench"] / n
    return m


def fmt(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:<34} {shown:>14} {unit:<7} {note}".rstrip()


def report(run: Run, state, args, nproc: int) -> tuple[list[str], dict, dict]:
    from codenet import memsim
    from workloads import REF_SPEEDUP, model_error_pct, reference_lines
    wl = run.wl
    lines = [f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace} "
             f"(closed loop, 1 client, batch 1)"]
    lines += environment(nproc)
    e2e = end_to_end(run)
    samples = run.untraced + run.traced
    n = len(samples)
    t_val, t_pct = tail(samples)
    tail_note = (f"p{t_pct:.0f} of n={n}, 10 samples beyond" if t_val is not None
                 else f"n={n}: a percentile above the median with 10 samples beyond it needs n >= 20")
    fail_rate = run.failed / run.attempted
    sim_err = model_error_pct(state) if wl.name == "sim-grid" else {}
    acc_note = (f"[simulated; model error vs reference: dw {sim_err.get('dw', 0):.2f}%, "
                f"full {sim_err.get('full', 0):.2f}%]")
    p50_ms = statistics.median(samples) * 1e3
    ops_per_s = run.completed / sum(samples)
    lines.append(fmt("op_time_ref_ratio", e2e["op_time_ref_ratio"], "ratio",
                     f"median over n={len(run.untraced)} untraced operations of op time / reference time"))
    lines.append(fmt("ref_ms_p50", statistics.median(run.ref_times) * 1e3, "ms",
                     "median time of the reference task"))
    lines.append(fmt("op_ms_p50", p50_ms, "ms", f"median of n={n}"))
    lines.append(fmt("op_ms_tail", t_val * 1e3 if t_val is not None else "n/a", "ms", tail_note))
    lines.append(fmt("ops_per_s", ops_per_s, "1/s", "operations that returned an output per second"))
    if wl.name == "infer-c512":
        lines.append(fmt("infer_ms_p50", p50_ms, "ms", "median ms per image"))
        lines.append(fmt("infer_ms_tail", t_val * 1e3 if t_val is not None else "n/a", "ms", tail_note))
        lines.append(fmt("infer_images_per_s", ops_per_s, "1/s", "forward passes completed per second"))
    elif wl.name == "ptq-d512":
        lines.append(fmt("ptq_s_p50", p50_ms / 1e3, "s", "median s per quantize_graph"))
    else:
        lines.append(fmt("sim_accesses_per_s", run.counts_all["accesses"] / sum(samples), "1/s",
                         "simulated input accesses priced per host second"))
        speed = memsim.table_speedups(state)
        for k in ("dw", "full"):
            lines.append(fmt(f"model_err_{k}_pct", sim_err[k], "%",
                             f"simulated speedup {speed[k]:.4f} vs reference {REF_SPEEDUP[k]} "
                             f"(tests/test_acceptance.py criterion 1, paper dims, seed 1)"))
        lines += reference_lines(state)
        lines.append("note: the model was calibrated on these same reference numbers; no held-out "
                     "reference exists. The LLC starts empty on every simulate() call.")
        first = run.counts_first
        for key, name, unit in (("accesses", "memsim.accesses", "count"),
                                ("llc_touches", "memsim.llc.touches", "count"),
                                ("cycles", "memsim.model.cycles", "cycles"),
                                ("dram_bytes", "memsim.model.dram_bytes", "B")):
            lines.append(fmt(name, first.get(key, 0), unit, "first step; " + acc_note))
    lines.append(fmt("fail_rate", fail_rate, "ratio", f"{run.failed} failed of {run.attempted} attempted"))
    lines.append(fmt("setup_s", e2e["setup_s"], "s", f"median of {len(run.setup_times)} set-ups"))
    lines.append(fmt("peak_rss_mb", e2e["peak_rss_mb"], "MB"))
    for err, count in sorted(run.errors.items()):
        lines.append(f"failure x{count}: {err}")
    if run.seed == run.pins["seed"]:
        lines.append(f"verified {run.verified} operations against pins for seed {run.seed}; "
                     f"{run.unverified} beyond the pins checked by invariants only")
    else:
        lines.append(f"unverified: no pins for seed {run.seed}; {run.unverified} operations "
                     f"checked by invariants only (pins exist for seed {run.pins['seed']})")
    lines.append(f"set-up output checked against its pin {len(run.setup_times)} times")
    for p in run.problems[:20]:
        lines.append(f"PROBLEM {p}")
    layer = per_layer(run, state, sim_err) if run.trace else {}
    if layer:
        lines.append(f"per-layer: per-operation means over {len(run.traced)} traced operations; "
                     f"gmac from graph.count_cost and mb_moved from tensor shapes are computed, "
                     f"not measured; 0 marks a layer off this workload's path")
        for name, value in layer.items():
            simulated = sim_err and name in ("memsim.model.cycles", "memsim.model.dram_bytes")
            lines.append(fmt(name, value, UNITS[name], acc_note if simulated else ""))
        gap = layer["trace.self_sum_ms"] - layer["trace.op_ms_untraced"]
        overhead = layer["trace.op_ms_traced"] - layer["trace.op_ms_untraced"]
        glue = layer["bench.self_s"] * 1e3
        # The spans nest, so the self times plus the glue equal the traced op
        # time; 1% of the op time allows for the timer calls around the spans.
        within = abs(gap) <= abs(overhead) + glue + 0.01 * layer["trace.op_ms_untraced"]
        lines.append(f"trace check: layer self times sum to {layer['trace.self_sum_ms']:.3f} ms, "
                     f"untraced op {layer['trace.op_ms_untraced']:.3f} ms, gap {gap:+.3f} ms; "
                     f"tracing overhead {overhead:+.3f} ms, unattributed glue {glue:.3f} ms: "
                     f"{'within' if within else 'OUTSIDE'}")
    return lines, e2e, layer


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "codenet").is_dir():
        print(f"error: library sources not found at {ROOT / 'src' / 'codenet'}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), load_pins())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        state = run.setup(work)
        run.measure(state, work)
    missing = run.missing_spans()
    if missing:
        for s in missing:
            print(f"error: {s} was never entered; its wrapper patches a binding no caller uses",
                  file=sys.stderr)
        return 3
    lines, e2e, layer = report(run, state, args, nproc)
    print("\n".join(lines))
    metrics = layer if args.trace else e2e
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        with open(declared) as f:
            names = {m["name"] for m in json.load(f)["per_layer" if args.trace else "end_to_end"]}
        if names != set(metrics):
            print(f"error: metrics differ from BENCHMARK.json: {sorted(names ^ set(metrics))}",
                  file=sys.stderr)
            return 3
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
