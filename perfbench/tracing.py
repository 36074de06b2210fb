"""Span recorder for the traced benchmark mode.

Spans are recorded from the benchmark's side only: ``Tracer.install`` swaps
the module attributes that callers look up for timing wrappers and
``uninstall`` puts the originals back. Each binding listed by ``bindings()`` is
the name a caller on a workload path resolves at call time, e.g. ``ops``
calls ``requantize`` through its own module globals and ``graph`` imported
``calibrate`` / ``derive_requant`` / ``quantize`` by name, so those names are
patched in the importing module, not only in ``quant``.

A span's self time is its duration minus the time of the spans it opened.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# Integer kernels of the inference path, in report order.
KERNELS = ("conv1x1_q", "dw3x3_q", "deform_conv_q", "offset_gen", "conv3x3_full_q")
PASSTHROUGH = ("maxpool2x2", "upsample2x_nearest", "split_half", "concat", "shuffle")


def bindings() -> dict[str, list[tuple[object, str]]]:
    """Span name -> the (owner, attribute) bindings its callers look up."""
    from codenet import container, detect, graph, memsim, ops, quant, tensor
    return {
        **{f"ops.{k}": [(ops, k)] for k in KERNELS},
        "ops.passthrough": [(ops, p) for p in PASSTHROUGH],
        "ops.conv_ref": [(ops, "conv_ref")],
        "ops.deform_conv_ref": [(ops, "deform_conv_ref")],
        "quant.quantize": [(quant, "quantize"), (graph, "quantize")],
        "quant.requantize": [(quant, "requantize"), (ops, "requantize")],
        "quant.calibrate": [(quant, "calibrate"), (graph, "calibrate")],
        "quant.derive_requant": [(quant, "derive_requant"), (graph, "derive_requant")],
        "tensor.construct": [(tensor.QuantTensor, "__post_init__"), (tensor.AccumTensor, "__post_init__")],
        "graph.run_inference": [(graph, "run_inference")],
        "graph.run_inference_float": [(graph, "run_inference_float")],
        "graph.quantize_graph": [(graph, "quantize_graph")],
        "detect.find_peaks": [(detect, "find_peaks")],
        "detect.decode": [(detect, "decode")],
        "container.read_image": [(container, "read_image")],
        "container.save_graph": [(container, "save_graph")],
        "container.load_graph": [(container, "load_graph")],
        "memsim.ablation_table": [(memsim, "ablation_table")],
        "memsim.gen_trace": [(memsim, "gen_trace")],
        "memsim.simulate": [(memsim, "simulate")],
        # The per-address LLC model loop; simulate() reaches it through the
        # module global, for the llc design and for LLC-routed line-buffer fills.
        "memsim.llc": [(memsim, "_cache_cost")],
    }


# offset_gen runs its offset convolution through conv1x1_q. That call is
# folded into the offset_gen span so each kernel span matches one node kind
# of graph.count_cost (the offset MACs belong to the dw3x3_deform node).
FOLDED = {("ops.offset_gen", "ops.conv1x1_q")}


def _conv_bytes(args: tuple, out) -> float:
    """Compulsory bytes of one integer kernel call, computed from shapes, not
    measured: 1 byte per input code, offset value and output code, half a
    byte per packed 4-bit weight."""
    return args[0].shape.num_elements + 0.5 * args[1].shape.num_elements + out.shape.num_elements


def _deform_bytes(args: tuple, out) -> float:
    return _conv_bytes(args, out) + args[2].data.size


def _offset_bytes(args: tuple, out) -> float:
    return args[0].shape.num_elements + 0.5 * args[1].shape.num_elements + out.data.size


def _simulate_name(args: tuple, kwargs: dict) -> str:
    mem = args[1] if len(args) > 1 else kwargs["mem"]
    return f"memsim.simulate.{mem.design}"


_NAMERS = {"memsim.simulate": _simulate_name}
_BYTES = {"ops.conv1x1_q": _conv_bytes, "ops.dw3x3_q": _conv_bytes, "ops.conv3x3_full_q": _conv_bytes,
          "ops.deform_conv_q": _deform_bytes, "ops.offset_gen": _offset_bytes}


class Tracer:
    """Per-span call counts, self and inclusive seconds, failures and
    computed bytes, aggregated in memory."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.fails: Counter[str] = Counter()
        self.nbytes: Counter[str] = Counter()
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            self.fails[name] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.calls[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, name: str, fn):
        namer = _NAMERS.get(name)
        count_bytes = _BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            if self._stack and (self._stack[-1][0], span) in FOLDED:
                return fn(*args, **kwargs)
            with self.span(span):
                out = fn(*args, **kwargs)
            if count_bytes:
                self.nbytes[span] += count_bytes(args, out)
            return out

        return wrapper

    def install(self) -> None:
        for name, owners in bindings().items():
            for owner, attr in owners:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
