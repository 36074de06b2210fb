"""Detection network construction, integer execution and cost accounting.

The network is a flat list of nodes in topological order. Shuffle blocks form
the backbone; three deformable upsampling blocks bring the stride-32 features
back to stride 4, where three pointwise heads emit the keypoint heatmap, the
class-agnostic box sizes and the sub-cell center offsets. Concatenation is
used throughout instead of residual addition, so the integer path never needs
a wide add.

Nodes with two outputs (split) publish them as ``name#0`` and ``name#1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from . import ops
from .quant import PER_CHANNEL, RequantParams, calibrate, derive_requant, quantize
from .tensor import FloatTensor, QuantTensor, Shape4

# Backbone stage widths for the 1x network and their doubled 2x variant.
STAGE_WIDTHS = {1: (24, 116, 232, 464), 2: (48, 232, 464, 928)}
STAGE_BLOCKS = (4, 8, 4)
# Decoder widths per multiplier; the final stage is pinned to the head
# feature dim. The 2x decoder doubles the first width but widens the second
# by 1.5x so the doubled network stays inside its compute budget.
DECODER_WIDTHS = {1: (1024, 256, 64), 2: (2048, 384, 64)}
OUTPUT_STRIDE = 4
# The three pointwise heads: keypoint heatmap, box sizes, center offsets.
HEADS = ("head_y", "head_s", "head_o")
OFFSET_RANGE = (-8, 7)

CONFIGS = {
    "a": (256, "stride4", 1),
    "b": (256, "stride2_maxpool", 1),
    "c": (512, "stride4", 1),
    "d": (512, "stride4", 2),
    "e": (512, "stride2_maxpool", 2),
}


class GraphError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Operator kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpKind:
    """What differs between operator kinds; everything else is derived.

    Conv kinds give ``run_q(node, inputs)``, the integer kernel call looked up
    on ``ops`` at call time, ``run_f(node, inputs, record)``, the float64 sums
    before bias and relu as a new array, and ``kernel``, which fixes ConvSpec,
    weights and cost; the 3x3 kernels and float sums band rows in ``ops._in_bands``.
    A pass-through kind is the ``ops`` function of its name, called on arrays
    by both executors and, on empty ones, by the shape walk; it gives only
    ``arity``.
    """

    run_q: Callable | None = None
    run_f: Callable | None = None
    kernel: int = 0
    depthwise: bool = False
    deformable: bool = False
    arity: int = 1


# A float64 pointwise weight matrix larger than this outgrows the cache, so its
# sums run in blocks of _PIXEL_BLOCK pixels that each read it once.
_CACHED_W_BYTES = 2 << 20
_PIXEL_BLOCK = 64


def _float_conv1x1(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise float64 sums, written in row bands.

    A weight matrix of at most ``_CACHED_W_BYTES`` takes one einsum per band,
    which reads all of it for each pixel. A larger one would then come from
    memory at every pixel, so each image's band is cut into blocks of
    ``_PIXEL_BLOCK`` pixels, copied to (ic, pixels) and contracted by
    ``np.einsum("ip,io->po")``; numpy runs ic outermost there, so one weight
    row serves the whole block from cache. Both forms add the products of an
    output in ic order onto +0, one multiply and one add each, so a band or a
    block holds the bits of the whole einsum. With oc = 1 numpy reduces a
    lone output in an order of its own: each pixel in the whole-band form, a
    one-pixel block in the blocked one."""
    w = w[:, 0, 0, :].astype(np.float64)
    n, _, _, ic = x.shape
    out = np.empty((*x.shape[:3], w.shape[1]), dtype=np.float64)

    def band(a: int, b: int) -> None:
        if w.nbytes <= _CACHED_W_BYTES:
            np.einsum("nhwi,io->nhwo", x[:, a:b], w, out=out[:, a:b])
            return
        cols = np.empty((ic, _PIXEL_BLOCK))
        for k in range(n):
            xs, ys = x[k, a:b].reshape(-1, ic), out[k, a:b].reshape(-1, w.shape[1])
            for p in range(0, len(xs), _PIXEL_BLOCK):
                q = min(p + _PIXEL_BLOCK, len(xs))
                block = cols[:, :q - p]
                block[...] = xs[p:q].T
                np.einsum("ip,io->po", block, w, out=ys[p:q])

    ops._in_bands(x.shape[1], band)
    return out


def _float_tensors(x: np.ndarray, w: np.ndarray) -> tuple[FloatTensor, FloatTensor]:
    return FloatTensor(Shape4(*x.shape), x), FloatTensor(Shape4(*w.shape), w)


def _float_conv3x3(n: LayerNode, xs: list[np.ndarray], record: Callable) -> np.ndarray:
    return ops.conv_ref(*_float_tensors(xs[0], n.w_fp), n.spec).data.astype(np.float64)


def _deform_q(n: LayerNode, xs: list[QuantTensor]) -> QuantTensor:
    off = ops.offset_gen(xs[0], n.off_w_q, n.off_rp, n.offset_mode,
                         n.offset_lo, n.offset_hi, path=n.offset_path)
    return ops.deform_conv_q(xs[0], n.w_q, off, n.spec, n.rp)


def _deform_f(n: LayerNode, xs: list[np.ndarray], record: Callable) -> np.ndarray:
    """Offsets are rounded and clipped exactly as in deployment."""
    raw = record(n.name + "/off", _float_conv1x1(xs[0], n.off_w_fp) + n.off_b_fp)
    off = ops.round_clip_offsets(raw, n.offset_mode, n.offset_lo, n.offset_hi)
    out = ops.deform_conv_ref(*_float_tensors(xs[0], n.w_fp), off, n.spec)
    return out.data.astype(np.float64)


KINDS: dict[str, OpKind] = {
    "conv1x1": OpKind(
        run_q=lambda n, xs: ops.conv1x1_q(xs[0], n.w_q, n.rp),
        run_f=lambda n, xs, record: _float_conv1x1(xs[0], n.w_fp),
        kernel=1),
    "dw3x3": OpKind(
        run_q=lambda n, xs: ops.dw3x3_q(xs[0], n.w_q, n.spec, n.rp),
        run_f=_float_conv3x3, kernel=3, depthwise=True),
    "dw3x3_deform": OpKind(run_q=_deform_q, run_f=_deform_f, kernel=3, depthwise=True, deformable=True),
    # The stem: the one full convolution; it runs on the host processor.
    "full3x3_first": OpKind(
        run_q=lambda n, xs: ops.conv3x3_full_q(xs[0], n.w_q, n.spec, n.rp),
        run_f=_float_conv3x3, kernel=3),
    "maxpool2x2": OpKind(),
    "upsample2x_nearest": OpKind(),
    "split_half": OpKind(),
    "concat": OpKind(arity=2),
    "shuffle": OpKind(),
}
CONV_KINDS = tuple(k for k, v in KINDS.items() if v.kernel)


@dataclass
class LayerNode:
    name: str
    kind: str
    inputs: tuple[str, ...]
    ic: int = 0
    oc: int = 0
    stride: int = 1
    relu: bool = False
    # Float parameters (fp32 model).
    w_fp: np.ndarray | None = None
    b_fp: np.ndarray | None = None
    off_w_fp: np.ndarray | None = None
    off_b_fp: np.ndarray | None = None
    # Deformable sampling configuration.
    offset_mode: str = ops.BOUNDED_INT
    offset_lo: int = OFFSET_RANGE[0]
    offset_hi: int = OFFSET_RANGE[1]
    offset_path: str = "requant"
    # Quantized parameters (w4a8 model).
    w_q: QuantTensor | None = None
    rp: RequantParams | None = None
    off_w_q: QuantTensor | None = None
    off_rp: RequantParams | None = None

    @property
    def is_conv(self) -> bool:
        return self.kind in CONV_KINDS

    @property
    def deformable(self) -> bool:
        """Whether the node generates sampling offsets with a 1x1 convolution."""
        return self.is_conv and KINDS[self.kind].deformable

    @property
    def spec(self) -> ops.ConvSpec:
        k = KINDS[self.kind]
        return ops.ConvSpec(k.kernel, self.stride, k.depthwise)

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        spec = self.spec
        return (1 if spec.depthwise else self.ic, spec.kernel, spec.kernel, self.oc)

    @property
    def offset_weight_shape(self) -> tuple[int, int, int, int]:
        return (self.ic, 1, 1, ops.offset_channels(self.offset_mode))

    def check_finite(self) -> None:
        """fp32 weights and biases, offset ones included, must be finite."""
        if not all(a is None or np.isfinite(a).all() for a in (self.w_fp, self.b_fp, self.off_w_fp, self.off_b_fp)):
            raise ValueError("fp32 weights and biases must be finite")

    @property
    def output_names(self) -> tuple[str, ...]:
        if self.kind == "split_half":
            return (self.name + "#0", self.name + "#1")
        return (self.name,)


@dataclass
class NetworkGraph:
    nodes: list[LayerNode]
    config: str
    resolution: int
    precision: str = "fp32"
    input_delta: float = 1.0 / 127.0
    stride_out: ClassVar[int] = OUTPUT_STRIDE

    def node(self, name: str) -> LayerNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    @property
    def classes(self) -> int:
        """One heatmap channel per class."""
        return self.node("head_y").oc

    def lint(self) -> None:
        """Check the precision and the input delta, each node in the one walk of
        ``_out_shapes``, then that each of ``HEADS`` is a conv node that no node
        reads, the size and offset heads with 2 channels."""
        if self.precision not in ("fp32", "w4a8"):
            raise GraphError(f"precision {self.precision!r} is not fp32 or w4a8")
        if not 0 < self.input_delta < math.inf:
            raise GraphError(f"input_delta {self.input_delta!r} is not positive and finite")
        _out_shapes(self)
        read = {i for n in self.nodes for i in n.inputs}
        for h, oc in zip(HEADS, (None, 2, 2)):  # None: one heatmap channel per class
            n = next((n for n in self.nodes if n.name == h), None)
            if n is None or not n.is_conv or oc not in (None, n.oc) or h in read:
                channels = f" with {oc} output channels" if oc else ""
                raise GraphError(f"head '{h}' must be a conv node{channels} that no node reads")


def _out_shapes(g: NetworkGraph) -> dict[str, tuple[int, int, int]]:
    """(h, w, c) of every value at the configured input resolution. On the way
    it checks each node's kind, input count, channels (a conv's ic is its input's),
    offset settings and shape, and that its inputs are defined earlier and its
    outputs nowhere else; it raises GraphError naming the first node that fails.
    A pass-through node's shapes are those its ``ops`` function gives on empty
    (0, h, w, c) arrays, so the walk rejects exactly what the op rejects."""
    shapes = {"input": (g.resolution, g.resolution, 3)}
    for n in g.nodes:
        try:
            kind = KINDS.get(n.kind)
            if kind is None:
                raise ValueError(f"kind {n.kind!r} is not a supported operator")
            if len(n.inputs) != kind.arity:
                raise ValueError(f"{n.kind} takes {kind.arity} input(s)")
            if n.is_conv and min(n.ic, n.oc) < 1:
                raise ValueError(f"{n.kind} needs ic and oc of at least 1, got {n.ic} and {n.oc}")
            if n.deformable and n.offset_mode not in (ops.BOUNDED_INT, ops.SQUARE):
                raise ValueError(f"unsupported offset mode {n.offset_mode!r}")
            if n.deformable and n.offset_lo > n.offset_hi:
                raise ValueError(f"empty offset range [{n.offset_lo},{n.offset_hi}]")
            if n.deformable and n.offset_path not in ops.OFFSET_PATHS:
                raise ValueError(f"unknown offset path {n.offset_path!r}")
            for src in n.inputs:
                if src not in shapes:
                    raise ValueError(f"input '{src}' is not defined earlier (cycle or typo)")
            for out in n.output_names:
                if out in shapes:
                    raise ValueError(f"value '{out}' is defined twice")
            ins = [shapes[i] for i in n.inputs]
            if n.is_conv:
                spec = n.spec
                if n.ic != ins[0][2]:
                    raise ValueError(f"ic {n.ic} does not match the {ins[0][2]} channels of '{n.inputs[0]}'")
                if spec.depthwise and n.ic != n.oc:
                    raise ValueError("depthwise needs ic == oc")
                if n.stride != 1 and (spec.kernel == 1 or n.deformable):
                    raise ValueError(f"{n.kind} runs at stride 1 only")
                outs = [(*spec.out_hw(*ins[0][:2]), n.oc)]
            else:
                out = getattr(ops, n.kind)(*(np.empty((0, *s), np.int8) for s in ins))
                outs = [o.shape[1:] for o in (out if isinstance(out, tuple) else (out,))]
        except ValueError as e:
            raise GraphError(f"node '{n.name}': {e}") from None
        shapes.update(zip(n.output_names, outs))
    return shapes


def _he_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = math.prod(shape[:-1])
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


class _Builder:
    def __init__(self, seed: int, offset_mode: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.nodes: list[LayerNode] = []
        self.offset_mode = offset_mode

    def add(self, node: LayerNode) -> str:
        self.nodes.append(node)
        return node.name

    def conv(self, name: str, kind: str, src: str, ic: int, oc: int,
             stride: int = 1, relu: bool = False) -> str:
        """Conv node with He-initialized weights, then offset weights when
        the kind is deformable, and zero biases."""
        n = LayerNode(name, kind, (src,), ic=ic, oc=oc, stride=stride, relu=relu)
        n.w_fp = _he_init(self.rng, n.weight_shape)
        n.b_fp = np.zeros(oc, dtype=np.float32)
        if n.deformable:
            n.offset_mode = self.offset_mode
            n.off_w_fp = _he_init(self.rng, n.offset_weight_shape)
            n.off_b_fp = np.zeros(n.offset_weight_shape[-1], dtype=np.float32)
        return self.add(n)


def build_codenet(
    config: str,
    classes: int = 20,
    seed: int = 0,
    offset_mode: str = ops.BOUNDED_INT,
) -> NetworkGraph:
    """Construct the detection network for one configuration (a..e)."""
    if config not in CONFIGS:
        raise GraphError(f"unknown config {config!r}; expected one of {sorted(CONFIGS)}")
    if classes < 1:
        raise GraphError(f"classes must be at least 1, got {classes}")
    resolution, downsample, mult = CONFIGS[config]
    stem_c, *stage_c = STAGE_WIDTHS[mult]
    dec_c = DECODER_WIDTHS[mult]
    b = _Builder(seed, offset_mode)

    stem_stride = 4 if downsample == "stride4" else 2
    cur = b.conv("stem", "full3x3_first", "input", 3, stem_c, stride=stem_stride, relu=True)
    if downsample == "stride2_maxpool":
        cur = b.add(LayerNode("stem_pool", "maxpool2x2", (cur,), ic=stem_c, oc=stem_c))

    in_c = stem_c
    for si, (out_c, blocks) in enumerate(zip(stage_c, STAGE_BLOCKS), start=2):
        half = out_c // 2
        p = f"s{si}"
        # Downsampling block: both branches see the stage input.
        b1 = b.conv(f"{p}d_b1dw", "dw3x3", cur, in_c, in_c, stride=2)
        b1 = b.conv(f"{p}d_b1pw", "conv1x1", b1, in_c, half, relu=True)
        b2 = b.conv(f"{p}d_b2pw1", "conv1x1", cur, in_c, half, relu=True)
        b2 = b.conv(f"{p}d_b2dw", "dw3x3", b2, half, half, stride=2)
        b2 = b.conv(f"{p}d_b2pw2", "conv1x1", b2, half, half, relu=True)
        cur = b.add(LayerNode(f"{p}d_cat", "concat", (b1, b2), ic=out_c, oc=out_c))
        cur = b.add(LayerNode(f"{p}d_shuf", "shuffle", (cur,), ic=out_c, oc=out_c))
        for bi in range(1, blocks):
            q = f"{p}b{bi}"
            sp = b.add(LayerNode(f"{q}_split", "split_half", (cur,), ic=out_c, oc=half))
            keep, work = sp + "#0", sp + "#1"
            work = b.conv(f"{q}_pw1", "conv1x1", work, half, half, relu=True)
            work = b.conv(f"{q}_dw", "dw3x3", work, half, half)
            work = b.conv(f"{q}_pw2", "conv1x1", work, half, half, relu=True)
            cur = b.add(LayerNode(f"{q}_cat", "concat", (keep, work), ic=out_c, oc=out_c))
            cur = b.add(LayerNode(f"{q}_shuf", "shuffle", (cur,), ic=out_c, oc=out_c))
        in_c = out_c

    # Decoder: three deformable upsampling blocks back to stride 4.
    for di, out_c in enumerate(dec_c, start=1):
        p = f"up{di}"
        cur = b.conv(f"{p}_pw", "conv1x1", cur, in_c, out_c, relu=True)
        cur = b.conv(f"{p}_dfm", "dw3x3_deform", cur, out_c, out_c, relu=True)
        cur = b.add(LayerNode(f"{p}_up", "upsample2x_nearest", (cur,), ic=out_c, oc=out_c))
        in_c = out_c

    for name, oc in zip(HEADS, (classes, 2, 2)):
        b.conv(name, "conv1x1", cur, in_c, oc)

    g = NetworkGraph(b.nodes, config=config, resolution=resolution)
    g.lint()
    return g


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    params: int
    macs: int
    out_shape: tuple[int, int, int]


@dataclass(frozen=True)
class CostReport:
    precision: str
    total_params: int
    total_bytes: float
    total_macs: int
    scale_entries: int
    layers: list[LayerCost]


def count_cost(g: NetworkGraph, precision: str = "w4a8") -> CostReport:
    """Exact parameter and MAC counts at the configured input resolution.

    fp32 bytes are params * 4; w4a8 bytes are params / 2 plus one 32-bit
    scale per quantized output channel. Requant biases are bookkeeping, not
    model payload, and are excluded from the size.
    """
    if precision not in ("fp32", "w4a8"):
        raise ValueError("precision must be fp32 or w4a8")
    shapes = _out_shapes(g)
    layers: list[LayerCost] = []
    scale_entries = 0
    for n in g.nodes:
        out = shapes[n.output_names[0]]
        params = macs = 0
        if n.is_conv:
            # weights per output pixel, the offset convolution included
            params = math.prod(n.weight_shape)
            if n.deformable:
                params += math.prod(n.offset_weight_shape)
                scale_entries += n.offset_weight_shape[-1]
            macs = out[0] * out[1] * params
            scale_entries += n.oc
        layers.append(LayerCost(n.name, n.kind, params, macs, out))
    total_params = sum(l.params for l in layers)
    total_macs = sum(l.macs for l in layers)
    if precision == "fp32":
        total_bytes = total_params * 4.0
    else:
        total_bytes = total_params * 0.5 + scale_entries * 4.0
    return CostReport(precision, total_params, total_bytes, total_macs, scale_entries, layers)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def sigmoid_lut(delta: float) -> np.ndarray:
    """256-entry sigmoid table over the signed 8-bit code domain."""
    codes = np.arange(-128, 128, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-codes * delta))


def _check_image(g: NetworkGraph, shape: Shape4) -> None:
    if (shape.h, shape.w, shape.c) != (g.resolution, g.resolution, 3):
        r = g.resolution
        raise GraphError(f"image dims {shape.dims} do not match config resolution {r}: "
                         f"it needs {r}x{r}x3")


def _run_nodes(g: NetworkGraph, image, run: Callable) -> dict:
    """Run ``run(node, inputs)`` over the nodes in order, starting from the
    ``input`` value, and return the values nothing reads (the heads).

    Each value is dropped once its last consumer has read it, so a pass holds
    only the values still to be read rather than every node output.
    """
    last_read = {i: k for k, n in enumerate(g.nodes) for i in n.inputs}
    values = {"input": image}
    for k, n in enumerate(g.nodes):
        try:
            xs = [values[i] for i in n.inputs]
        except KeyError as e:
            raise GraphError(f"node '{n.name}': missing input {e}") from None
        for i in set(n.inputs):
            if last_read[i] == k:
                del values[i]
        try:
            out = run(n, xs)
        except ValueError as e:
            raise GraphError(f"node '{n.name}': {e}") from e
        values.update(zip(n.output_names, out if isinstance(out, tuple) else (out,)))
    return values


def run_inference(g: NetworkGraph, image: QuantTensor) -> tuple[FloatTensor, FloatTensor, FloatTensor]:
    """Integer-only forward pass from quantized image codes to head tensors.

    Returns (heatmap, sizes, offsets): the heatmap is passed through a
    256-entry sigmoid lookup on its 8-bit codes, the other heads are
    dequantized to reals. Execution is bit-deterministic.
    """
    if g.precision != "w4a8":
        raise GraphError(f"graph is {g.precision}, not w4a8; quantize it first")
    _check_image(g, image.shape)

    def run(n: LayerNode, xs: list[QuantTensor]):
        if n.is_conv:
            return KINDS[n.kind].run_q(n, xs)
        out = getattr(ops, n.kind)(*(x.data for x in xs))  # looked up at call time
        wrap = lambda o: QuantTensor(Shape4(*o.shape), o)
        return tuple(map(wrap, out)) if isinstance(out, tuple) else wrap(out)

    values = _run_nodes(g, image, run)
    yq, sq, oq = (values[h] for h in HEADS)
    dy, ds, do = (g.node(h).rp.out_delta for h in HEADS)
    y = sigmoid_lut(dy)[yq.data.astype(np.int32) + 128]
    s = sq.data.astype(np.float64) * ds
    o = oq.data.astype(np.float64) * do
    return FloatTensor(yq.shape, y), FloatTensor(sq.shape, s), FloatTensor(oq.shape, o)


def _abs_max(arr: np.ndarray) -> float:
    """max |arr| from its max and min, so no |arr| copy is made: NaN when arr
    holds one, inf when it holds ±inf and 0 when it is empty."""
    return float(np.maximum(arr.max(), -arr.min())) if arr.size else 0.0


def run_inference_float(g: NetworkGraph, image: FloatTensor,
                        stats: dict[str, float] | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float reference executor; mirrors the integer path op for op.

    Values are float64, except that 3x3 and deformable nodes pass their input
    and output through ``FloatTensor`` and so round both to float32; 1x1
    nodes and pass-through ops stay in float64. The pins record this.
    Deformable offsets are rounded and clipped exactly as in deployment, so
    the two paths differ only by quantization error. When ``stats`` is given
    it accumulates the max absolute value seen at every conv output (used for
    activation calibration), taken as ``_abs_max`` without an |x| copy of
    the output.

    The nodes run one after another on the calling thread, a pool thread too;
    each conv hands a row band to every idle thread of the band pool
    (``ops._in_bands``), and every output element is computed the same way
    however the rows are banded: 1x1 sums as ``_float_conv1x1`` says, 3x3
    sums tap by tap in ``ops._tap_sums``, from the float32 input widened in
    each product.
    """

    def record(name: str, arr: np.ndarray) -> np.ndarray:
        if stats is not None:
            stats[name] = max(stats.get(name, 0.0), _abs_max(arr))
        return arr

    def run(n: LayerNode, xs: list[np.ndarray]):
        if not n.is_conv:
            return getattr(ops, n.kind)(*xs)
        out = KINDS[n.kind].run_f(n, xs, record)  # a new array, so add in place
        out += n.b_fp
        if n.relu:
            np.maximum(out, 0.0, out=out)
        return record(n.name, out)

    values = _run_nodes(g, image.data.astype(np.float64), run)
    y, s, o = (values[h] for h in HEADS)
    return 1.0 / (1.0 + np.exp(-y)), s, o


# ---------------------------------------------------------------------------
# Post-training quantization
# ---------------------------------------------------------------------------

def _scale_groups(g: NetworkGraph) -> dict[str, str]:
    """Map every value to the representative of its activation-scale group.

    A pass-through node moves codes without rescaling them, so one union-find
    over values joins its inputs and outputs (values that meet at a concat
    share one scale, as in Jacob et al. 2018, arXiv 1712.05877). The input's
    scale and a conv output's are calibrated apart, so the first pass-through
    node that joins them in one group raises GraphError."""
    parent = {"input": "input"}

    def find(v: str) -> str:
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    scaled: set[str] = set()  # groups that hold a conv output
    for n in g.nodes:
        if n.is_conv:
            scaled.add(find(n.name))
            continue
        root = find(n.inputs[0])
        for v in (*n.inputs[1:], *n.output_names):
            r = find(v)
            if r in scaled:
                scaled.add(root)
            parent[r] = root
        if root in scaled and root == find("input"):
            raise GraphError(f"node '{n.name}': {n.kind} inputs carry different scales")
    return {v: find(v) for v in list(parent)}


def quantize_graph(
    g: NetworkGraph,
    calib_images: list[FloatTensor],
    percentile: float | None = None,
    offset_path: str = "requant",
) -> NetworkGraph:
    """Post-training quantization: 4-bit per-channel weights, 8-bit per-layer
    activations, fixed-point requantization parameters per conv.

    The float passes run as image slabs through ``ops._in_bands`` (image 0 on
    the calling thread) and band their conv rows on idle pool threads; each
    pass does the arithmetic of an unbanded pass and the maxima are folded in
    image order, so banding does not change the result. Every fp32 parameter
    and image value must be finite. A value's delta is the input's, or its
    scale group's largest conv maximum over 127."""
    if g.precision != "fp32":
        raise GraphError(f"graph is {g.precision}, not fp32")
    if not calib_images:
        raise GraphError("calibration needs at least one image")
    if offset_path not in ops.OFFSET_PATHS:
        raise GraphError(f"unknown offset path {offset_path!r}; expected one of {ops.OFFSET_PATHS}")
    for k, img in enumerate(calib_images):
        _check_image(g, img.shape)
        if not np.isfinite(img.data).all():
            raise GraphError(f"calibration image {k} holds a value that is not finite")
    for n in g.nodes:
        try:
            n.check_finite()
        except ValueError as e:
            raise GraphError(f"node '{n.name}': {e}") from e
    groups = _scale_groups(g)

    per_image: list[dict[str, float]] = [{} for _ in calib_images]

    def calib_passes(a: int, b: int) -> None:
        for k in range(a, b):
            run_inference_float(g, calib_images[k], stats=per_image[k])

    ops._in_bands(len(calib_images), calib_passes)
    stats = {name: max(0.0, *(own[name] for own in per_image)) for name in per_image[0]}

    group_t: dict[str, float] = {}
    for n in g.nodes:
        if n.is_conv:
            r = groups[n.name]
            group_t[r] = max(group_t.get(r, 0.0), stats[n.name] or 1.0)
    input_delta = float(calibrate(calib_images, bits=8, percentile=percentile).delta[0])
    delta = {v: input_delta if r == groups["input"] else group_t[r] / 127.0 for v, r in groups.items()}

    def quantize_weights(w: np.ndarray) -> QuantTensor:
        w_qp = calibrate([w], bits=4, granularity=PER_CHANNEL, percentile=percentile)
        return quantize(FloatTensor(Shape4(*w.shape), w), w_qp)

    nodes = [replace(n) for n in g.nodes]
    for n in nodes:
        if not n.is_conv:
            continue
        n.w_q = quantize_weights(n.w_fp)
        n.rp = derive_requant(delta[n.inputs[0]], n.w_q.qparams.delta, delta[n.name], n.b_fp, relu=n.relu)
        if n.deformable:
            n.off_w_q = quantize_weights(n.off_w_fp)
            off_t = stats[n.name + "/off"] or float(n.offset_hi)
            n.off_rp = derive_requant(delta[n.inputs[0]], n.off_w_q.qparams.delta, off_t / 127.0, n.off_b_fp)
            n.offset_path = offset_path
    return replace(g, nodes=nodes, precision="w4a8", input_delta=input_delta)
