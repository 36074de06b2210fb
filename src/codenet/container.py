"""Binary model container and the raw image file format.

Container layout: magic ``CDNT``, little-endian u16 version, then a chunk
stream. Every chunk is ``u8 type, u16 name length, name bytes, u32 payload
length, payload``. Chunk types:

  1  graph descriptor (line-oriented utf-8 text)
  2  tensor: u8 dtype, u8 rank, u32 dims[rank], payload
  3  quantization parameters, keyed by layer name

Tensor dtype codes: 0 = fp32, 1 = i8, 2 = i4 packed two codes per byte with
the even index in the low nibble, 3 = i32. All payloads are little endian and
containers round-trip byte exactly.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, LayerNode, NetworkGraph
from .quant import PER_CHANNEL, PER_LAYER, QuantParams, RequantParams
from .tensor import FloatTensor, QuantTensor, Shape4

MAGIC = b"CDNT"
VERSION = 1
CHUNK_DESCRIPTOR = 1
CHUNK_TENSOR = 2
CHUNK_QPARAMS = 3

DTYPE_F32 = 0
DTYPE_I8 = 1
DTYPE_I4 = 2
DTYPE_I32 = 3

IMAGE_MAGIC = b"NHW8"


@dataclass(frozen=True)
class Chunk:
    kind: int
    name: str
    payload: bytes


class ContainerError(ValueError):
    pass


def write_container(path: str, chunks: list[Chunk]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        for ch in chunks:
            name = ch.name.encode("utf-8")
            f.write(struct.pack("<BH", ch.kind, len(name)))
            f.write(name)
            f.write(struct.pack("<I", len(ch.payload)))
            f.write(ch.payload)


def read_container(path: str) -> list[Chunk]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise ContainerError("bad magic; not a model container")
    chunks = []
    try:
        (version,) = struct.unpack_from("<H", blob, 4)
        if version != VERSION:
            raise ContainerError(f"unsupported container version {version}")
        pos = 6
        while pos < len(blob):
            kind, name_len = struct.unpack_from("<BH", blob, pos)
            pos += 3
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (payload_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            payload = blob[pos:pos + payload_len]
            if len(payload) != payload_len:
                raise ContainerError(f"truncated payload in chunk '{name}'")
            pos += payload_len
            chunks.append(Chunk(kind, name, payload))
    except struct.error as e:
        raise ContainerError(f"truncated header: {e}") from e
    except UnicodeDecodeError as e:
        raise ContainerError(f"chunk name is not utf-8: {e}") from e
    return chunks


# ---------------------------------------------------------------------------
# Tensor payloads
# ---------------------------------------------------------------------------

def pack_i4(codes: np.ndarray) -> bytes:
    """Two 4-bit codes per byte, even index in the low nibble."""
    flat = codes.reshape(-1).astype(np.int64)
    if flat.size and (flat.min() < -7 or flat.max() > 7):
        raise ContainerError("i4 codes must lie in [-7, 7]")
    nib = (flat & 0xF).astype(np.uint8)
    if nib.size % 2:
        nib = np.concatenate([nib, np.zeros(1, dtype=np.uint8)])
    return (nib[0::2] | (nib[1::2] << 4)).tobytes()


def unpack_i4(payload: bytes, count: int) -> np.ndarray:
    raw = np.frombuffer(payload, dtype=np.uint8)
    high = np.stack([raw << 4, raw & 0xF0], axis=-1).reshape(-1)[:count]  # each code in a high nibble
    return high.view(np.int8) >> 4  # the arithmetic shift extends the sign


_DTYPES = {DTYPE_F32: np.float32, DTYPE_I8: np.int8, DTYPE_I32: np.int32}


def tensor_chunk(name: str, arr: np.ndarray, dtype_code: int) -> Chunk:
    dims = arr.shape
    head = struct.pack("<BB", dtype_code, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    if dtype_code == DTYPE_I4:
        body = pack_i4(arr)
    else:
        body = np.ascontiguousarray(arr, dtype=_DTYPES[dtype_code]).tobytes()
    return Chunk(CHUNK_TENSOR, name, head + body)


def parse_tensor(chunk: Chunk) -> np.ndarray:
    try:
        dtype_code, rank = struct.unpack_from("<BB", chunk.payload, 0)
        dims = struct.unpack_from(f"<{rank}I", chunk.payload, 2)
    except struct.error as e:
        raise ContainerError(f"tensor '{chunk.name}': truncated header") from e
    body = chunk.payload[2 + 4 * rank:]
    count = math.prod(dims)
    if dtype_code == DTYPE_I4:
        nbytes = (count + 1) // 2
    elif dtype_code in _DTYPES:
        nbytes = count * np.dtype(_DTYPES[dtype_code]).itemsize
    else:
        raise ContainerError(f"tensor '{chunk.name}': unknown dtype code {dtype_code}")
    if len(body) != nbytes:
        raise ContainerError(f"tensor '{chunk.name}': payload does not match dims {dims}")
    if dtype_code == DTYPE_I4:
        return unpack_i4(body, count).reshape(dims)
    return np.frombuffer(body, dtype=_DTYPES[dtype_code]).copy().reshape(dims)


# ---------------------------------------------------------------------------
# Quantization parameter payloads
# ---------------------------------------------------------------------------

def qparams_chunk(name: str, wq: QuantParams | None, rp: RequantParams) -> Chunk:
    parts = []
    if wq is None:
        parts.append(struct.pack("<BBI", 0, 0, 0))
    else:
        gran = 1 if wq.granularity == PER_CHANNEL else 0
        parts.append(struct.pack("<BBI", wq.bits, gran, wq.num_groups))
        parts.append(wq.t.astype("<f8").tobytes())
    parts.append(struct.pack("<BI", 1, rp.num_channels))
    parts.append(rp.multiplier.astype("<u4").tobytes())
    parts.append(rp.shift.astype("<u1").tobytes())
    parts.append(rp.bias.astype("<i4").tobytes())
    parts.append(struct.pack("<dB", rp.out_delta, int(rp.relu)))
    return Chunk(CHUNK_QPARAMS, name, b"".join(parts))


def parse_qparams(chunk: Chunk) -> tuple[QuantParams | None, RequantParams]:
    p = chunk.payload
    try:
        bits, gran, ngroups = struct.unpack_from("<BBI", p, 0)
        pos = 6
        wq = None
        if bits:
            t = np.frombuffer(p, dtype="<f8", count=ngroups, offset=pos)
            pos += 8 * ngroups
            wq = QuantParams(bits, PER_CHANNEL if gran else PER_LAYER, t.copy())
        has_rp, n = struct.unpack_from("<BI", p, pos)
        pos += 5
        if has_rp != 1:
            raise ValueError(f"requant flag is {has_rp}, not 1")
        mult = np.frombuffer(p, dtype="<u4", count=n, offset=pos).astype(np.int64)
        pos += 4 * n
        shift = np.frombuffer(p, dtype="<u1", count=n, offset=pos).astype(np.int64)
        pos += n
        bias = np.frombuffer(p, dtype="<i4", count=n, offset=pos).astype(np.int64)
        pos += 4 * n
        out_delta, relu = struct.unpack_from("<dB", p, pos)
        rp = RequantParams(mult, shift, bias, out_delta=out_delta, relu=bool(relu))
    except (struct.error, ValueError) as e:
        # short payloads, a requant flag other than 1, and parameters the quantizer types reject
        raise ContainerError(f"quantization parameters '{chunk.name}': {e}") from e
    return wq, rp


# ---------------------------------------------------------------------------
# Whole-graph serialization
# ---------------------------------------------------------------------------

# The deformable settings a descriptor states, and how each is parsed.
_OFFSET_KEYS = {"offset_mode": str, "offset_lo": int, "offset_hi": int, "offset_path": str}


def _descriptor_text(g: NetworkGraph) -> str:
    lines = [
        "codenet-graph 1",
        f"config {g.config}",
        f"resolution {g.resolution}",
        f"precision {g.precision}",
        f"input_delta {g.input_delta!r}",
    ]
    for n in g.nodes:
        fields = [f"kind={n.kind}", "inputs=" + ",".join(n.inputs),
                  f"ic={n.ic}", f"oc={n.oc}", f"stride={n.stride}", f"relu={int(n.relu)}"]
        if n.deformable:
            fields += [f"{k}={getattr(n, k)}" for k in _OFFSET_KEYS]
        lines.append(f"node {n.name} " + " ".join(fields))
    return "\n".join(lines) + "\n"


def save_graph(path: str, g: NetworkGraph) -> None:
    chunks = [Chunk(CHUNK_DESCRIPTOR, "graph", _descriptor_text(g).encode("utf-8"))]
    for n in g.nodes:
        if not n.is_conv:
            continue
        if g.precision == "fp32":
            keys = ("w", "b", "off_w", "off_b") if n.deformable else ("w", "b")
            chunks += [tensor_chunk(f"{n.name}/{k}", getattr(n, k + "_fp"), DTYPE_F32) for k in keys]
        else:
            chunks.append(tensor_chunk(n.name + "/w", n.w_q.data, DTYPE_I4))
            chunks.append(qparams_chunk(n.name, n.w_q.qparams, n.rp))
            if n.deformable:
                chunks.append(tensor_chunk(n.name + "/off_w", n.off_w_q.data, DTYPE_I4))
                chunks.append(qparams_chunk(n.name + "/off", n.off_w_q.qparams, n.off_rp))
    write_container(path, chunks)


def _parse_descriptor(text: str) -> NetworkGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("codenet-graph"):
        raise ContainerError("missing graph descriptor header")
    meta: dict[str, str] = {}
    nodes: list[LayerNode] = []
    try:
        for ln in lines[1:]:
            if ln.startswith("node "):
                _, name, *pairs = ln.split()
                kv = dict(p.split("=", 1) for p in pairs)
                if kv["relu"] not in ("0", "1"):
                    raise ValueError(f"node {name}: relu={kv['relu']} is not 0 or 1")
                nodes.append(LayerNode(
                    name=name,
                    kind=kv["kind"],
                    inputs=tuple(kv["inputs"].split(",")),
                    ic=int(kv["ic"]),
                    oc=int(kv["oc"]),
                    stride=int(kv["stride"]),
                    relu=kv["relu"] == "1",
                    # deformable settings a descriptor omits keep LayerNode's defaults
                    **{k: parse(kv[k]) for k, parse in _OFFSET_KEYS.items() if k in kv},
                ))
            else:
                key, value = ln.split(maxsplit=1)
                meta[key] = value
        # meta keys it does not know, such as the classes, width_mult and
        # downsample lines of older descriptors, are ignored
        return NetworkGraph(nodes, config=meta["config"], resolution=int(meta["resolution"]),
                            precision=meta["precision"], input_delta=float(meta["input_delta"]))
    except KeyError as e:
        raise ContainerError(f"graph descriptor lacks {e}") from e
    except ValueError as e:
        raise ContainerError(f"malformed graph descriptor: {e}") from e


def load_graph(path: str) -> NetworkGraph:
    chunks = read_container(path)
    by_name: dict[tuple[int, str], Chunk] = {(c.kind, c.name): c for c in chunks}

    def chunk(kind: int, name: str) -> Chunk:
        try:
            return by_name[(kind, name)]
        except KeyError:
            raise ContainerError(f"container has no chunk '{name}'") from None

    def qparams(name: str, channels: int) -> tuple[QuantParams | None, RequantParams]:
        wq, rp = parse_qparams(chunk(CHUNK_QPARAMS, name))
        if rp.num_channels != channels:
            raise ValueError(f"requant parameters '{name}' cover {rp.num_channels} channels, not {channels}")
        return wq, rp

    try:
        g = _parse_descriptor(chunk(CHUNK_DESCRIPTOR, "graph").payload.decode("utf-8"))
        g.lint()
    except UnicodeDecodeError as e:
        raise ContainerError(f"graph descriptor is not utf-8: {e}") from e
    except GraphError as e:
        raise ContainerError(str(e)) from e

    for n in g.nodes:
        if not n.is_conv:
            continue
        try:
            w = parse_tensor(chunk(CHUNK_TENSOR, n.name + "/w")).reshape(n.weight_shape)
            if g.precision == "fp32":
                n.w_fp = w.astype(np.float32)
                n.b_fp = parse_tensor(chunk(CHUNK_TENSOR, n.name + "/b")).reshape(n.oc).astype(np.float32)
                if n.deformable:
                    n.off_w_fp = parse_tensor(chunk(CHUNK_TENSOR, n.name + "/off_w")).reshape(
                        n.offset_weight_shape).astype(np.float32)
                    n.off_b_fp = parse_tensor(chunk(CHUNK_TENSOR, n.name + "/off_b")).reshape(
                        n.offset_weight_shape[-1]).astype(np.float32)
                n.check_finite()
            else:
                wq, n.rp = qparams(n.name, n.oc)
                n.w_q = QuantTensor(Shape4(*w.shape), w, bits=4, qparams=wq)
                if n.deformable:
                    off_w = parse_tensor(chunk(CHUNK_TENSOR, n.name + "/off_w")).reshape(n.offset_weight_shape)
                    off_qp, n.off_rp = qparams(n.name + "/off", n.offset_weight_shape[-1])
                    n.off_w_q = QuantTensor(Shape4(*off_w.shape), off_w, bits=4, qparams=off_qp)
        except ValueError as e:
            # weights, biases or requant vectors that do not fit the node's
            # shape, and codes out of range
            raise ContainerError(f"node '{n.name}': {e}") from e
    return g


# ---------------------------------------------------------------------------
# Raw image files: 16-byte header (magic + dims) then uint8 NHWC pixels.
# ---------------------------------------------------------------------------

def write_image(path: str, pixels: np.ndarray) -> None:
    if pixels.ndim != 3:
        raise ContainerError("image must have shape (h, w, c)")
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, c = arr.shape
    with open(path, "wb") as f:
        f.write(IMAGE_MAGIC)
        f.write(struct.pack("<III", h, w, c))
        f.write(arr.tobytes())


def read_image(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != IMAGE_MAGIC:
        raise ContainerError("bad magic; not a raw image file")
    if len(blob) < 16:
        raise ContainerError("truncated image header")
    h, w, c = struct.unpack_from("<III", blob, 4)
    data = np.frombuffer(blob, dtype=np.uint8, offset=16)
    if data.size != h * w * c:
        raise ContainerError("image payload does not match header dims")
    return data.reshape(h, w, c).copy()


def image_to_float(pixels: np.ndarray) -> FloatTensor:
    """Map uint8 pixels into [0, 1] reals with a leading batch axis."""
    h, w, c = pixels.shape
    return FloatTensor(Shape4(1, h, w, c), pixels.astype(np.float32) / 255.0)
