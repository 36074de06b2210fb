import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from codenet import ops
from codenet.container import CHUNK_QPARAMS, Chunk, read_container, write_container
from codenet.graph import LayerNode, NetworkGraph, quantize_graph
from codenet.tensor import FloatTensor, Shape4


def _he(rng, shape, fan_in):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


def make_tiny_graph(seed: int = 0, resolution: int = 16, channels: int = 8,
                    classes: int = 2, deform: bool = False,
                    offset_mode: str = ops.BOUNDED_INT) -> NetworkGraph:
    """Minimal valid network: stem, a pointwise/depthwise pair, three heads.

    With ``deform`` the depthwise layer is deformable and samples with
    ``offset_mode`` offsets.
    """
    rng = np.random.default_rng(seed)
    c = channels
    nodes = [
        LayerNode("stem", "full3x3_first", ("input",), ic=3, oc=c, stride=4, relu=True,
                  w_fp=_he(rng, (3, 3, 3, c), 27), b_fp=np.zeros(c, dtype=np.float32)),
        LayerNode("pw", "conv1x1", ("stem",), ic=c, oc=c, relu=True,
                  w_fp=_he(rng, (c, 1, 1, c), c), b_fp=np.zeros(c, dtype=np.float32)),
    ]
    if deform:
        off_ch = ops.offset_channels(offset_mode)
        nodes.append(LayerNode(
            "dw", "dw3x3_deform", ("pw",), ic=c, oc=c, relu=False,
            w_fp=_he(rng, (1, 3, 3, c), 9), b_fp=np.zeros(c, dtype=np.float32),
            off_w_fp=_he(rng, (c, 1, 1, off_ch), c), off_b_fp=np.zeros(off_ch, dtype=np.float32),
            offset_mode=offset_mode))
    else:
        nodes.append(LayerNode("dw", "dw3x3", ("pw",), ic=c, oc=c, stride=1, relu=False,
                               w_fp=_he(rng, (1, 3, 3, c), 9), b_fp=np.zeros(c, dtype=np.float32)))
    for name, oc in (("head_y", classes), ("head_s", 2), ("head_o", 2)):
        nodes.append(LayerNode(name, "conv1x1", ("dw",), ic=c, oc=oc, relu=False,
                               w_fp=_he(rng, (c, 1, 1, oc), c), b_fp=np.zeros(oc, dtype=np.float32)))
    g = NetworkGraph(nodes, config="a", resolution=resolution)
    g.lint()
    return g


def make_calib_images(resolution: int, count: int = 2, seed: int = 5) -> list[FloatTensor]:
    rng = np.random.default_rng(seed)
    return [FloatTensor(Shape4(1, resolution, resolution, 3),
                        rng.uniform(0, 1, size=(1, resolution, resolution, 3)).astype(np.float32))
            for _ in range(count)]


def set_requant_flag(path, name: str, flag: int) -> None:
    """Rewrite the has-requant byte of the qparams chunk ``name`` in the
    container at ``path``; it follows the weight header and thresholds."""
    chunks = read_container(str(path))
    for k, c in enumerate(chunks):
        if (c.kind, c.name) == (CHUNK_QPARAMS, name):
            bits, ngroups = c.payload[0], int.from_bytes(c.payload[2:6], "little")
            pos = 6 + (8 * ngroups if bits else 0)
            chunks[k] = Chunk(c.kind, c.name, c.payload[:pos] + bytes([flag]) + c.payload[pos + 1:])
    write_container(str(path), chunks)


def param_digest(gq: NetworkGraph) -> str:
    """SHA-256 over the calibrated parameters of a quantized graph: the input
    delta and every requant multiplier, shift, bias and output delta."""
    h = hashlib.sha256(repr(gq.input_delta).encode())
    for n in gq.nodes:
        for rp in (n.rp, n.off_rp):
            if rp is not None:
                h.update(rp.multiplier.tobytes() + rp.shift.tobytes() + rp.bias.tobytes())
                h.update(repr(rp.out_delta).encode())
    return h.hexdigest()


@pytest.fixture
def tiny_quantized():
    g = make_tiny_graph(seed=1)
    return quantize_graph(g, make_calib_images(16))
