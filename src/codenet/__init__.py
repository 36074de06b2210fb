"""Integer-only deformable-convolution detection pipeline and a deterministic
memory-hierarchy simulator for its accelerator designs."""

from .tensor import AccumTensor, FloatTensor, QuantTensor, Shape4
from .quant import (QuantParams, RequantParams, calibrate, dequantize, derive_requant,
                    quantize, requantize)
from .ops import (ConvSpec, OffsetField, bilinear_sample, conv1x1_q, conv_ref,
                  deform_conv_q, deform_conv_ref, offset_gen, square_expand, tap_positions)
from .detect import Detection, GroundTruth, ap50, decode, find_peaks, iou
from .graph import (CostReport, LayerNode, NetworkGraph, build_codenet, count_cost,
                    quantize_graph, run_inference, run_inference_float)
from .memsim import (EngineConfig, MemConfig, SimReport, Trace, ablation_table, gen_trace,
                     roofline, simulate)

__version__ = "0.1.0"
