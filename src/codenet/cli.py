"""Command-line surface: quantize, infer, bench, cost, golden.

Exit codes: 0 success, 1 usage, parameter, path or OS error or an
allocation too large to make, 2 verification failure.
All commands are byte-reproducible for fixed seeds and inputs.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import golden as golden_mod
from . import graph as graph_mod
from . import memsim
from .container import image_to_float, load_graph, read_image, save_graph
from .detect import decode, find_peaks
from .ops import OFFSET_PATHS
from .quant import QuantParams, quantize


def _cmd_quantize(args: argparse.Namespace) -> int:
    g = load_graph(args.model)
    files = sorted(f for f in os.listdir(args.calib) if f.endswith(".img"))
    if not files:
        print(f"error: no calibration images (*.img) in {args.calib}", file=sys.stderr)
        return 1
    images = [image_to_float(read_image(os.path.join(args.calib, f))) for f in files]
    gq = graph_mod.quantize_graph(g, images, percentile=args.percentile,
                                  offset_path=args.offset_path)
    save_graph(args.out, gq)
    size = os.path.getsize(args.out)
    print(f"wrote {args.out} ({size} bytes, precision w4a8)")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    g = load_graph(args.model)
    if args.config and args.config != g.config:
        print(f"error: model is config {g.config}, not {args.config}", file=sys.stderr)
        return 1
    img_f = image_to_float(read_image(args.image))
    qp = QuantParams(8, "per_layer", np.array([g.input_delta * 127.0]))
    image_q = quantize(img_f, qp)
    heat, sizes, offs = graph_mod.run_inference(g, image_q)
    if args.heads_out:
        from .container import Chunk, CHUNK_DESCRIPTOR, DTYPE_F32, tensor_chunk, write_container
        chunks = [Chunk(CHUNK_DESCRIPTOR, "heads", b"codenet-heads 1\n"),
                  tensor_chunk("heatmap", heat.data, DTYPE_F32),
                  tensor_chunk("sizes", sizes.data, DTYPE_F32),
                  tensor_chunk("offsets", offs.data, DTYPE_F32)]
        write_container(args.heads_out, chunks)
    if args.decode:
        peaks = find_peaks(heat.data[0], top_k=args.top_k)
        dets = decode(peaks, offs.data[0], sizes.data[0], stride=g.stride_out)
        for det in dets:
            if det.confidence >= args.score_thresh:
                print(det.to_line())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    dims = tuple(int(v) for v in args.dims.split(","))
    if len(dims) != 4:
        print("error: --dims must be h,w,ic,oc", file=sys.stderr)
        return 1
    if args.rows is not None and not args.design:
        print("error: --rows needs --design", file=sys.stderr)
        return 1
    # the header is printed only once every row is priced, so an error
    # leaves stdout empty
    if args.table2:
        rows = memsim.ablation_table(dims, args.seed)
        print(memsim.CSV_HEADER)
        for row in rows:
            print(memsim.row_to_csv(row))
        speed = memsim.table_speedups(rows)
        print(f"# speedup_dw={speed['dw']:.3f} speedup_full={speed['full']:.3f}")
        return 0
    if not args.op:
        print("error: pass --op or --table2", file=sys.stderr)
        return 1
    trace, mems = memsim.ablation_case(args.op, dims, args.seed)
    mem = mems[args.llc]
    if args.design:
        buf_rows = memsim.MemConfig.line_buffer_rows if args.rows is None else args.rows
        mem = dataclasses.replace(mem, design=args.design, line_buffer_rows=buf_rows,
                                  llc_routed=bool(args.llc))
    report = memsim.simulate(trace, mem)
    print(memsim.CSV_HEADER)
    print(memsim.row_to_csv(memsim.AblationRow(args.op, mem.design, bool(args.llc), report)))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    g = graph_mod.build_codenet(args.config, classes=args.classes)
    report = graph_mod.count_cost(g, precision=args.precision)
    mb = report.total_bytes / 1e6
    print(f"config {args.config} precision {args.precision}")
    print(f"params {report.total_params}")
    print(f"bytes {report.total_bytes:.1f} ({mb:.3f} MB)")
    print(f"macs {report.total_macs} ({report.total_macs / 1e9:.4f} G)")
    if args.per_layer:
        print(f"{'layer':24} {'kind':18} {'params':>10} {'macs':>14} out")
        for l in report.layers:
            print(f"{l.name:24} {l.kind:18} {l.params:>10} {l.macs:>14} {l.out_shape}")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    if args.action == "generate":
        paths = golden_mod.generate(args.dir, seed=args.seed)
        print(f"wrote {len(paths)} golden vectors to {args.dir}")
        return 0
    failures = golden_mod.verify(args.dir)
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 2
    print(f"verified {len(golden_mod.OPS)} golden vectors: all exact")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="codenet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="fp32 container -> w4a8 container")
    q.add_argument("model")
    q.add_argument("out")
    q.add_argument("--calib", required=True, help="directory of calibration .img files")
    q.add_argument("--percentile", type=float, default=None,
                   help="clip the input and weight thresholds at this percentile of |x|; "
                        "activation scales always come from the calibration maxima")
    q.add_argument("--offset-path", choices=OFFSET_PATHS, default="requant")
    q.set_defaults(func=_cmd_quantize)

    i = sub.add_parser("infer", help="run integer inference on a raw image")
    i.add_argument("model")
    i.add_argument("image")
    i.add_argument("--config", default=None)
    i.add_argument("--decode", action=argparse.BooleanOptionalAction, default=True)
    i.add_argument("--score-thresh", type=float, default=0.0)
    i.add_argument("--top-k", type=int, default=100)
    i.add_argument("--heads-out", default=None)
    i.set_defaults(func=_cmd_infer)

    b = sub.add_parser("bench", help="memory-hierarchy simulation, CSV output")
    b.add_argument("--op", default=None, help="e.g. dw_square, full_deform")
    b.add_argument("--dims", default="64,64,256,256")
    b.add_argument("--design", default=None,
                   choices=(memsim.BASELINE_DRAM, memsim.LLC, memsim.LINE_BUFFER,
                            memsim.LINE_BUFFER_MULTIPORT))
    b.add_argument("--llc", type=int, choices=(0, 1), default=0)
    b.add_argument("--rows", type=int,
                   help=f"line-buffer rows of --design (default {memsim.MemConfig.line_buffer_rows})")
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--table2", action="store_true", help="emit the full ablation grid")
    b.set_defaults(func=_cmd_bench)

    c = sub.add_parser("cost", help="parameter/MAC accounting for one config")
    c.add_argument("--config", required=True, choices=sorted(graph_mod.CONFIGS))
    c.add_argument("--precision", choices=("fp32", "w4a8"), default="w4a8")
    c.add_argument("--classes", type=int, default=20)
    c.add_argument("--per-layer", action="store_true")
    c.set_defaults(func=_cmd_cost)

    gld = sub.add_parser("golden", help="generate or verify golden vectors")
    gld.add_argument("action", choices=("generate", "verify"))
    gld.add_argument("dir")
    gld.add_argument("--seed", type=int, default=1)
    gld.set_defaults(func=_cmd_golden)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
