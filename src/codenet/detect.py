"""Anchor-free decoding of head tensors into boxes, plus AP50 metrics.

Peaks are heatmap positions not exceeded by any of their eight neighbors;
no NMS is applied anywhere. Boxes come from the size/offset heads shared
across classes and are scaled into input pixels by the output stride R.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Detection:
    class_id: int
    confidence: float
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError("box corners must be ordered")

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def to_line(self) -> str:
        return (f"{self.class_id} {self.x1:.6f} {self.y1:.6f} "
                f"{self.x2:.6f} {self.y2:.6f} {self.confidence:.6f}")


@dataclass(frozen=True)
class GroundTruth:
    class_id: int
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def find_peaks(heatmap: np.ndarray, top_k: int = 100) -> list[tuple[int, int, int, float]]:
    """Local maxima of a (H, W, C) heatmap, highest score first.

    A position is a peak when its score is positive and >= all eight
    neighbors (missing neighbors count as -inf); the >= rule keeps
    equal-valued plateau cells under the coarse 8-bit value grid. Ties are
    broken by (class, y, x) so the result is reproducible. Returns
    (class, x, y, score) tuples, at most ``top_k``. A float heatmap is
    compared in its own dtype, which is exact; any other is read as float64.
    """
    hm = np.asarray(heatmap)
    if hm.dtype.kind != "f":
        hm = hm.astype(np.float64)
    if hm.ndim != 3:
        raise ValueError("heatmap must have shape (h, w, c)")
    if top_k < 0:
        raise ValueError(f"top_k must be non-negative, got {top_k}")
    h, w, c = hm.shape
    is_peak = hm > 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            # cells whose neighbor at (dy, dx) lies inside the map; a missing one never wins
            cell = (slice(max(-dy, 0), h - max(dy, 0)), slice(max(-dx, 0), w - max(dx, 0)))
            near = (slice(max(dy, 0), h - max(-dy, 0)), slice(max(dx, 0), w - max(-dx, 0)))
            is_peak[cell] &= hm[cell] >= hm[near]
    flat = np.flatnonzero(is_peak)
    scores = hm.reshape(-1)[flat]
    if 0 < top_k < len(scores):
        # every peak of the first top_k scores at least the top_k-th largest score
        keep = scores >= np.partition(scores, len(scores) - top_k)[len(scores) - top_k]
        flat, scores = flat[keep], scores[keep]
    ys, xs, cs = np.unravel_index(flat, hm.shape)
    order = np.lexsort((xs, ys, cs, -scores))[:top_k]
    return [(int(cs[i]), int(xs[i]), int(ys[i]), float(scores[i])) for i in order]


def decode(
    peaks: list[tuple[int, int, int, float]],
    offsets: np.ndarray,
    sizes: np.ndarray,
    stride: int = 4,
) -> list[Detection]:
    """Form boxes around peaks from the shared size/offset predictions.

    ``offsets`` and ``sizes`` are (H, W, 2) arrays holding (dx, dy) and
    (w, h) in feature units; boxes are centered at peak + offset, extended by
    half the size on each side, then scaled by the output stride.
    """
    out = []
    for class_id, px, py, score in peaks:
        dx, dy = float(offsets[py, px, 0]), float(offsets[py, px, 1])
        bw, bh = float(sizes[py, px, 0]), float(sizes[py, px, 1])
        cx, cy = px + dx, py + dy
        out.append(Detection(
            class_id, score,
            stride * (cx - bw / 2), stride * (cy - bh / 2),
            stride * (cx + bw / 2), stride * (cy + bh / 2),
        ))
    return out


def iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """Intersection area over union area; 0 when the union is empty."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _ap_from_curve(recall: np.ndarray, precision: np.ndarray, interpolation: str) -> float:
    if interpolation == "eleven_point":
        total = 0.0
        for r in np.linspace(0.0, 1.0, 11):
            mask = recall >= r
            total += precision[mask].max() if mask.any() else 0.0
        return total / 11.0
    # all-point: integrate the precision envelope over recall
    r = np.concatenate([[0.0], recall, [recall[-1] if recall.size else 0.0]])
    p = np.concatenate([[0.0], precision, [0.0]])
    for i in range(p.size - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    steps = np.nonzero(r[1:] != r[:-1])[0]
    return float(np.sum((r[steps + 1] - r[steps]) * p[steps + 1]))


def ap50(
    detections: list[Detection],
    ground_truths: list[GroundTruth],
    interpolation: str = "all_point",
) -> float:
    """Average precision at IoU 0.5, macro-averaged by class.

    Detections are matched greedily in confidence order; each ground truth
    can absorb one detection and a match needs IoU >= 0.5. Classes with
    no ground truth are skipped. ``interpolation`` is "all_point" or
    "eleven_point"; any other name, or an empty ground-truth set, is an error.
    """
    if interpolation not in ("all_point", "eleven_point"):
        raise ValueError(f"unknown interpolation {interpolation!r}; expected 'all_point' or 'eleven_point'")
    if not ground_truths:
        raise ValueError("AP is undefined without ground truths")
    classes = sorted({g.class_id for g in ground_truths})
    aps = []
    for cls in classes:
        gts = [g for g in ground_truths if g.class_id == cls]
        matched = [False] * len(gts)
        dets = [d for d in detections if d.class_id == cls]
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
        tps = np.zeros(len(order))
        fps = np.zeros(len(order))
        for rank, i in enumerate(order):
            best, best_iou = None, 0.5
            for j, g in enumerate(gts):
                if matched[j]:
                    continue
                v = iou(dets[i].box, g.box)
                if v >= best_iou:
                    best, best_iou = j, v
            if best is not None:
                matched[best] = True
                tps[rank] = 1
            else:
                fps[rank] = 1
        if len(order) == 0:
            aps.append(0.0)
            continue
        tp_cum = np.cumsum(tps)
        fp_cum = np.cumsum(fps)
        recall = tp_cum / len(gts)
        precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
        aps.append(_ap_from_curve(recall, precision, interpolation))
    return float(np.mean(aps))
