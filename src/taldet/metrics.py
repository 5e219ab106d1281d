"""Temporal IoU, per-class average precision, and mAP over threshold grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .postprocess import ActionSegment, temporal_iou

THUMOS_GRID = [0.3, 0.4, 0.5, 0.6, 0.7]
ANET_GRID = [round(0.5 + 0.05 * i, 2) for i in range(10)]


@dataclass
class EvalReport:
    per_threshold_map: dict[float, float]
    average_map: float
    per_class_ap: dict[tuple[int, float], float]

    def table(self) -> str:
        lines = ["tIoU    mAP"]
        for thr, v in sorted(self.per_threshold_map.items()):
            lines.append(f"{thr:<7.2f} {v:.4f}")
        lines.append(f"avg     {self.average_map:.4f}")
        return "\n".join(lines)


def average_precision(dets: list[ActionSegment],
                      gts: list[tuple[float, float]], thr: float) -> float:
    """101-point interpolated AP with greedy highest-tIoU matching.

    `dets` are one class's detections (possibly across videos if segments are
    offset per video by the caller); `gts` that class's ground-truth spans.
    """
    if not gts:
        return 0.0
    order = sorted(range(len(dets)),
                   key=lambda i: (-dets[i].score, dets[i].start))
    matched = [False] * len(gts)
    tp = np.zeros(len(dets))
    for rank, i in enumerate(order):
        d = dets[i]
        best, best_ov = -1, thr
        for j, g in enumerate(gts):
            if matched[j]:
                continue
            ov = temporal_iou(d.start, d.end, g[0], g[1])
            if ov >= best_ov:
                best, best_ov = j, ov
        if best >= 0:
            matched[best] = True
            tp[rank] = 1.0
    if len(dets) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / (np.arange(len(dets)) + 1)
    recall = cum_tp / len(gts)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


def evaluate(dets_by_video: dict[str, list[ActionSegment]],
             gts_by_video: dict[str, list],
             thresholds: list[float]) -> EvalReport:
    """mAP at each threshold, averaged over classes present in ground truth.

    `gts_by_video` values are GroundTruthSegment-like objects with class_id,
    start, end. Segments from different videos are shifted onto disjoint
    timelines before matching so cross-video pairs can never overlap.
    """
    offset = 0.0
    class_dets: dict[int, list[ActionSegment]] = {}
    class_gts: dict[int, list[tuple[float, float]]] = {}
    videos = sorted(set(gts_by_video) | set(dets_by_video))
    for vid in videos:
        span = 0.0
        for g in gts_by_video.get(vid, []):
            class_gts.setdefault(g.class_id, []).append(
                (g.start + offset, g.end + offset))
            span = max(span, g.end)
        for d in dets_by_video.get(vid, []):
            class_dets.setdefault(d.class_id, []).append(
                ActionSegment(d.class_id, d.score,
                              d.start + offset, d.end + offset))
            span = max(span, d.end)
        offset += span + 1.0
    classes = sorted(class_gts)
    per_class_ap = {}
    per_threshold = {}
    for thr in thresholds:
        aps = []
        for c in classes:
            ap = average_precision(class_dets.get(c, []), class_gts[c], thr)
            per_class_ap[(c, thr)] = ap
            aps.append(ap)
        per_threshold[thr] = float(np.mean(aps)) if aps else 0.0
    avg = float(np.mean(list(per_threshold.values()))) if per_threshold else 0.0
    return EvalReport(per_threshold, avg, per_class_ap)
