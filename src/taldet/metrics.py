"""Per-class average precision and mAP over tIoU threshold grids."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .postprocess import ActionSegment, temporal_iou

THUMOS_GRID = [0.3, 0.4, 0.5, 0.6, 0.7]


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


def _greedy_match(iou: np.ndarray, thr: float) -> np.ndarray:
    """True-positive mask of the detections (rows of `iou`, in rank order)
    against the ground truths (columns): each detection in turn takes the
    unmatched ground truth of highest tIoU >= thr, the last one on ties."""
    tp = np.zeros(iou.shape[0], dtype=bool)
    ok = iou >= thr
    free = np.ones(iou.shape[1], dtype=bool)
    for r in ok.any(axis=1).nonzero()[0]:
        cand = ok[r] & free
        if cand.any():
            row = np.where(cand, iou[r], -1.0)[::-1]
            free[len(row) - 1 - row.argmax()] = False
            tp[r] = True
    return tp


def _interpolated_ap(tp: np.ndarray, num_gt: int) -> float:
    """101-point interpolated AP of a ranked true-positive vector: the mean
    over recall points r in {0, 0.01, ..., 1} of the best precision at any
    rank whose recall is >= r (0 if none is)."""
    cum_tp = np.cumsum(tp)
    precision = cum_tp / (np.arange(len(tp)) + 1)
    recall = cum_tp / num_gt
    # best precision from each rank on, and 0 past the last rank
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    # recall never decreases: the first rank at or above each recall point
    first = np.searchsorted(recall, np.linspace(0.0, 1.0, 101))
    # cumsum adds the points in sequence, as the definition does
    return float(np.cumsum(best[first])[-1]) / 101.0


def evaluate(dets_by_video: dict[str, list[ActionSegment]],
             gts_by_video: dict[str, list],
             thresholds: list[float]) -> EvalReport:
    """mAP at each threshold, averaged over classes present in ground truth.

    `gts_by_video` values are GroundTruthSegment-like objects with class_id,
    start, end. Each class's detections rank once over all videos: by score,
    then video (in sorted id order), then start, then input order. Matching
    runs within each video, on its [detections x ground truths] tIoU block,
    so a detection can only match a ground truth of its own video and class.
    """
    # a tIoU threshold must lie in (0, 1]: at 0 every pair would match,
    # across videos too, and above 1 none could
    bad = [t for t in thresholds if not 0.0 < t <= 1.0]
    if bad:
        raise ValueError(f"tIoU thresholds must lie in (0, 1], got {bad}")
    videos = sorted(set(gts_by_video) | set(dets_by_video))
    dets = [(v, d) for v, vid in enumerate(videos)
            for d in dets_by_video.get(vid, [])]
    video = np.array([v for v, _ in dets], dtype=int)
    cls = np.array([d.class_id for _, d in dets], dtype=int)
    score = np.array([d.score for _, d in dets])
    start = np.array([d.start for _, d in dets])
    end = np.array([d.end for _, d in dets])
    rank = np.lexsort((start, video, -score))
    tp = np.zeros((len(thresholds), len(dets)), dtype=bool)
    for v, vid in enumerate(videos):
        gts = gts_by_video.get(vid, [])
        mine = rank[video[rank] == v]
        if not gts or not mine.size:
            continue
        g_cls = np.array([g.class_id for g in gts])
        iou = temporal_iou(start[mine, None], end[mine, None],
                           np.array([g.start for g in gts]),
                           np.array([g.end for g in gts]))
        # thresholds are > 0, so a zeroed other-class pair never matches
        iou = np.where(cls[mine, None] == g_cls, iou, 0.0)
        for k, thr in enumerate(thresholds):
            tp[k, mine] = _greedy_match(iou, thr)
    gt_count = Counter(g.class_id for gts in gts_by_video.values()
                       for g in gts)
    classes = sorted(gt_count)
    ranked = {c: rank[cls[rank] == c] for c in classes}
    per_class_ap = {}
    per_threshold = {}
    for k, thr in enumerate(thresholds):
        aps = []
        for c in classes:
            ap = _interpolated_ap(tp[k, ranked[c]], gt_count[c])
            per_class_ap[(c, thr)] = ap
            aps.append(ap)
        per_threshold[thr] = float(np.mean(aps)) if aps else 0.0
    avg = float(np.mean(list(per_threshold.values()))) if per_threshold else 0.0
    return EvalReport(per_threshold, avg, per_class_ap)
