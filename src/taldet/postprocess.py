"""Decoding head outputs into scored segments and Soft-NMS suppression."""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .heads import HeadOutput
from .subjects import VideoMeta


@dataclass(frozen=True)
class ActionSegment:
    class_id: int
    score: float
    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError("segment start must precede end")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def decode(outs: HeadOutput, meta: VideoMeta, score_threshold: float = 0.001,
           pre_nms_topk: int = 2000) -> list[ActionSegment]:
    """Every (anchor, class) whose sigmoid score clears the threshold becomes
    a candidate segment [(t - d_s) * u, (t + d_e) * u], with t the anchor's
    step and u its level's seconds per step, clamped to the video extent;
    the top `pre_nms_topk` by score survive (ties: earlier start, then lower
    class, then anchor order)."""
    unit = outs.stride * meta.seconds_per_snippet
    scores = _sigmoid(outs.class_logits.data)
    offs = outs.offsets.data
    start = np.maximum((outs.step - offs[:, 0]) * unit, 0.0)
    end = np.minimum((outs.step + offs[:, 1]) * unit, meta.duration)
    anchor, cls = np.nonzero((start < end)[:, None] & (scores > score_threshold))
    score = scores[anchor, cls]
    order = np.lexsort((cls, start[anchor], -score))[:pre_nms_topk]
    return [ActionSegment(int(cls[i]), float(score[i]), float(start[anchor[i]]),
                          float(end[anchor[i]])) for i in order]


def temporal_iou(a_start, a_end, b_start, b_end) -> float:
    inter = max(0.0, min(a_end, b_end) - max(a_start, b_start))
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / union if union > 0 else 0.0


def soft_nms(segs: list[ActionSegment], sigma: float = 0.5,
             min_score: float = 0.001) -> list[ActionSegment]:
    """Gaussian Soft-NMS, per class: repeatedly pick the highest-scoring
    remaining segment and decay the rest of its class by exp(-tIoU^2 / sigma);
    drop below min_score.

    Boundaries never change; scores never increase. Ties select the earlier
    start, then the lower class id.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    remaining = [(s.score, s) for s in segs]
    kept: list[ActionSegment] = []
    while remaining:
        best = min(range(len(remaining)),
                   key=lambda i: (-remaining[i][0], remaining[i][1].start,
                                  remaining[i][1].class_id))
        score, seg = remaining.pop(best)
        if score < min_score:
            continue
        kept.append(ActionSegment(seg.class_id, score, seg.start, seg.end))
        updated = []
        for s, other in remaining:
            if other.class_id == seg.class_id:
                ov = temporal_iou(seg.start, seg.end, other.start, other.end)
                s = s * math.exp(-(ov * ov) / sigma)
            if s >= min_score:
                updated.append((s, other))
        remaining = updated
    return kept
