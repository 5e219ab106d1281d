"""Decoding head outputs into scored segments and Soft-NMS suppression."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .heads import HeadOutput, sigmoid
from .subjects import AnnotationRecord


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


@dataclass(frozen=True)
class InferConfig:
    """Every infer setting: decode's score threshold and top-k, the
    Soft-NMS sigma, and how many detections each video keeps after it."""
    score_threshold: float = 0.001
    pre_nms_topk: int = 2000
    sigma: float = 0.5
    post_nms_keep: int = 200

    def __post_init__(self):
        for key in ("pre_nms_topk", "post_nms_keep"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def decode(outs: HeadOutput, record: AnnotationRecord,
           score_threshold: float = InferConfig.score_threshold,
           pre_nms_topk: int = InferConfig.pre_nms_topk
           ) -> list[ActionSegment]:
    """Every (anchor, class) whose sigmoid score clears the threshold becomes
    a candidate segment [(t - d_s) * u, (t + d_e) * u], with t the anchor's
    step and u its level's seconds per step, clamped to the video extent;
    the top `pre_nms_topk` by score survive (ties: earlier start, then lower
    class, then anchor order)."""
    unit = outs.stride * record.seconds_per_snippet
    scores = sigmoid(outs.class_logits.data)
    offs = outs.offsets.data
    start = np.maximum((outs.step - offs[:, 0]) * unit, 0.0)
    end = np.minimum((outs.step + offs[:, 1]) * unit, record.duration)
    anchor, cls = np.nonzero((start < end)[:, None] & (scores > score_threshold))
    score = scores[anchor, cls]
    order = np.lexsort((cls, start[anchor], -score))[:pre_nms_topk]
    return [ActionSegment(int(cls[i]), float(score[i]), float(start[anchor[i]]),
                          float(end[anchor[i]])) for i in order]


def temporal_iou(a_start, a_end, b_start, b_end):
    """tIoU of [a_start, a_end] and [b_start, b_end], elementwise over
    broadcast arrays or of two scalars; 0 where the union is not positive
    (the overlap is then 0 too)."""
    inter = np.maximum(0.0, np.minimum(a_end, b_end)
                       - np.maximum(a_start, b_start))
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / np.maximum(union, np.finfo(float).tiny)


def _class_picks(score, start, end, sigma, min_score):
    """Gaussian Soft-NMS within one class, lazily: yields each pick's input
    position and its score when picked, in pick order. Each pick is the
    highest score, then the earlier start, then the earlier input position;
    it decays every candidate still alive by exp(-tIoU^2 / sigma) in one
    vector pass, and those below min_score drop out."""
    alive = (score >= min_score).nonzero()[0]
    score, start, end = score[alive], start[alive], end[alive]
    while alive.size:
        top = score.max()
        tied = (score == top).nonzero()[0]
        i = tied[start[tied].argmin()] if tied.size > 1 else tied[0]
        yield alive[i], top
        ov = temporal_iou(start[i], end[i], start, end)
        hit = ov.nonzero()[0]
        # math.exp rather than np.exp, whose last bit can differ: exact ties
        # between decayed scores then break as in the scalar definition
        score[hit] *= np.fromiter(
            map(math.exp, (-(ov[hit] * ov[hit]) / sigma).tolist()), float,
            hit.size)
        stay = score >= min_score
        stay[i] = False
        alive, score, start, end = (alive[stay], score[stay], start[stay],
                                    end[stay])


def soft_nms(segs: list[ActionSegment], sigma: float = InferConfig.sigma,
             min_score: float = 0.001,
             keep: int | None = None) -> list[ActionSegment]:
    """Gaussian Soft-NMS, per class: repeatedly pick the highest-scoring
    remaining segment and decay the rest of its class by exp(-tIoU^2 / sigma);
    drop below min_score. Returns the first `keep` picks (default: all).

    Boundaries never change; scores never increase. Ties select the earlier
    start, then the lower class id, then the earlier input position. Each
    class runs on its own in O(N) memory. A pick's rivals only lose score,
    so each class's picks come in (-kept score, start) order, and a heap
    keyed on (-kept score, start, class) that holds each class's next pick
    merges them into the order of picking across all classes: it advances
    a class only when it emits that class's pick, and stops after `keep`.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    cls = np.array([s.class_id for s in segs])
    score = np.array([s.score for s in segs])
    start = np.array([s.start for s in segs])
    end = np.array([s.end for s in segs])
    heap = []

    def advance(c, members, picks):
        pick = next(picks, None)
        if pick is not None:
            i, kept = members[pick[0]], pick[1]
            # one entry per class, so the key never ties and the tuple
            # comparison never reaches the generator
            heapq.heappush(heap, (-kept, start[i], c, i, members, picks))

    # sorted(set(...)) rather than np.unique, whose first call imports numpy.ma
    for c in sorted(set(cls.tolist())):
        members = (cls == c).nonzero()[0]
        advance(c, members, _class_picks(score[members], start[members],
                                         end[members], sigma, min_score))
    out = []
    while heap and (keep is None or len(out) < keep):
        neg_kept, _, c, i, members, picks = heapq.heappop(heap)
        out.append(ActionSegment(c, float(-neg_kept), segs[i].start,
                                 segs[i].end))
        advance(c, members, picks)
    return out
