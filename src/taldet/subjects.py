"""Subject box ranking and RoI feature pooling, one numpy pass per video.

Boxes arrive in keyframe pixel coordinates; features are an H x W x D grid per
snippet. The top-K boxes by frame-area ratio each become one pooled token; the
remaining slots are zero vectors flagged invalid so downstream attention can
mask them out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VideoMeta:
    frame_width: int
    frame_height: int
    fps: float
    num_snippets: int
    feature_height: int
    feature_width: int
    feature_dim: int
    snippet_stride: int = 1  # frames between snippet centers

    def __post_init__(self):
        for f in ("frame_width", "frame_height", "fps", "num_snippets",
                  "feature_height", "feature_width", "feature_dim",
                  "snippet_stride"):
            if getattr(self, f) <= 0:
                raise ValueError(f"VideoMeta.{f} must be positive")

    @property
    def seconds_per_snippet(self) -> float:
        return self.snippet_stride / self.fps

    @property
    def duration(self) -> float:
        return self.num_snippets * self.seconds_per_snippet


@dataclass(frozen=True)
class SubjectBox:
    x1: float
    y1: float
    x2: float
    y2: float
    confidence: float = 1.0

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError("degenerate subject box")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


SAMPLES = 2  # RoIAlign samples per bin along each axis


def _mean_axis_weights(lo, hi, scale, bins, n):
    """[boxes, n] mean bilinear weight of each of the n cells over the
    bins * SAMPLES regular sample positions along one axis of each box.
    On a one-cell axis (n == 1), `left` is -1 and every weight is 1."""
    lo, hi = lo * scale, hi * scale
    c = 0.5 * (lo + hi)
    thin = hi - lo < 1e-9
    lo, hi = np.where(thin, c - 0.5, lo), np.where(thin, c + 0.5, hi)
    u = (np.arange(bins)[:, None]
         + (np.arange(SAMPLES) + 0.5) / SAMPLES).reshape(-1)
    pos = lo[:, None] + ((hi - lo) / bins)[:, None] * u
    p = np.clip(pos - 0.5, 0.0, n - 1.0)
    left = np.minimum(np.floor(p).astype(int), n - 2)
    frac = (p - left)[..., None]
    cells = np.arange(n)
    return ((cells == left[..., None]) * (1.0 - frac)
            + (cells == left[..., None] + 1) * frac).mean(axis=1)


def pool_matrices(boxes_per_snippet: list[list[SubjectBox]], meta: VideoMeta,
                  K: int, bins: tuple[int, int] = (7, 7)
                  ) -> tuple[np.ndarray, np.ndarray]:
    """[T, K, H*W] pooling matrices and [T, K] validity for a whole video.

    tokens = mats @ f.reshape(T, H*W, D). Boxes are clipped to the frame and
    dropped if empty; slot k of snippet t holds that snippet's k-th box by
    frame-area ratio, ties broken by confidence, then by input order. Its row
    is the mean of RoIAlign's bilinear samples (SAMPLES^2 per bin at regular
    interior points, cell values at cell centers, clamped at the border),
    which factors into the outer product of per-axis mean sample weights. A
    box that collapses after mapping is widened to one cell extent. Unfilled
    slots are zero rows with valid=False.
    """
    if K < 1 or bins[0] < 1 or bins[1] < 1:
        raise ValueError("K must be >= 1 and bins >= (1, 1)")
    T, H, W = meta.num_snippets, meta.feature_height, meta.feature_width
    snippet = np.repeat(np.arange(T), [len(bs) for bs in boxes_per_snippet])
    b = np.array([(x.x1, x.y1, x.x2, x.y2, x.confidence)
                  for bs in boxes_per_snippet for x in bs],
                 dtype=float).reshape(-1, 5)
    x1, y1 = np.maximum(b[:, 0], 0.0), np.maximum(b[:, 1], 0.0)
    x2 = np.minimum(b[:, 2], float(meta.frame_width))
    y2 = np.minimum(b[:, 3], float(meta.frame_height))
    ratio = (x2 - x1) * (y2 - y1) / (meta.frame_width * meta.frame_height)
    keep = np.flatnonzero((x1 < x2) & (y1 < y2))
    order = keep[np.lexsort((keep, -b[keep, 4], -ratio[keep], snippet[keep]))]
    t = snippet[order]
    slot = np.arange(len(order)) - np.searchsorted(t, t)
    order, t, slot = order[slot < K], t[slot < K], slot[slot < K]
    wy = _mean_axis_weights(y1[order], y2[order], H / meta.frame_height,
                            bins[0], H)
    wx = _mean_axis_weights(x1[order], x2[order], W / meta.frame_width,
                            bins[1], W)
    mats = np.zeros((T, K, H * W))
    valid = np.zeros((T, K), dtype=bool)
    mats[t, slot] = (wy[:, :, None] * wx[:, None, :]).reshape(-1, H * W)
    valid[t, slot] = True
    return mats, valid
