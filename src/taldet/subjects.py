"""Subject box ranking, RoI feature pooling, and token extraction.

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


def _clip_box(box: SubjectBox, meta: VideoMeta) -> SubjectBox | None:
    x1 = max(box.x1, 0.0)
    y1 = max(box.y1, 0.0)
    x2 = min(box.x2, float(meta.frame_width))
    y2 = min(box.y2, float(meta.frame_height))
    if x1 >= x2 or y1 >= y2:
        return None
    return SubjectBox(x1, y1, x2, y2, box.confidence)


def rank_subjects(boxes: list[SubjectBox], meta: VideoMeta, K: int) -> list[SubjectBox]:
    """Top-K boxes by frame-area ratio; ties broken by confidence, then by
    original position. Fully-outside boxes are dropped after clipping."""
    if K < 1:
        raise ValueError("K must be >= 1")
    frame_area = meta.frame_width * meta.frame_height
    clipped = []
    for i, b in enumerate(boxes):
        cb = _clip_box(b, meta)
        if cb is not None:
            clipped.append((-(cb.area / frame_area), -cb.confidence, i, cb))
    clipped.sort(key=lambda t: t[:3])
    return [t[3] for t in clipped[:K]]


def _roi_weights(box: SubjectBox, meta: VideoMeta,
                 bins: tuple[int, int], samples: int = 2) -> np.ndarray:
    """Linear map from grid cells to bin averages, shape [b_h*b_w, H*W].

    Each bin averages samples^2 bilinear samples taken at regular interior
    points; cell values sit at cell centers and samples clamp at the border.
    A box that collapses after mapping is widened to one cell extent.
    """
    H, W = meta.feature_height, meta.feature_width
    sy = H / meta.frame_height
    sx = W / meta.frame_width
    y1, y2 = box.y1 * sy, box.y2 * sy
    x1, x2 = box.x1 * sx, box.x2 * sx
    if y2 - y1 < 1e-9:
        c = 0.5 * (y1 + y2)
        y1, y2 = c - 0.5, c + 0.5
    if x2 - x1 < 1e-9:
        c = 0.5 * (x1 + x2)
        x1, x2 = c - 0.5, c + 0.5
    b_h, b_w = bins
    bh_ext = (y2 - y1) / b_h
    bw_ext = (x2 - x1) / b_w
    frac = (np.arange(samples) + 0.5) / samples
    ys = (y1 + bh_ext * (np.arange(b_h)[:, None] + frac[None, :])).reshape(-1)
    xs = (x1 + bw_ext * (np.arange(b_w)[:, None] + frac[None, :])).reshape(-1)

    def axis_weights(pos, n):
        # bilinear weights over cell centers (i + 0.5), clamped at borders
        p = np.clip(pos - 0.5, 0.0, n - 1.0)
        lo = np.minimum(np.floor(p).astype(int), n - 2) if n > 1 \
            else np.zeros(len(p), dtype=int)
        frac_p = p - lo
        w = np.zeros((len(pos), n))
        if n == 1:
            w[:, 0] = 1.0
        else:
            w[np.arange(len(pos)), lo] = 1.0 - frac_p
            w[np.arange(len(pos)), lo + 1] = frac_p
        return w

    wy = axis_weights(ys, H)     # [b_h*s, H]
    wx = axis_weights(xs, W)     # [b_w*s, W]
    wy = wy.reshape(b_h, samples, H)
    wx = wx.reshape(b_w, samples, W)
    # bin (i, j) averages the outer products of its sample weights
    cell = np.einsum("iah,jbw->ijhw", wy, wx) / (samples * samples)
    return cell.reshape(b_h * b_w, H * W)


def token_pool_matrix(boxes: list[SubjectBox], meta: VideoMeta, K: int,
                      bins: tuple[int, int] = (7, 7)) -> tuple[np.ndarray, np.ndarray]:
    """[K, H*W] pooling matrix and validity mask for one snippet.

    tokens = matrix @ f.reshape(H*W, D): row k is the mean over the RoI bins
    of the k-th ranked box, so pooling is exactly linear in the features.
    Unfilled slots are zero rows with valid=False.
    """
    if bins[0] < 1 or bins[1] < 1:
        raise ValueError("bins must be >= (1, 1)")
    ranked = rank_subjects(boxes, meta, K) if boxes else []
    HW = meta.feature_height * meta.feature_width
    mat = np.zeros((K, HW))
    valid = np.zeros(K, dtype=bool)
    for k, box in enumerate(ranked):
        mat[k] = _roi_weights(box, meta, bins).mean(axis=0)
        valid[k] = True
    return mat, valid

