"""One description per video, subject box ranking and RoI feature pooling.

An AnnotationRecord describes a video: its frame rate and size, snippet
stride, ground-truth segments and its subject boxes, held as one Boxes: a
float [n, 5] array of every box of every snippet, snippet after snippet,
and the int [T] count of each snippet's boxes. Boxes arrive in keyframe
pixel coordinates; features are an H x W x D grid per snippet. The top-K
boxes of each snippet by frame-area ratio each become one pooled token; the
remaining slots are zero vectors flagged invalid so downstream attention
can mask them out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .heads import GroundTruthSegment


@dataclass(frozen=True)
class SubjectBox:
    """One box, for building a record in code: AnnotationRecord takes a list
    of them per snippet and stores their numbers as Boxes rows."""
    x1: float
    y1: float
    x2: float
    y2: float
    confidence: float = 1.0

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError("degenerate subject box")


class Boxes:
    """A video's subject boxes: `rows`, a float [n, 5] array whose rows are
    (x1, y1, x2, y2, confidence), snippet after snippet, and `counts`, the
    int [T] number of rows of each snippet. Both are checked in one vector
    pass: numbers only (no bools or strings), five a row, counts that add up
    to the rows, finite values, and x1 < x2 and y1 < y2 in every row."""
    __slots__ = ("rows", "counts")

    def __init__(self, rows, counts):
        rows, counts = np.asarray(rows), np.asarray(counts)
        if rows.dtype.kind not in "iuf" or rows.ndim != 2 or \
                rows.shape[1] != 5:
            raise ValueError(f"boxes of shape {rows.shape} and type "
                             f"{rows.dtype} are not an [n, 5] number array")
        if counts.dtype.kind not in "iu" or counts.ndim != 1 or \
                (counts < 0).any() or counts.sum() != len(rows):
            raise ValueError(f"box counts of shape {counts.shape} and type "
                             f"{counts.dtype} do not split {len(rows)} boxes")
        rows = rows.astype(float, copy=False)
        finite = np.isfinite(rows)
        if not finite.all():
            # the first in column order, as a parse of each coordinate names it
            raise ValueError(f"{float(rows.T[~finite.T][0])!r} is not finite")
        if not ((rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3])).all():
            raise ValueError("degenerate subject box")
        self.rows, self.counts = rows, counts.astype(int, copy=False)

    def __eq__(self, other):
        return (isinstance(other, Boxes)
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.counts, other.counts))


@dataclass
class AnnotationRecord:
    """One video. Its snippet count is the number of box counts; the size of
    its feature grid comes from its features. `boxes` may also be given as
    one list of SubjectBox per snippet, which is converted to Boxes once."""
    id: str
    fps: float
    frame_width: int
    frame_height: int
    snippet_stride: int   # frames between snippet centers
    segments: list[GroundTruthSegment]
    boxes: Boxes

    def __post_init__(self):
        if not isinstance(self.boxes, Boxes):
            self.boxes = Boxes(
                np.array([(b.x1, b.y1, b.x2, b.y2, b.confidence)
                          for snippet in self.boxes for b in snippet],
                         dtype=float).reshape(-1, 5),
                np.array([len(snippet) for snippet in self.boxes], dtype=int))
        # before `duration` divides by fps
        for key in ("fps", "frame_width", "frame_height", "snippet_stride"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} = {getattr(self, key)} is not "
                                 f"positive")
        if not self.num_snippets:
            raise ValueError("boxes: no box list, so no snippet")
        for s in self.segments:
            if s.class_id < 0:
                raise ValueError(
                    f"record {self.id}: negative class id {s.class_id}")
            if s.start < 0 or s.end > self.duration + 1e-9:
                raise ValueError(
                    f"record {self.id}: segment [{s.start}, {s.end}] outside "
                    f"video extent {self.duration:.3f}s")

    @property
    def num_snippets(self) -> int:
        return len(self.boxes.counts)

    @property
    def seconds_per_snippet(self) -> float:
        return self.snippet_stride / self.fps

    @property
    def duration(self) -> float:
        return self.num_snippets * self.seconds_per_snippet


SAMPLES = 2  # RoIAlign samples per bin along each axis


@functools.cache
def _sample_offsets(bins: int) -> np.ndarray:
    """[bins * SAMPLES] positions of the samples along an axis of unit-wide
    bins, bin b's at b + (s + 0.5) / SAMPLES; read-only, as it is shared."""
    u = (np.arange(bins)[:, None]
         + (np.arange(SAMPLES) + 0.5) / SAMPLES).reshape(-1)
    u.flags.writeable = False
    return u


def _mean_axis_weights(lo, hi, scale, bins, n):
    """[boxes, n] mean bilinear weight of each of the n cells over the
    bins * SAMPLES regular sample positions along one axis of each box.
    On a one-cell axis (n == 1), `left` is -1 and every weight is 1."""
    lo, hi = lo * scale, hi * scale
    c = 0.5 * (lo + hi)
    thin = hi - lo < 1e-9
    lo, hi = np.where(thin, c - 0.5, lo), np.where(thin, c + 0.5, hi)
    pos = lo[:, None] + ((hi - lo) / bins)[:, None] * _sample_offsets(bins)
    p = np.clip(pos - 0.5, 0.0, n - 1.0)
    left = np.minimum(np.floor(p).astype(int), n - 2)
    frac = (p - left)[..., None]
    cells = np.arange(n)
    return ((cells == left[..., None]) * (1.0 - frac)
            + (cells == left[..., None] + 1) * frac).mean(axis=1)


def pool_matrices(record: AnnotationRecord, grid: tuple[int, int], K: int,
                  bins: tuple[int, int] = (7, 7)
                  ) -> tuple[np.ndarray, np.ndarray]:
    """[T, K, H*W] pooling matrices and [T, K] validity for a whole video,
    from its record's boxes and frame size onto its (H, W) feature `grid`.

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
    T, (H, W) = record.num_snippets, grid
    width, height = record.frame_width, record.frame_height
    b = record.boxes.rows
    snippet = np.repeat(np.arange(T), record.boxes.counts)
    x1, y1 = np.maximum(b[:, 0], 0.0), np.maximum(b[:, 1], 0.0)
    x2 = np.minimum(b[:, 2], float(width))
    y2 = np.minimum(b[:, 3], float(height))
    ratio = (x2 - x1) * (y2 - y1) / (width * height)
    keep = np.flatnonzero((x1 < x2) & (y1 < y2))
    order = keep[np.lexsort((keep, -b[keep, 4], -ratio[keep], snippet[keep]))]
    t = snippet[order]
    slot = np.arange(len(order)) - np.searchsorted(t, t)
    order, t, slot = order[slot < K], t[slot < K], slot[slot < K]
    wy = _mean_axis_weights(y1[order], y2[order], H / height, bins[0], H)
    wx = _mean_axis_weights(x1[order], x2[order], W / width, bins[1], W)
    mats = np.zeros((T, K, H * W))
    valid = np.zeros((T, K), dtype=bool)
    mats[t, slot] = (wy[:, :, None] * wx[:, None, :]).reshape(-1, H * W)
    valid[t, slot] = True
    return mats, valid
