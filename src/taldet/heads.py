"""Classification/regression heads, target assignment, and the training loss.

Both heads are towers of four same-padded kernel-3 convolutions with ReLU,
shared across pyramid levels, plus a 1x1 projection: C sigmoid logits for the
classifier, two ReLU-clamped boundary offsets (start / end distance, in
level-local steps) for the regressor. The pyramid's runs, one per level and
video of a batch, go through as one sequence of A steps, each convolution
padded per run; targets, the loss and decoding work on that same anchor
axis. Each convolution and the ReLU after it is one `conv1d` node; the 1x1
projections read their input rows directly, with no window gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, window_index
from .nn import ConvLayer, Module
from .temporal_pyramid import FeaturePyramid

FOCAL_GAMMA = 2.0
FOCAL_ALPHA = 0.25
TOWER_KERNEL = 3


@dataclass(frozen=True)
class GroundTruthSegment:
    class_id: int
    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError("segment start must precede end")


@dataclass
class Targets:
    class_target: np.ndarray   # int [A]; == num_classes for background
    d_start: np.ndarray        # float [A], level-local steps
    d_end: np.ndarray
    inside: np.ndarray         # bool [A]

    @property
    def num_positive(self) -> int:
        return int(self.inside.sum())


@dataclass
class HeadOutput:
    class_logits: Tensor       # [A, C]
    offsets: Tensor            # [A, 2], nonnegative
    step: np.ndarray           # int [A], index within its level
    stride: np.ndarray         # int [A], snippets per step at its level
    video: np.ndarray          # int [A], its video's place in the batch


class DetectionHeads(Module):
    def __init__(self, rng, dim: int, num_classes: int, num_layers: int):
        self.cls_tower = [ConvLayer(rng, TOWER_KERNEL, dim, dim, f"cls.{i}")
                          for i in range(num_layers)]
        self.reg_tower = [ConvLayer(rng, TOWER_KERNEL, dim, dim, f"reg.{i}")
                          for i in range(num_layers)]
        self.cls_out = ConvLayer(rng, 1, dim, num_classes, "cls.out")
        self.reg_out = ConvLayer(rng, 1, dim, 2, "reg.out")
        # start offsets positive so the clamping ReLU has gradient signal
        self.reg_out.b.data += 1.0

    def __call__(self, pyr: FeaturePyramid) -> HeadOutput:
        if not len(pyr.lengths):
            raise ValueError("empty pyramid")
        # one window index over every run, for every tower convolution
        index = window_index(pyr.lengths, TOWER_KERNEL)
        c = r = pyr.features
        for layer in self.cls_tower:
            c = layer(c, index, relu=True)
        for layer in self.reg_tower:
            r = layer(r, index, relu=True)
        first = np.repeat(np.cumsum(pyr.lengths) - pyr.lengths, pyr.lengths)
        return HeadOutput(
            class_logits=self.cls_out(c), offsets=self.reg_out(r, relu=True),
            step=np.arange(len(first)) - first,
            stride=np.repeat(pyr.strides, pyr.lengths),
            video=np.repeat(pyr.videos, pyr.lengths))


def assign_targets(outs: HeadOutput, records, num_classes: int) -> Targets:
    """Targets for the anchors of a batch's head output `outs`, from the
    list `records` of each video's `segments` and `seconds_per_snippet`.

    Anchor a of video v = outs.video[a] sits at time step * unit, with unit
    = stride * seconds_per_snippet of v, and its offsets are in units. An
    anchor inside several segments of its video takes the one with minimal
    duration (ties: earlier start, then input order).
    """
    spacing = np.array([r.seconds_per_snippet for r in records])
    unit = outs.stride * spacing[outs.video]
    times = outs.step * unit
    A = len(times)
    cls = np.full(A, num_classes, dtype=int)
    ds = np.zeros(A)
    de = np.zeros(A)
    inside = np.zeros(A, dtype=bool)
    segments = [(v, g) for v, r in enumerate(records) for g in r.segments]
    for v, g in sorted(segments, key=lambda s: (s[1].end - s[1].start,
                                                 s[1].start)):
        hit = ((~inside) & (outs.video == v) & (times >= g.start)
               & (times <= g.end))
        cls[hit] = g.class_id
        ds[hit] = (times[hit] - g.start) / unit[hit]
        de[hit] = (g.end - times[hit]) / unit[hit]
        inside |= hit
    return Targets(cls, ds, de, inside)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def focal_values(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-entry sigmoid focal loss (gamma=2, alpha=0.25) of logits [A, C],
    one-vs-all against the one-hot labels y (bool [A, C])."""
    p = sigmoid(logits)
    # -log p = softplus(-x); -log(1-p) = softplus(x)
    pos = FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA * np.logaddexp(0.0, -logits)
    neg = (1.0 - FOCAL_ALPHA) * p ** FOCAL_GAMMA * np.logaddexp(0.0, logits)
    return np.where(y, pos, neg)


def focal_grad(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d focal_values / d logits, entry by entry."""
    p = sigmoid(logits)
    q = 1.0 - p
    pos = -FOCAL_ALPHA * q ** FOCAL_GAMMA * (
        FOCAL_GAMMA * p * np.logaddexp(0.0, -logits) + q)
    neg = (1.0 - FOCAL_ALPHA) * p ** FOCAL_GAMMA * (
        FOCAL_GAMMA * q * np.logaddexp(0.0, logits) + p)
    return np.where(y, pos, neg)


def _overlap(pred: np.ndarray, target: np.ndarray):
    """Intersection and enclosing lengths of offset pairs [..., 2] that
    share their anchor step."""
    lo, hi = np.minimum(pred, target), np.maximum(pred, target)
    return lo[..., 0] + lo[..., 1], hi[..., 0] + hi[..., 1]


def giou_values(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-pair generalized IoU loss for offsets sharing the anchor step.

    pred[..., 2] = (d_start, d_end) >= 0. Since both intervals contain the
    anchor, the enclosing interval equals the union (max + max, which keeps
    the value exactly 0 for identical pairs): the GIoU penalty term
    vanishes, the loss is 1 - IoU, and each value stays in [0, 1] (the
    general bound is 2).
    """
    inter, enclose = _overlap(pred, target)
    return 1.0 - inter / enclose


def giou_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d giou_values / d pred, [..., 2]. An offset equal to its target
    passes the gradient of both the min and the max."""
    inter, enclose = _overlap(pred, target)
    return ((pred <= target) * (-1.0 / enclose)[..., None]
            + (pred >= target) * (inter / (enclose * enclose))[..., None])


def total_loss(outs: HeadOutput, targets: Targets, lam: float = 1.0,
               strict_positive_only: bool = False) -> Tensor:
    """The mean over a batch's B videos of each video's (focal + lam * GIoU)
    / max(T+, 1), one node over the class logits and the offsets: anchor
    a's terms weigh 1 / (max(T+ of its video, 1) * B).

    The focal loss sums over every (step, class) entry; with
    strict_positive_only, only steps inside an action contribute, otherwise
    background steps add their negative-class terms. GIoU sums over the
    positive steps.
    """
    logits, offsets = outs.class_logits, outs.offsets
    C = logits.shape[1]
    y = targets.class_target[:, None] == np.arange(C)   # background: none
    focal = focal_values(logits.data, y)
    if strict_positive_only:
        focal *= targets.inside[:, None]
    pos = targets.inside.nonzero()[0]
    pred = offsets.data[pos]
    tgt = np.stack([targets.d_start[pos], targets.d_end[pos]], axis=-1)
    giou = np.zeros(len(y))
    giou[pos] = giou_values(pred, tgt)
    B = outs.video.max() + 1
    weight = np.empty(len(y))   # of each anchor's terms
    loss = 0.0
    for mine in outs.video == np.arange(B)[:, None]:   # a video's anchors
        vpos = mine & targets.inside
        vloss = focal[mine].sum()
        if vpos.any():
            vloss = vloss + giou[vpos].sum() * lam
        scale = 1.0 / max(vpos.sum(), 1)
        weight[mine] = scale * (1.0 / B)
        loss += vloss * scale * (1.0 / B)
    if not (logits.requires_grad or offsets.requires_grad):
        return Tensor(loss)

    def backward(g):
        gw = g * weight
        if logits.requires_grad:
            gl = focal_grad(logits.data, y)
            if strict_positive_only:
                gl *= targets.inside[:, None]
            logits._accum(gl * gw[:, None])
        if offsets.requires_grad and pos.size:
            go = np.zeros(offsets.shape)
            go[pos] = giou_grad(pred, tgt) * (lam * gw[pos])[:, None]
            offsets._accum(go)

    return Tensor(loss, True, (logits, offsets), backward)
