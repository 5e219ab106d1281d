"""Finite-difference verification suite for the nodes the model's graph is
built from and for the full loss."""

from __future__ import annotations

import numpy as np

from .autograd import (Parameter, checkpoint, conv1d, depthwise_conv1d,
                       grad_check, packed_layout, prenorm_block,
                       window_index, window_tables)
from .heads import GroundTruthSegment, HeadOutput, Targets, total_loss
from .model import ModelConfig, SubjectPriorDetector, prepare_sample
from .subjects import AnnotationRecord, SubjectBox
from .training import TrainConfig, video_loss


def _sum_sq(t):
    return (t * t).sum()


def window_rows(rng: np.random.Generator):
    """T = 1..6 rows, as one sequence or as two, and the Window of 1, 3 or
    5 over them, wider than a sequence or not."""
    T, w = int(rng.integers(1, 7)), int(rng.choice([1, 3, 5]))
    cut = int(rng.integers(T))   # 0: one sequence
    return T, window_tables([T] if cut == 0 else [cut, T - cut], w)


def packed_slots(rng: np.random.Generator):
    """The row count and Packed layout of slot_mask's snippets."""
    valid = slot_mask(rng)
    return int(valid.sum()), packed_layout(valid)


def slot_mask(rng: np.random.Generator) -> np.ndarray:
    """bool [4, 4]: the valid slots of 4 snippets of K + 1 = 4 slots, group
    slot last, in a random order: one with no valid token, one with every
    slot valid (n = K + 1), one whose valid tokens are not a prefix of its
    slots, one at random."""
    valid = np.ones((4, 4), dtype=bool)
    valid[0, :3] = False
    valid[2, :3] = [[True, False, True], [False, True, True],
                    [False, True, False],
                    [False, False, True]][int(rng.integers(4))]
    valid[3, :3] = rng.random(3) < 0.5
    return valid[rng.permutation(4)]


def primitive_grad_checks(probes: int = 20, h: float = 1e-5,
                          seed: int = 0) -> dict[str, float]:
    """Max relative error per node over `probes` random probe points: the
    pre-norm block under a Window, under a Packed layout and over each
    snippet's last row of one, the convolutions, the loss, which between
    them run every analytic forward and backward, and the last-row block
    checkpointed over pieces of its snippets, whose backward recomputes."""
    rng = np.random.default_rng(seed)
    results = {}

    def run(name, make):
        worst = 0.0
        for _ in range(probes):
            f, params = make()
            worst = max(worst, grad_check(f, params, h=h, rng=rng))
        results[name] = worst

    def block_params():
        # the 15 Parameters in prenorm_block's order over D = 4 (FFN width
        # 16); the array drawn in a key bias's place is dropped, which keeps
        # seed 0's probes off the FFN's ReLU kinks, where +-h differences fail
        shapes = ([(4,)] * 2 + [(4, 4), (4,)] * 4 + [(4,)] * 2
                  + [(4, 16), (16,), (16, 4), (4,)])
        drawn = [Parameter(rng.normal(size=s) * 0.5, "p") for s in shapes]
        return drawn[:5] + drawn[6:]

    def block_probe(rows, layout, last=False):
        # block_params() and 1 or 2 heads over `rows` rows of z; with
        # `last`, the block's output for each snippet's last row
        heads = int(rng.choice([1, 2]))
        z = Parameter(rng.normal(size=(rows, 4)), "z")
        params = block_params()
        c = rng.normal(size=(len(layout.mask) if last else rows, 4))
        return (lambda: (prenorm_block(z, layout, params, heads, last)
                         * c).sum(), [z] + params)

    def make_conv():
        x = Parameter(rng.normal(size=(6, 3)), "x")
        w = Parameter(rng.normal(size=(3, 3, 2)), "w")
        b = Parameter(rng.normal(size=2), "b")
        index = window_index(np.array([3, 1, 2]), 3)
        return lambda: _sum_sq(conv1d(x, w, b, index)), [x, w, b]

    def make_conv_relu():
        # the fused ReLU on a k = 3 kernel over three sequences and on a
        # 1-wide kernel without an index (no gather), both reading x
        x = Parameter(rng.normal(size=(6, 3)), "x")
        w3, w1 = (Parameter(rng.normal(size=(k, 3, 2)), "w") for k in (3, 1))
        b3, b1 = (Parameter(rng.normal(size=2), "b") for _ in range(2))
        index = window_index([3, 1, 2], 3)
        c3, c1 = rng.normal(size=(2, 6, 2))
        return (lambda: (conv1d(x, w3, b3, index, relu=True) * c3).sum()
                + (conv1d(x, w1, b1, relu=True) * c1).sum(),
                [x, w3, b3, w1, b1])

    def make_depthwise():
        # 7 rows as one sequence or as three, odd and of one row among them,
        # each right-padded on its own; a kernel of 2 or 3 at stride 2
        lengths = ([7], [3, 1, 3])[int(rng.integers(2))]
        x = Parameter(rng.normal(size=(7, 4)), "x")
        w = Parameter(rng.normal(size=(int(rng.integers(2, 4)), 4)), "w")
        return lambda: _sum_sq(depthwise_conv1d(x, w, 2, lengths)), [x, w]

    def make_total_loss():
        # 1-3 classes over 6 steps, each step inside an action or not (at
        # random, so some probes have no positive step), both focal modes
        # and lam in {0, 1, 2}; offsets and targets positive and apart
        A, C = 6, int(rng.integers(1, 4))
        inside = rng.random(A) < 0.5
        targets = Targets(np.where(inside, rng.integers(0, C, A), C),
                          rng.uniform(0.5, 3.0, A), rng.uniform(0.5, 3.0, A),
                          inside)
        x = Parameter(rng.normal(size=(A, C)) * 2, "logits")
        o = Parameter(rng.uniform(0.5, 3.0, size=(A, 2)), "offsets")
        # the anchors of one video, or of two taking turns
        video = np.arange(A) % int(rng.integers(1, 3))
        outs = HeadOutput(x, o, np.arange(A), np.ones(A, dtype=int), video)
        lam, strict = float(rng.integers(0, 3)), bool(rng.random() < 0.5)
        return lambda: total_loss(outs, targets, lam, strict), [x, o]

    def make_checkpoint():
        # the group-row block over slot_mask's snippets, as one checkpoint
        # node over 2-4 pieces of whole snippets cut at random
        valid = slot_mask(rng)
        cuts = np.sort(rng.choice(np.arange(1, 4), int(rng.integers(1, 4)),
                                  replace=False))
        snippets = np.concatenate([[0], cuts, [4]])
        rows = np.concatenate([[0], np.cumsum(valid.sum(axis=1))])[snippets]
        heads = int(rng.choice([1, 2]))
        z = Parameter(rng.normal(size=(rows[-1], 4)), "z")
        params = block_params()
        c = rng.normal(size=(4, 4))

        def piece(zc, i):
            layout = packed_layout(valid[snippets[i]:snippets[i + 1]])
            return prenorm_block(zc, layout, params, heads, last=True)

        return (lambda: (checkpoint(piece, z, rows, params) * c).sum(),
                [z] + params)

    run("window_prenorm_block", lambda: block_probe(*window_rows(rng)))
    run("packed_prenorm_block", lambda: block_probe(*packed_slots(rng)))
    run("last_rows_prenorm_block",
        lambda: block_probe(*packed_slots(rng), last=True))
    run("conv1d", make_conv)
    run("conv1d_relu", make_conv_relu)
    run("depthwise_conv1d", make_depthwise)
    run("total_loss", make_total_loss)
    run("checkpoint", make_checkpoint)
    return results


def build_toy_problem(seed: int = 0, T: int = 2, K: int = 3,
                      group_layers: int = 2, num_strided: int = 2,
                      feature_dim: int = 8):
    """Tiny end-to-end setup with the feature grid as a trainable input, so
    the check covers RoI pooling as well as every network parameter."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(feature_dim=feature_dim, num_classes=2, K=K,
                      group_layers=group_layers, group_heads=2,
                      temporal_heads=2, window_size=3,
                      num_standard_layers=1, num_strided_layers=num_strided,
                      head_layers=2)
    model = SubjectPriorDetector(cfg, rng)
    feats = Parameter(rng.normal(size=(T, 2, 2, feature_dim)), "features")
    boxes = [[SubjectBox(2.0, 2.0, 20.0, 20.0, 0.9),
              SubjectBox(10.0, 8.0, 30.0, 28.0, 0.8)]
             for _ in range(T)]
    # one action over the first 80 % of the T * 0.5 s video
    record = AnnotationRecord("toy", 10.0, 32, 32, 5,
                              [GroundTruthSegment(0, 0.0, T * 0.4)], boxes)
    train_cfg = TrainConfig(epochs=2, warmup_epochs=1)

    def loss_fn():
        sample = prepare_sample(record, feats, K)
        return video_loss(model, sample, train_cfg)

    params = [feats] + model.parameters()
    return loss_fn, params


def end_to_end_grad_check(seed: int = 0, h: float = 1e-5,
                          max_coords: int = 3, **toy_kwargs) -> float:
    loss_fn, params = build_toy_problem(seed=seed, **toy_kwargs)
    rng = np.random.default_rng(seed + 1)
    return grad_check(loss_fn, params, h=h, max_coords=max_coords, rng=rng)
