"""Finite-difference verification suite for primitives and the full loss."""

from __future__ import annotations

import numpy as np

from .autograd import (Parameter, attention, conv1d, depthwise_conv1d,
                       grad_check, layer_norm, linear, prenorm_block,
                       window_index, window_tables)
from .heads import GroundTruthSegment, HeadOutput, Targets, total_loss
from .model import ModelConfig, SubjectPriorDetector, prepare_sample
from .subjects import AnnotationRecord, SubjectBox
from .training import TrainConfig, video_loss


def _sum_sq(t):
    return (t * t).sum()


def primitive_grad_checks(probes: int = 20, h: float = 1e-5,
                          seed: int = 0) -> dict[str, float]:
    """Max relative error per primitive over `probes` random probe points."""
    rng = np.random.default_rng(seed)
    results = {}

    def run(name, make):
        worst = 0.0
        for _ in range(probes):
            f, params = make()
            worst = max(worst, grad_check(f, params, h=h, rng=rng))
        results[name] = worst

    def make_linear():
        # [3, 4] rows, or [2, 3, 4] as the aggregator's [T, K+1, D] tokens
        shape = ((3, 4), (2, 3, 4))[int(rng.integers(2))]
        x = Parameter(rng.normal(size=shape), "x")
        w = Parameter(rng.normal(size=(4, 2)), "w")
        b = Parameter(rng.normal(size=2), "b")
        return lambda: _sum_sq(linear(x, w, b)), [x, w, b]

    def make_attention():
        # 1, 2 or 4 heads over D = 4, a leading batch axis of 2, and
        # random masks in which every row allows at least its diagonal
        heads = int(rng.choice([1, 2, 4]))
        q, k, v = (Parameter(rng.normal(size=(2, 3, 4)), n) for n in "qkv")
        allowed = (rng.random((2, 3, 3)) > 0.4) | np.eye(3, dtype=bool)
        c = rng.normal(size=(2, 3, 4))
        return (lambda: (attention(q, k, v, heads, allowed) * c).sum(),
                [q, k, v])

    def make_window_attention():
        # 1, 2 or 4 heads over D = 4, T = 1..6 rows and windows of 1, 3 or
        # 5, wider than the sequence or not
        heads = int(rng.choice([1, 2, 4]))
        T, w = int(rng.integers(1, 7)), int(rng.choice([1, 3, 5]))
        q, k, v = (Parameter(rng.normal(size=(T, 4)), n) for n in "qkv")
        c = rng.normal(size=(T, 4))
        window = window_tables(T, w)
        return (lambda: (attention(q, k, v, heads, window) * c).sum(),
                [q, k, v])

    def make_layer_norm():
        # [2, 6] rows, or [2, 3, 6] as the aggregator's [T, K+1, D] tokens
        shape = ((2, 6), (2, 3, 6))[int(rng.integers(2))]
        x = Parameter(rng.normal(size=shape), "x")
        g = Parameter(rng.normal(size=6), "g")
        b = Parameter(rng.normal(size=6), "b")
        c = rng.normal(size=shape)
        return lambda: (layer_norm(x, g, b, eps=1e-5) * c).sum(), [x, g, b]

    def make_prenorm_block():
        # [3, 4] rows, or [2, 3, 4] as the aggregator's [T, K+1, D] tokens;
        # 1 or 2 heads, random masks that allow at least the diagonal, and
        # the 16 Parameters in prenorm_block's order (FFN width 16)
        shape = ((3, 4), (2, 3, 4))[int(rng.integers(2))]
        heads = int(rng.choice([1, 2]))
        z = Parameter(rng.normal(size=shape), "z")
        shapes = ([(4,)] * 2 + [(4, 4), (4,)] * 4 + [(4,)] * 2
                  + [(4, 16), (16,), (16, 4), (4,)])
        params = [Parameter(rng.normal(size=s) * 0.5, "p") for s in shapes]
        allowed = ((rng.random(shape[:-1] + (3,)) > 0.4)
                   | np.eye(3, dtype=bool))
        c = rng.normal(size=shape)
        return (lambda: (prenorm_block(z, allowed, params, heads) * c).sum(),
                [z] + params)

    def make_conv():
        x = Parameter(rng.normal(size=(6, 3)), "x")
        w = Parameter(rng.normal(size=(3, 3, 2)), "w")
        b = Parameter(rng.normal(size=2), "b")
        index = window_index(np.array([3, 1, 2]), 3)
        return lambda: _sum_sq(conv1d(x, w, b, index)), [x, w, b]

    def make_depthwise():
        x = Parameter(rng.normal(size=(7, 4)), "x")
        w = Parameter(rng.normal(size=(2, 4)), "w")
        return lambda: _sum_sq(depthwise_conv1d(x, w, 2)), [x, w]

    def make_relu():
        x = Parameter(rng.normal(size=(4, 4)) + 0.1, "x")
        c = rng.normal(size=(4, 4))
        return lambda: (x.relu() * c).sum(), [x]

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
        outs = HeadOutput(x, o, np.arange(A), np.ones(A, dtype=int))
        lam, strict = float(rng.integers(0, 3)), bool(rng.random() < 0.5)
        return lambda: total_loss(outs, targets, lam, strict), [x, o]

    run("linear", make_linear)
    run("attention", make_attention)
    run("layer_norm", make_layer_norm)
    run("prenorm_block", make_prenorm_block)
    run("conv1d", make_conv)
    run("depthwise_conv1d", make_depthwise)
    run("relu", make_relu)
    run("total_loss", make_total_loss)
    run("window_attention", make_window_attention)
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
