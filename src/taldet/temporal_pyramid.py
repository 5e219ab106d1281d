"""Temporal expansion of per-snippet group vectors into a feature pyramid.

Two mapping convolutions feed a stack of pre-norm attention blocks in which
each snippet attends only to the keys in its local window. Strided layers
halve (by `alpha`) the temporal length after attention, and every strided
layer's output is one pyramid level; with alpha=1 the stack degenerates to
standard temporal attention at constant length. A batch's videos run back to
back on the snippet axis: every convolution, window and down-sampling pads
each video on its own, so none reads across two videos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autograd import Tensor, Window, concat, window_index, window_tables
from .nn import ConvLayer, DepthwiseDownsample, Module, PreNormBlock

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class FeaturePyramid:
    """Every level of a batch's videos as one sequence of runs, level after
    level and, within a level, video after video: run r is `lengths[r]`
    steps of video `videos[r]` at `strides[r]` snippets per step."""
    features: Tensor       # [A, D'], A = sum(lengths)
    lengths: np.ndarray    # int [runs]
    strides: np.ndarray    # int [runs]
    videos: np.ndarray     # int [runs]


class TemporalLayer(Module):
    """Pre-norm windowed attention block, then strided down-sampling when
    its stride alpha is above 1 (else `down` is None)."""

    def __init__(self, rng, cfg: ModelConfig, alpha: int, name="temporal"):
        self.block = PreNormBlock(rng, cfg.feature_dim, cfg.temporal_heads,
                                  name=name)
        self.down = None if alpha == 1 else DepthwiseDownsample(
            rng, cfg.feature_dim, alpha, name + ".down")
        self.window_size = cfg.window_size

    def __call__(self, x: Tensor, lengths: np.ndarray, window: Window):
        """x [sum(lengths), D], videos `lengths` long back to back, and
        their `window_tables(lengths, window_size)`; returns the output and
        its videos' lengths. No window reads across two videos."""
        x = self.block(x, window)
        return (x, lengths) if self.down is None else self.down(x, lengths)


class PyramidBuilder(Module):
    """Mapping convolutions + stride-1 blocks + strided blocks -> pyramid."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.feature_dim
        self.cfg = cfg
        self.map1 = ConvLayer(rng, 3, d, d, "map1")
        self.map2 = ConvLayer(rng, 3, d, d, "map2")
        self.standard = [TemporalLayer(rng, cfg, alpha=1, name=f"std.{i}")
                         for i in range(cfg.num_standard_layers)]
        self.strided = [TemporalLayer(rng, cfg, alpha=cfg.alpha, name=f"strided.{i}")
                        for i in range(cfg.num_strided_layers)]

    def __call__(self, g_seq: Tensor, lengths) -> FeaturePyramid:
        """The pyramid of the videos `lengths` long whose group vectors
        g_seq [sum(lengths), D] holds back to back."""
        lengths = np.asarray(lengths, dtype=int)
        index = window_index(lengths, 3)
        x = self.map2(self.map1(g_seq, index, relu=True), index, relu=True)
        # one Window per level: the standard layers and the first strided
        # one attend at level 0, each later strided layer at the level the
        # one before it made
        window = window_tables(lengths, self.cfg.window_size)
        for layer in self.standard:
            x, lengths = layer(x, lengths, window)
        levels, runs = [x], [lengths]
        for i, layer in enumerate(self.strided):
            if i:
                window = window_tables(lengths, self.cfg.window_size)
            x, lengths = layer(x, lengths, window)
            levels.append(x)
            runs.append(lengths)
        B = len(lengths)
        return FeaturePyramid(
            concat(levels), np.concatenate(runs),
            np.repeat(self.cfg.alpha ** np.arange(len(runs)), B),
            np.tile(np.arange(B), len(runs)))
