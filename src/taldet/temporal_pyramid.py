"""Temporal expansion of per-snippet group vectors into a feature pyramid.

Two mapping convolutions feed a stack of pre-norm attention blocks in which
each snippet attends only to the keys in its local window. Strided layers
halve (by `alpha`) the temporal length after attention, and every strided
layer's output is one pyramid level; with alpha=1 the stack degenerates to
standard temporal attention at constant length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autograd import Tensor, window_tables
from .nn import ConvLayer, DepthwiseDownsample, Module, PreNormBlock

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class PyramidLevel:
    features: Tensor      # [T_l, D']
    stride: int           # snippets per step at this level


@dataclass
class FeaturePyramid:
    levels: list[PyramidLevel]


class TemporalLayer(Module):
    """Pre-norm windowed attention block plus optional strided down-sampling."""

    def __init__(self, rng, cfg: ModelConfig, alpha: int, name="temporal"):
        self.block = PreNormBlock(rng, cfg.feature_dim, cfg.temporal_heads,
                                  name=name)
        self.down = DepthwiseDownsample(rng, cfg.feature_dim, alpha, name + ".down")
        self.window_size = cfg.window_size

    def __call__(self, x: Tensor) -> Tensor:
        window = window_tables(x.shape[0], self.window_size)
        return self.down(self.block(x, window))


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

    def __call__(self, g_seq: Tensor) -> FeaturePyramid:
        x = self.map2(self.map1(g_seq).relu()).relu()
        for layer in self.standard:
            x = layer(x)
        levels = [PyramidLevel(x, stride=1)]
        stride = 1
        for layer in self.strided:
            x = layer(x)
            stride *= self.cfg.alpha
            levels.append(PyramidLevel(x, stride=stride))
        return FeaturePyramid(levels)

