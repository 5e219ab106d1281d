"""Temporal expansion of per-snippet group vectors into a feature pyramid.

Two mapping convolutions feed a stack of pre-norm attention blocks whose
scores are restricted to a local window. Strided layers halve (by `alpha`)
the temporal length after attention, and every strided layer's output is one
pyramid level; with alpha=1 the stack degenerates to standard temporal
attention at constant length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autograd import InvalidMaskError, Tensor
from .nn import ConvLayer, DepthwiseDownsample, Module, PreNormBlock

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class PyramidLevel:
    features: Tensor      # [T_l, D']
    stride: int           # snippets per step at this level
    valid_len: int


@dataclass
class FeaturePyramid:
    levels: list[PyramidLevel]


def band_mask(T: int, window_size: int, pad_mask: np.ndarray | None = None) -> np.ndarray:
    """allowed[i, j]: |i - j| within the half-window and j unpadded.

    Rows left with no allowed column (fully padded rows) fall back to
    self-attention only; their outputs are zeroed by the caller.
    """
    half = (window_size - 1) // 2
    idx = np.arange(T)
    allowed = np.abs(idx[:, None] - idx[None, :]) <= half
    if pad_mask is not None:
        pad_mask = np.asarray(pad_mask, dtype=bool)
        if not pad_mask.any():
            raise InvalidMaskError("all positions padded")
        allowed = allowed & pad_mask[None, :]
        empty = ~allowed.any(axis=1)
        allowed[empty, empty.nonzero()[0]] = True
    return allowed


class TemporalLayer(Module):
    """Pre-norm windowed attention block plus optional strided down-sampling."""

    def __init__(self, rng, cfg: ModelConfig, alpha: int, name="temporal"):
        self.block = PreNormBlock(rng, cfg.feature_dim, cfg.temporal_heads,
                                  name=name)
        self.alpha = alpha
        self.down = DepthwiseDownsample(rng, cfg.feature_dim, alpha, name + ".down")
        self.window_size = cfg.window_size

    def __call__(self, x: Tensor, pad_mask: np.ndarray | None):
        T = x.shape[0]
        if pad_mask is None:
            pad_mask = np.ones(T, dtype=bool)
        allowed = band_mask(T, self.window_size, pad_mask)
        row_mask = pad_mask.astype(np.float64)[:, None]
        y = self.block(x, allowed=allowed, row_mask=row_mask)
        if self.alpha == 1:
            return y, pad_mask
        y = self.down(y)
        valid_len = int(pad_mask.sum())  # padding is right-aligned
        new_len = -(-valid_len // self.alpha)
        new_mask = np.arange(y.shape[0]) < new_len
        y = y * new_mask.astype(np.float64)[:, None]
        return y, new_mask


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

    def __call__(self, g_seq: Tensor,
                 pad_mask: np.ndarray | None = None) -> FeaturePyramid:
        T = g_seq.shape[0]
        if pad_mask is None:
            pad_mask = np.ones(T, dtype=bool)
        row = pad_mask.astype(np.float64)[:, None]
        x = self.map1(g_seq).relu() * row
        x = self.map2(x).relu() * row
        mask = pad_mask
        for layer in self.standard:
            x, mask = layer(x, mask)
        levels = [PyramidLevel(x, stride=1, valid_len=int(mask.sum()))]
        stride = 1
        for layer in self.strided:
            x, mask = layer(x, mask)
            stride *= self.cfg.alpha
            levels.append(PyramidLevel(x, stride=stride, valid_len=int(mask.sum())))
        return FeaturePyramid(levels)


def expected_level_lengths(T: int, alpha: int, num_levels: int) -> list[int]:
    """The ceil recurrence the pyramid must satisfy."""
    out = [T]
    for _ in range(num_levels - 1):
        out.append(-(-out[-1] // alpha))
    return out
