"""Group-token aggregation over subject tokens via stacked masked attention.

The K pooled subject vectors plus one group slot (initialized with the global
spatial average) pass through L1 pre-norm attention blocks. Every slot
attends to the valid slots only: an invalid slot's column gets exactly zero
softmax weight in every row, so whatever its own row holds never reaches the
group token.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autograd import Tensor
from .nn import Module, PreNormBlock

if TYPE_CHECKING:
    from .model import ModelConfig


class GroupAggregator(Module):
    """L1 stacked pre-norm attention blocks; reads the group slot of the
    final Z."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.blocks = [
            PreNormBlock(rng, cfg.feature_dim, cfg.group_heads,
                         name=f"spatial.{i}")
            for i in range(cfg.group_layers)
        ]

    def __call__(self, tokens_with_group: Tensor, valid_tokens: np.ndarray) -> Tensor:
        """tokens_with_group: [..., K+1, D], group slot last; returns the
        aggregated group vector(s) [..., D]."""
        valid = np.concatenate(
            [valid_tokens, np.ones(valid_tokens.shape[:-1] + (1,), dtype=bool)],
            axis=-1)
        n = valid.shape[-1]
        allowed = np.broadcast_to(valid[..., None, :], valid.shape[:-1] + (n, n))
        z = tokens_with_group
        for block in self.blocks:
            z = block(z, allowed)
        return z[..., -1, :]
