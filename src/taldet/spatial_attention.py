"""Group-token aggregation over subject tokens via stacked masked attention.

The K pooled subject vectors plus one group slot (initialized with the global
spatial average) pass through L1 pre-norm attention blocks, in which every
slot attends to the valid slots of its snippet. Only the valid slots are
computed: their rows are gathered once, packed back to back with each
snippet's group slot last, every block runs on those rows, and the group
rows are read at the end. An invalid slot's row is never read, so whatever
it holds, NaN included, never reaches the group token or a gradient.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autograd import Tensor, gather_rows, packed_layout
from .nn import Module, PreNormBlock

if TYPE_CHECKING:
    from .model import ModelConfig


class GroupAggregator(Module):
    """L1 stacked pre-norm attention blocks over the valid slots; reads the
    group slot of the final Z."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.blocks = [
            PreNormBlock(rng, cfg.feature_dim, cfg.group_heads,
                         name=f"spatial.{i}")
            for i in range(cfg.group_layers)
        ]

    def __call__(self, tokens_with_group: Tensor, valid_tokens: np.ndarray) -> Tensor:
        """tokens_with_group: [T, K+1, D], group slot last; valid_tokens:
        bool [T, K]; returns the aggregated group vectors [T, D]."""
        valid = np.concatenate(
            [valid_tokens, np.ones((len(valid_tokens), 1), dtype=bool)],
            axis=1)
        packed = packed_layout(valid)
        d = tokens_with_group.shape[-1]
        z = gather_rows(tokens_with_group.reshape(-1, d),
                        np.flatnonzero(valid))
        for block in self.blocks:
            z = block(z, packed)
        # each snippet's group slot is its last row
        return gather_rows(z, np.cumsum(valid.sum(axis=1)) - 1)
