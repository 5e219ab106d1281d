"""Group-token aggregation over subject tokens via stacked masked attention.

The K pooled subject vectors plus one group slot (initialized with the global
spatial average) pass through L1 pre-norm attention blocks, in which every
slot attends to the valid slots of its snippet. Only the valid slots are
computed: their rows are gathered once and packed back to back with each
snippet's group slot last, and every block but the last runs on all those
rows. Only the group rows of the last block are read, so it computes just
those: its keys and values still cover every row, while its queries, output
projection, second norm and FFN cover one row per snippet, and it returns
the group vectors itself. An invalid slot's row is never read, so whatever
it holds, NaN included, never reaches the group token or a gradient. With
no block (L1 = 0) the group vectors are the global averages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autograd import Tensor, gather_rows, packed_layout
from .nn import Module, PreNormBlock

if TYPE_CHECKING:
    from .model import ModelConfig


class GroupAggregator(Module):
    """L1 stacked pre-norm attention blocks over the valid slots, the last
    computing the group slots only."""

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
        if not self.blocks:
            return gather_rows(z, packed.last_rows())
        for block in self.blocks[:-1]:
            z = block(z, packed)
        return self.blocks[-1].last_rows(z, packed)
