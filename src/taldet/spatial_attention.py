"""Group-token aggregation over subject tokens via stacked attention.

The K pooled subject vectors plus one group slot, last and always valid
(initialized with the global spatial average), pass through L1 pre-norm
attention blocks, in which every slot attends to the valid slots of its
snippet. Only the valid slots are computed. The snippets are sorted by
their valid count (a stable sort) and their valid rows gathered once, each
snippet's group slot last, so the snippets of each count make one run of
rows, and attention over a run is dense attention over its view
[t, c, D]: no padding, mask or scatter. Every block but the last runs on
all those rows. Only the group rows of the last block are read, so it
computes just those: its keys and values still cover every row, while its
queries, output projection, second norm and FFN cover one row per snippet,
and it returns the group vectors itself, which one gather puts back in
snippet order. An invalid slot's row is never read, so whatever it holds,
NaN included, never reaches the group token or a gradient. With no block
(L1 = 0) the group vectors are the global averages.

No row reads another snippet's rows, so the blocks run over chunks of whole
snippets, in their sorted order, each of at most CHUNK_ROWS packed rows, as
one `checkpoint` node: a training step keeps the graph of the last chunk
alive, and its backward rebuilds the others one at a time. The chunks are
filled from the last, so the kept chunk is a full one and the first holds
the rest: the graph kept alive is bounded by CHUNK_ROWS, and no fewer rows
could be rebuilt within that bound. A cut may fall inside a run. Rows that
fit in one chunk are one chunk, whose graph the step keeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autograd import Packed, Tensor, checkpoint, gather_rows, packed_layout
from .nn import Module, PreNormBlock

if TYPE_CHECKING:
    from .model import ModelConfig

# the most packed rows a chunk holds: the aggregator graph a training step
# keeps alive grows with it, and the rows outside the last chunk cost a
# second forward in the backward (the trade-off is measured in the README)
CHUNK_ROWS = 700


def snippet_chunks(counts: np.ndarray, max_rows: int) -> np.ndarray:
    """int [n + 1]: cuts into snippets of `counts` rows each, taken in
    order, as chunks filled from the last: each holds the most whole
    snippets that fit in `max_rows` rows, and at least one, so the first
    chunk holds what is left."""
    starts = np.concatenate([[0], np.cumsum(counts)])
    cuts = [len(counts)]
    while cuts[-1] > 0:
        first = int(np.searchsorted(starts, starts[cuts[-1]] - max_rows))
        cuts.append(min(first, cuts[-1] - 1))
    return np.array(cuts[::-1])


class GroupAggregator(Module):
    """L1 stacked pre-norm attention blocks over the valid slots, the last
    computing the group slots only."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.blocks = [
            PreNormBlock(rng, cfg.feature_dim, cfg.group_heads,
                         name=f"spatial.{i}")
            for i in range(cfg.group_layers)
        ]

    def __call__(self, tokens: Tensor, valid: np.ndarray) -> Tensor:
        """tokens: [T, K+1, D] and their validity bool [T, K+1], the group
        slot last and valid; returns the aggregated group vectors [T, D]."""
        T, N, D = tokens.shape
        flat = tokens.reshape(-1, D)
        if not self.blocks:
            return gather_rows(flat, np.arange(T) * N + N - 1)
        counts = valid.sum(axis=1)
        order = np.argsort(counts, kind="stable")
        valid, counts = valid[order], counts[order]
        z = gather_rows(flat, (order[:, None] * N + np.arange(N))[valid])
        cuts = snippet_chunks(counts, CHUNK_ROWS)
        layouts = [packed_layout(valid[a:b])
                   for a, b in zip(cuts[:-1], cuts[1:])]
        rows = np.concatenate([[0], np.cumsum(counts)])[cuts]
        out = checkpoint(lambda piece, i: self.group_rows(piece, layouts[i]),
                         z, rows, self.parameters())
        # the group vectors back in snippet order
        return gather_rows(out, np.argsort(order))

    def group_rows(self, z: Tensor, packed: Packed) -> Tensor:
        """The blocks over the rows z of snippets in the layout `packed`:
        their group vectors [t, D]."""
        for block in self.blocks[:-1]:
            z = block(z, packed)
        return self.blocks[-1].last_rows(z, packed)
