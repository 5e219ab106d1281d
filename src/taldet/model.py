"""End-to-end network: subject tokens -> group token -> temporal pyramid ->
detection heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, concat
from .heads import DetectionHeads, HeadOutput
from .nn import Module
from .spatial_attention import GroupAggregator
from .subjects import AnnotationRecord, pool_matrices
from .temporal_pyramid import PyramidBuilder


@dataclass(frozen=True)
class ModelConfig:
    """Every model setting; the FFN width of each attention block is 4 * D.

    In the paper's notation: K subject tokens per snippet, L1 SA-SAM layers
    (`group_layers`) and the strided layers' down-sampling ratio alpha.
    """
    feature_dim: int
    num_classes: int
    K: int = 6
    group_layers: int = 8
    group_heads: int = 8
    temporal_heads: int = 4
    window_size: int = 9
    num_standard_layers: int = 2
    num_strided_layers: int = 5
    alpha: int = 2
    head_layers: int = 4

    def __post_init__(self):
        for key in ("feature_dim", "num_classes", "group_heads",
                    "temporal_heads", "K", "alpha"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("group_layers", "num_standard_layers",
                    "num_strided_layers", "head_layers"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        for heads in ("group_heads", "temporal_heads"):
            if self.feature_dim % getattr(self, heads) != 0:
                raise ValueError(f"{heads} must divide feature_dim")
        if self.window_size % 2 == 0 or self.window_size < 1:
            raise ValueError("window_size must be odd and >= 1")


@dataclass
class VideoSample:
    """A video's record and its precomputed inputs: each snippet's K pooled
    subject tokens and, last, its group token, the global spatial average,
    a Tensor that carries gradients to the features only when the features
    are a Tensor; the group slot is always valid."""
    record: AnnotationRecord
    tokens: Tensor        # [T, K+1, D]
    valid: np.ndarray     # bool [T, K+1]


def prepare_sample(record: AnnotationRecord, features, K: int) -> VideoSample:
    """Pool tokens for every snippet of the video `record` describes.
    `features` may be a numpy [T,H,W,D] array (training path, no feature
    gradients) or a Tensor (gradient checks)."""
    T, H, W, D = features.shape
    if T != record.num_snippets:
        raise ValueError(f"record {record.id}: {record.num_snippets} box "
                         f"lists but {T} feature snippets")
    mats, valid = pool_matrices(record, (H, W), K)
    # the group slot, last and always valid, pools the average over the grid
    mats = np.concatenate([mats, np.full((T, 1, H * W), 1 / (H * W))], 1)
    valid = np.concatenate([valid, np.ones((T, 1), dtype=bool)], 1)
    tokens = Tensor(mats) @ features.reshape(T, H * W, D)
    return VideoSample(record, tokens, valid)


class SubjectPriorDetector(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.aggregator = GroupAggregator(cfg, rng)
        self.pyramid = PyramidBuilder(cfg, rng)
        self.heads = DetectionHeads(rng, cfg.feature_dim, cfg.num_classes,
                                    cfg.head_layers)

    def snippet_representation(self, samples: list[VideoSample]) -> Tensor:
        """[sum T, D]: the videos' aggregated group tokens back to back;
        with no aggregator block (group_layers = 0), their global averages."""
        return self.aggregator(concat([s.tokens for s in samples]),
                               np.concatenate([s.valid for s in samples]))

    def forward(self, batch) -> HeadOutput:
        """The heads' output over a batch of videos (a VideoSample alone is
        a batch of one), run as one sequence with the videos back to back
        on the snippet axis; no layer mixes two videos."""
        samples = [batch] if isinstance(batch, VideoSample) else list(batch)
        lengths = [s.tokens.shape[0] for s in samples]
        return self.heads(self.pyramid(self.snippet_representation(samples),
                                       lengths))

    __call__ = forward
