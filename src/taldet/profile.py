"""`taldet profile`: the memory and time of one training step and of one
graph-free forward at a chosen video length, feature width and batch.

The videos are synthetic and built in memory from a fixed seed: T snippets
each, 1-8 boxes per snippet on the 4 x 4 grid and 20 classes. The config
reports the aggregator's layout they make: its packed rows R and how many
snippets hold each valid count. The model and
the loss are the default `ModelConfig` and `TrainConfig`. Each pass runs
once under tracemalloc, so its peak counts the arrays it allocates (not
the model or the pooled inputs it starts from), and its seconds include
tracemalloc's cost. The step's `graph_mb` is what its forward leaves
allocated when the loss returns, before the backward: the arrays the graph
keeps for the backward, besides the loss. Nothing is trained and no
checkpoint is written.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import time
import tracemalloc

import numpy as np

from .dataio import SyntheticSpec, synthetic_videos
from .model import ModelConfig, SubjectPriorDetector, prepare_sample
from .training import TrainConfig, video_loss

SEED = 1
NUM_CLASSES = 20
SUBJECTS = (1, 8)   # boxes per snippet, drawn uniformly
MB = 2.0 ** 20


def op_nodes(root) -> int:
    """The op nodes (those with a backward) root reaches by its parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if p._backward is not None and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def traced(run):
    """run()'s result, its seconds and the traced peak MB of what it
    allocates."""
    gc.collect()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    return result, seconds, peak


def profile(snippets: int, feature_dim: int, batch: int) -> dict:
    """The profile of `batch` videos of `snippets` snippets at D =
    `feature_dim`, as the JSON object `taldet profile` writes."""
    spec = SyntheticSpec(seed=SEED, num_videos=batch, num_classes=NUM_CLASSES,
                         snippets_min=snippets, snippets_max=snippets,
                         subjects_min=SUBJECTS[0], subjects_max=SUBJECTS[1],
                         feature_dim=feature_dim)
    model_cfg = ModelConfig(feature_dim=feature_dim, num_classes=NUM_CLASSES)
    train_cfg = TrainConfig()
    samples = [prepare_sample(record, feats, model_cfg.K)
               for record, feats in synthetic_videos(spec)]
    # the aggregator's layout: its packed rows, and its snippets by valid
    # count (the group slot included), 1 to K + 1
    counts = np.concatenate([s.valid.sum(axis=1) for s in samples])
    by_count = np.bincount(counts, minlength=model_cfg.K + 2)[1:]
    model = SubjectPriorDetector(model_cfg,
                                 np.random.default_rng(train_cfg.seed))

    params = model.parameters()
    for p in params:
        p.requires_grad = False
    _, forward_s, forward_mb = traced(lambda: model(samples))
    for p in params:
        p.requires_grad = True

    def step():
        start = time.perf_counter()
        loss = video_loss(model, samples, train_cfg)
        loss_s = time.perf_counter() - start
        graph_mb = tracemalloc.get_traced_memory()[0] / MB
        nodes = op_nodes(loss)
        start = time.perf_counter()
        loss.backward()
        return loss_s, time.perf_counter() - start, graph_mb, nodes

    (loss_s, backward_s, graph_mb, nodes), _, step_mb = traced(step)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "stamp": {"cpus": os.cpu_count(),
                  "python": platform.python_version(),
                  "numpy": np.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "config": {"snippets": snippets, "feature_dim": feature_dim,
                   "batch": batch, "seed": SEED, "classes": NUM_CLASSES,
                   "boxes_per_snippet": list(SUBJECTS), "grid": spec.grid,
                   "packed_rows": int(counts.sum()),
                   "snippets_by_valid_count": {
                       str(c): int(n) for c, n in enumerate(by_count, 1)},
                   "model": dataclasses.asdict(model_cfg),
                   "train": dataclasses.asdict(train_cfg)},
        "forward": {"seconds": forward_s, "peak_mb": forward_mb},
        "train_step": {"loss_seconds": loss_s, "backward_seconds": backward_s,
                       "peak_mb": step_mb, "graph_mb": graph_mb,
                       "op_nodes": nodes},
    }
