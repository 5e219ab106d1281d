"""Spans around calls into taldet's layers, recorded from outside the program.

`Tracer.installed(targets)` replaces each target -- a function or method on
the object the program looks it up on -- with a timing wrapper, and puts the
original back on exit. Spans stay in memory as (name, start, end, parent,
run id) until the caller writes them out; counters are tallied at the same
call boundaries, outside the timed interval.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from taldet import (autograd, cli, heads, model, spatial_attention,
                    temporal_pyramid, training)

MB = 2.0 ** 20


@dataclass(frozen=True)
class Target:
    owner: object            # module or class the program looks the name up on
    attr: str
    span: str | Callable     # span name, or a function of the call's args
    count: Callable | None = None   # count(counter, args, kwargs, result)
    memory: bool = False     # record tracemalloc peaks (see memory_calls)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.peak_mb: dict[str, float] = defaultdict(float)
        # calls per span name still to measure with tracemalloc, which slows
        # every Python allocation; set by the caller for a memory pass
        self.memory_calls: Counter = Counter()
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.span if isinstance(target.span, str) \
                else target.span(args)
            memory = target.memory and self.memory_calls[name] > 0
            if memory:
                self.memory_calls[name] -= 1
                tracemalloc.start()
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb[name], peak)
            if target.count is not None:
                target.count(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets: list[Target]):
        saved = []
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(t, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self, run_id: str) -> tuple[dict, dict, dict]:
        """Seconds per span name over the spans of one run: total, self, and
        self split by the top-level span (the command) each one ran under.
        Self time is a span's duration minus its direct children's."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        picked = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        for i, (name, start, end, parent, _) in picked:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        by_root: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        root: dict[int, str] = {}
        for i, (name, start, end, parent, _) in picked:  # parents come first
            root[i] = name if parent is None else root[parent]
            own[name] += end - start - child[i]
            by_root[root[i]][name] += end - start - child[i]
        return dict(total), dict(own), {k: dict(v) for k, v in by_root.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


# -- counters ----------------------------------------------------------------


def graph_nodes(root) -> int:
    """Tensor nodes reachable from `root` through their parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def count_backward(c, args, kwargs, result):
    c["autograd.backward_calls"] += 1
    c["autograd.nodes"] += graph_nodes(args[0])


def count_band(c, args, kwargs, result):
    layer, x = args[0], args[1]
    T, half = x.shape[0], (layer.window_size - 1) // 2
    c["temporal_pyramid.band_cells"] += T * T
    c["temporal_pyramid.band_allowed"] += T + sum(
        2 * (T - d) for d in range(1, min(half, T - 1) + 1))


def count_tokens(c, args, kwargs, result):
    c["spatial_attention.tokens"] += int(np.prod(args[1].shape[:-1]))


def count_pairs(c, args, kwargs, result):
    """Same-class (detection, ground truth) pairs evaluate() scans at each
    threshold, and how many of them lie in one video (the only ones that
    can overlap)."""
    dets, gts = args[0], args[1]
    thresholds = kwargs.get("thresholds", args[2] if len(args) > 2 else None)
    det_n: Counter = Counter()
    gt_n: Counter = Counter()
    same = 0
    for vid in set(dets) | set(gts):
        d = Counter(s.class_id for s in dets.get(vid, []))
        g = Counter(s.class_id for s in gts.get(vid, []))
        same += sum(n * g[cls] for cls, n in d.items())
        det_n.update(d)
        gt_n.update(g)
    c["metrics.match_pairs"] += len(thresholds) * sum(
        n * gt_n[cls] for cls, n in det_n.items())
    c["metrics.same_video_pairs"] += len(thresholds) * same


def counter(key: str, measure: Callable) -> Callable:
    def count(c, args, kwargs, result):
        c[key] += measure(result)
    return count


def temporal_layer_span(args) -> str:
    """'temporal_pyramid.std0', '...strided3': from the layer's parameter
    names, which PyramidBuilder sets to 'std.<i>' / 'strided.<i>'."""
    kind, index = args[0].block.attn.wq.w.name.split(".")[:2]
    return f"temporal_pyramid.{kind}{index}"


def layer_targets() -> list[Target]:
    """Every call boundary the traced run records, on the names the program
    actually calls: the importing module's globals, or the class."""
    return SETUP_TARGETS + [
        Target(cli, "read_features", "dataio.read_features",
               counter("dataio.features_bytes", lambda r: r.nbytes)),
        Target(cli, "prepare_sample", "model.prepare_sample"),
        Target(cli, "write_detections", "dataio.write_detections"),
        Target(cli, "decode", "postprocess.decode",
               counter("postprocess.candidates", len)),
        Target(cli, "soft_nms", "postprocess.soft_nms",
               counter("postprocess.kept", len)),
        Target(cli, "evaluate", "metrics.evaluate", count_pairs),
        Target(training, "video_loss", "training.video_loss"),
        Target(training, "assign_targets", "heads.assign_targets",
               counter("heads.positives", lambda r: r.num_positive)),
        Target(training, "total_loss", "heads.loss"),
        Target(training, "clip_global_norm", "training.optimizer"),
        Target(training.Adam, "step", "training.optimizer"),
        Target(training, "ema_update", "training.optimizer"),
        Target(training, "write_checkpoint", "dataio.write_checkpoint"),
        Target(autograd.Tensor, "backward", "autograd.backward",
               count_backward, memory=True),
        Target(model.SubjectPriorDetector, "__call__", "model.forward",
               memory=True),
        Target(spatial_attention.GroupAggregator, "__call__",
               "spatial_attention.aggregate", count_tokens),
        Target(temporal_pyramid.PyramidBuilder, "__call__",
               "temporal_pyramid.pyramid"),
        Target(temporal_pyramid.TemporalLayer, "__call__",
               temporal_layer_span, count_band),
        Target(heads.DetectionHeads, "__call__", "heads.towers"),
    ]


# calls whose time, when a command makes them directly, is that command's
# set-up: reading inputs, pooling tokens, building the model
SETUP_TARGETS = [
    Target(cli, "load_dataset", "setup.load_dataset"),
    Target(cli, "build_model_and_samples", "setup.build_model"),
    Target(cli, "read_checkpoint", "setup.read_checkpoint"),
    Target(cli, "load_into_model", "setup.load_into_model"),
    Target(cli, "read_annotations", "dataio.read_annotations"),
    Target(cli, "read_detections", "dataio.read_detections"),
]
SETUP_SPANS = {t.span for t in SETUP_TARGETS}


def setup_seconds(tracer: Tracer, command: int) -> float:
    """Set-up time of one command: its direct child spans in SETUP_SPANS.
    `command` is the index of the command's span in `tracer.spans`."""
    return sum(end - start
               for name, start, end, parent, _ in tracer.spans[command + 1:]
               if parent == command and name in SETUP_SPANS)
