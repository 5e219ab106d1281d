"""Runs one workload in its own process and writes its result as JSON.

Usage: python3 perfbench/worker.py JOB.json   (run.py writes the job file)

The process first caps its own address space, so a change that blows memory
fails as a MemoryError here instead of exhausting the machine. It then runs
the workload's command sequence through `taldet.cli.main` again and again for
the run's seconds (at least MIN_PASSES times) and checks each command's
output.

Untraced (trace 0), only the set-up calls are wrapped, to split each command's
wall time into set-up and work, and a fixed reference loop is timed before
the first command and after each one, to express both at one machine speed
(see reference_s). Traced (trace 1), every layer is wrapped for
at least MIN_TRACED_PASSES passes; one more pass records tracemalloc peaks
(its times are not used) and a last, untraced pass gives the base of
trace.overhead_ratio, both sides at the reference speed.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from taldet import cli  # noqa: E402
from tracer import (SETUP_TARGETS, Tracer, layer_targets,  # noqa: E402
                    setup_seconds)
from workloads import CHECKS  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 3
MEMORY_CALLS = 16
# the time reference_s() takes at the machine speed the end-to-end times are
# expressed at: about its time on an idle 2-vCPU Xeon (Sapphire Rapids) KVM
# guest
REFERENCE_S = 0.06
REFERENCE_MATRIX = np.random.default_rng(0).random((64, 64))


def reference_s() -> float:
    """Seconds a fixed mix of the program's kinds of work takes now: a
    pure-Python integer loop, small matrix products and dict updates.

    The CPUs of a shared host run this loop, and the program, at speeds up to
    2x apart from one phase of seconds to minutes to the next, more than any
    run length averages out. A command's time multiplied by REFERENCE_S over
    the loop's mean time right before and after it is the command's time at
    one machine speed. On long it spread a quarter to half as much as the
    wall time across seeds; on toy-train, whose train command runs ~10 s
    between two timings of the loop, from half to twice as much
    (BASELINE.md). The collector is off so that the program's leftover
    objects do not slow the loop."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        for _ in range(1500):
            (REFERENCE_MATRIX @ REFERENCE_MATRIX).sum()
        counts: dict[int, int] = {}
        for i in range(150_000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


def cap_address_space(limit_mb: int) -> None:
    limit = limit_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class Pass:
    """One run of the workload's commands: wall and set-up time, the
    reference loop's time around each command (if timed), failures and the
    value each command's check read back (final loss, average mAP), by
    label."""

    def __init__(self, tracer: Tracer, run_id: str):
        self.tracer, self.run_id = tracer, run_id
        self.wall: dict[str, float] = {}
        self.setup: dict[str, float] = {}
        self.reference: dict[str, float] = {}
        self.failed: dict[str, list[str]] = {}
        self.values: dict[str, float | None] = {}
        self.elapsed_s = 0.0

    def run(self, commands: list[dict], reference: bool = False) -> "Pass":
        self.tracer.run_id = self.run_id
        began = time.perf_counter()
        before = reference_s() if reference else 0.0
        for cmd in commands:
            label = cmd["label"]
            index = len(self.tracer.spans)
            start = time.perf_counter()
            with self.tracer.span(f"cli.{cmd['argv'][0]}"):
                try:
                    rc = cli.main(cmd["argv"])
                    error = f"exit code {rc}" if rc != 0 else None
                except Exception as e:  # a crash fails the command, not the run
                    traceback.print_exc()
                    error = f"crashed: {type(e).__name__}: {e}"
            self.wall[label] = time.perf_counter() - start
            self.setup[label] = setup_seconds(self.tracer, index)
            if reference:
                after = reference_s()
                self.reference[label] = (before + after) / 2
                before = after
            if error is None:
                try:
                    errors, self.values[label] = CHECKS[cmd["check"]](cmd)
                except (OSError, ValueError, KeyError) as e:
                    errors = [f"output check: {type(e).__name__}: {e}"]
                if errors:
                    self.failed[label] = errors
            else:
                self.failed[label] = [error]
        self.elapsed_s = time.perf_counter() - began
        return self

    @property
    def total_s(self) -> float:
        return sum(self.wall.values())

    @property
    def scaled_s(self) -> float:
        """The commands' wall time at the reference speed (see reference_s);
        the pass must have timed the reference."""
        return sum(wall * REFERENCE_S / self.reference[k]
                   for k, wall in self.wall.items())


def more_passes(passes: list[Pass], minimum: int, deadline: float,
                reserve: int = 0) -> bool:
    """Whether to start another pass: until `minimum` are done, then while
    one more of median length, and `reserve` more after it, still end before
    the deadline."""
    if len(passes) < minimum:
        return True
    pass_s = median(p.elapsed_s for p in passes)
    return time.perf_counter() + (1 + reserve) * pass_s <= deadline


def command_times(passes: list[Pass]) -> dict[str, list[list[float]]]:
    """Each command's [work, set-up, reference loop] seconds in every pass,
    by label; the reference is 0 where it was not timed."""
    return {k: [[p.wall[k] - p.setup[k], p.setup[k], p.reference.get(k, 0.0)]
                for p in passes]
            for k in passes[0].wall}


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    """setup_s and work_s at the reference speed, and the same from wall time
    alone: each command's median over the passes, summed over the commands."""
    times = command_times(passes)

    def total(column: int, scaled: bool) -> float:
        return sum(median(row[column] * (REFERENCE_S / row[2] if scaled
                                         else 1.0) for row in rows)
                   for rows in times.values())

    return ({"setup_s": total(1, True), "work_s": total(0, True)},
            {"wall_setup_s": total(1, False), "wall_work_s": total(0, False),
             "reference_s": median(p.reference[k] for p in passes
                                   for k in p.reference)})


def untraced(commands: list[dict], seconds: float):
    tracer = Tracer()
    passes = []
    deadline = time.perf_counter() + seconds
    with tracer.installed(SETUP_TARGETS):
        while more_passes(passes, MIN_PASSES, deadline):
            passes.append(Pass(tracer, f"pass{len(passes)}").run(
                commands, reference=True))
    metrics, wall = end_to_end(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, metrics | {"peak_rss_mb": rss_mb}, wall


def traced(commands: list[dict], seconds: float, spans_path: Path):
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    passes, counts = [], []
    with tracer.installed(layer_targets()):
        # the memory pass and the untraced pass below fit in the run too
        while more_passes(passes, MIN_TRACED_PASSES, deadline, reserve=2):
            tracer.counts.clear()
            passes.append(Pass(tracer, f"traced{len(passes)}").run(
                commands, reference=True))
            counts.append(dict(tracer.counts))
        # enough calls to see every video of each workload at least once
        tracer.memory_calls.update({"model.forward": MEMORY_CALLS,
                                    "autograd.backward": MEMORY_CALLS})
        memory_pass = Pass(tracer, "memory").run(commands)
    with tracer.installed(SETUP_TARGETS):
        baseline = Pass(tracer, "untraced").run(commands, reference=True)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, passes, counts, baseline)
    errors = [] if all(c == counts[0] for c in counts) \
        else ["layer counts differ between traced passes"]
    return [*passes, memory_pass, baseline], metrics, errors, \
        self_time_breakdown(tracer, passes)


def self_time_breakdown(tracer: Tracer, passes: list[Pass]) -> dict:
    """Median self seconds of each span name under each command."""
    per_pass = [tracer.durations(p.run_id)[2] for p in passes]
    return {cmd: {name: median([b.get(cmd, {}).get(name, 0.0)
                                for b in per_pass])
                  for name in per_pass[-1][cmd]}
            for cmd in per_pass[-1]}


TIMED = {  # metric -> span whose total time it reports
    "autograd.backward_s": "autograd.backward",
    "training.video_loss_s": "training.video_loss",
    "training.optimizer_s": "training.optimizer",
    "spatial_attention.aggregate_s": "spatial_attention.aggregate",
    "model.forward_s": "model.forward",
    "heads.towers_s": "heads.towers",
    "heads.assign_targets_s": "heads.assign_targets",
    "heads.loss_s": "heads.loss",
    "postprocess.decode_s": "postprocess.decode",
    "postprocess.soft_nms_s": "postprocess.soft_nms",
    "metrics.evaluate_s": "metrics.evaluate",
    "dataio.read_features_s": "dataio.read_features",
    "dataio.read_annotations_s": "dataio.read_annotations",
    "model.prepare_sample_s": "model.prepare_sample",
    "dataio.read_detections_s": "dataio.read_detections",
    "dataio.write_detections_s": "dataio.write_detections",
    "dataio.write_checkpoint_s": "dataio.write_checkpoint",
    "cli.train_s": "cli.train",
    "cli.infer_s": "cli.infer",
    "cli.eval_s": "cli.eval",
}
TIMED |= {f"temporal_pyramid.{k}{i}_s": f"temporal_pyramid.{k}{i}"
          for k, n in (("std", 2), ("strided", 5)) for i in range(n)}
SELF_TIMED = {  # metric -> span whose self time it reports
    "temporal_pyramid.map_s": "temporal_pyramid.pyramid",
    "cli.train_self_s": "cli.train",
    "cli.infer_self_s": "cli.infer",
    "cli.eval_self_s": "cli.eval",
}


def layer_metrics(tracer: Tracer, passes: list[Pass], counts: list[dict],
                  baseline: Pass) -> dict:
    """Time metrics are medians over traced passes; counts are per pass and
    repeat exactly (traced() checks), so the last pass's are reported."""
    per_pass = [tracer.durations(p.run_id) for p in passes]
    m = {k: median([total.get(span, 0.0) for total, _, _ in per_pass])
         for k, span in TIMED.items()}
    m |= {k: median([own.get(span, 0.0) for _, own, _ in per_pass])
          for k, span in SELF_TIMED.items()}
    counts = counts[-1]
    calls = counts.get("autograd.backward_calls", 0)
    cells = counts.get("temporal_pyramid.band_cells", 0)
    pairs = counts.get("metrics.match_pairs", 0)
    m |= {
        "autograd.nodes_per_video_step":
            counts.get("autograd.nodes", 0) / calls if calls else 0.0,
        "autograd.backward_peak_alloc_mb":
            tracer.peak_mb.get("autograd.backward", 0.0),
        "model.forward_peak_alloc_mb": tracer.peak_mb.get("model.forward", 0.0),
        "spatial_attention.tokens": counts.get("spatial_attention.tokens", 0),
        "temporal_pyramid.band_cells": cells,
        "temporal_pyramid.band_useful_ratio":
            counts.get("temporal_pyramid.band_allowed", 0) / cells
            if cells else 0.0,
        "heads.positives": counts.get("heads.positives", 0),
        "postprocess.candidates": counts.get("postprocess.candidates", 0),
        "postprocess.kept": counts.get("postprocess.kept", 0),
        "metrics.match_pairs": pairs,
        "metrics.same_video_pair_ratio":
            counts.get("metrics.same_video_pairs", 0) / pairs if pairs else 0.0,
        "dataio.features_mb": counts.get("dataio.features_bytes", 0) / 2 ** 20,
        "training.loss_final": baseline.values.get("train") or 0.0,
        "metrics.map_avg": baseline.values.get("eval") or 0.0,
        "trace.overhead_ratio":
            median([p.scaled_s for p in passes]) / baseline.scaled_s,
    }
    return m


def consistency_errors(passes: list[Pass]) -> list[str]:
    """Every pass runs the same commands on the same files, so the losses
    and mAPs the checks read back must repeat bit for bit."""
    errors = []
    for label in passes[0].wall:
        values = {p.values[label] for p in passes
                  if p.values.get(label) is not None}
        if len(values) > 1:
            errors.append(f"{label} output differs between passes: "
                          f"{sorted(values)}")
    return errors


def vm_peak_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmPeak:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    cap_address_space(job["limit_mb"])
    commands = job["commands"]
    extra = {}
    if job["trace"]:
        passes, metrics, mismatched, extra["self_time_s"] = traced(
            commands, job["seconds"], Path(job["spans"]))
    else:
        passes, metrics, extra["wall"] = untraced(commands, job["seconds"])
        mismatched = []
    failures = [f"{p.run_id} {cmd}: {msg}" for p in passes
                for cmd, msgs in p.failed.items() for msg in msgs]
    mismatched += consistency_errors(passes)
    attempted = sum(len(p.wall) for p in passes)
    failed = min(attempted, sum(len(p.failed) for p in passes) + len(mismatched))
    failures += mismatched
    if not all(math.isfinite(v) for v in metrics.values()):
        failures.append("non-finite metric")
        failed = max(failed, 1)
    Path(job["result"]).write_text(json.dumps({
        "attempted": attempted, "failed": failed, "failures": failures,
        "pass_s": [round(p.total_s, 4) for p in passes],
        "command_s": command_times(passes), "metrics": metrics,
        "vm_peak_mb": vm_peak_mb()} | extra) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
