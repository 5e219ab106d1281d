"""The benchmark's workloads: their sizes, seeded inputs and output checks.

Each workload is a fixed sequence of taldet user commands (train, infer,
eval) over inputs generated here from the run's seed. `prepare` runs in the
parent process and writes only files; the worker process then hands those
files to `taldet.cli.main` and checks what each command wrote.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from taldet import dataio
from taldet.dataio import (AnnotationRecord, SyntheticSpec, generate_synthetic,
                           write_annotations, write_detections)
from taldet.heads import GroundTruthSegment
from taldet.metrics import THUMOS_GRID
from taldet.postprocess import ActionSegment
from taldet.subjects import SubjectBox

POST_NMS_KEEP = 200  # the CLI's default keep-200 cut
LIMIT_PER_THREAD_MB = 64


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    # address-space limit for the worker, at least twice the measured VmPeak
    # (toy-train 156 MB, long 775 MB); run.py adds LIMIT_PER_THREAD_MB per
    # BLAS thread
    limit_mb: int


# criterion-6 model and optimiser; 40 epochs reach mAP@0.5 = 1.0 on every
# seed tried, so the >= 0.9 bar holds with margin
TOY_CONFIG = {"K": 3, "group_layers": 2, "group_heads": 4, "temporal_heads": 4,
              "num_standard_layers": 2, "num_strided_layers": 3,
              "lr_init": 1e-3, "batch_size": 2, "epochs": 40,
              "warmup_epochs": 5, "seed": 0}
# default ModelConfig; two epochs of one batch each, without lr warm-up. The
# class count is fixed so that decode's candidate count (and with it the
# Soft-NMS cost) does not depend on which classes a seed happens to draw:
# after two steps at lr 1e-4 nearly every (step, class) still clears the
# 0.001 threshold, and 8 classes over the ~2T pyramid steps of a video give
# about twice pre_nms_topk of them, so Soft-NMS always sees 2000 candidates
# (with 4 classes at T=256 there are barely 2016 (step, class) slots, and
# some seeds left one video with 1500 candidates and half the Soft-NMS work).
LONG_CONFIG = {"seed": 0, "num_classes": 8, "epochs": 2, "warmup_epochs": 0,
               "batch_size": 2}

EVAL_SET = {"videos": 50, "classes": 20, "gt_per_video": 16,
            "detections_per_video": 200}

WORKLOADS = {w.name: w for w in [
    Workload("toy-train",
             {"videos": 8, "snippets": "28-36", "feature_dim": 16,
              "classes": 2, "epochs": TOY_CONFIG["epochs"]}, limit_mb=512),
    Workload("long",
             {"videos": 2, "snippets": 256, "feature_dim": 32,
              "classes": LONG_CONFIG["num_classes"],
              "epochs": LONG_CONFIG["epochs"], "pre_nms_topk": 2000,
              "eval_set": EVAL_SET}, limit_mb=1536),
]}


def write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))


def eval_command(data: Path, dets: Path, out: Path) -> dict:
    return {"label": "eval", "check": "eval", "out": str(out),
            "argv": ["eval", "--data", str(data), "--detections", str(dets),
                     "--out", str(out)]}


def pipeline(work: Path, settings: dict) -> list[dict]:
    """train, infer and eval on <work>/data, with outputs in <work>/out."""
    data, out, cfg = work / "data", work / "out", work / "run.cfg"
    write_config(cfg, settings)
    dets = out / "detections.jsonl"
    return [
        {"label": "train", "check": "train", "out": str(out),
         "epochs": settings["epochs"],
         "argv": ["train", "--data", str(data), "--config", str(cfg),
                  "--out", str(out)]},
        {"label": "infer", "check": "infer", "data": str(data),
         "detections": str(dets),
         "argv": ["infer", "--data", str(data), "--config", str(cfg),
                  "--checkpoint", str(out / "checkpoint.ptck"),
                  "--out", str(out)]},
        eval_command(data, dets, out),
    ]


def prepare(workload: Workload, seed: int, work: Path) -> list[dict]:
    """Write the workload's inputs under `work`; return one pass's commands:
    label, `taldet` argv, which check reads the output and what it compares
    against."""
    if workload.name == "toy-train":
        generate_synthetic(SyntheticSpec(seed=seed), work / "data")
        train, infer, eval_cmd = pipeline(work, TOY_CONFIG)
        return [train, infer, eval_cmd | {"min_map_at_05": 0.9}]
    s = workload.sizes
    generate_synthetic(SyntheticSpec(
        seed=seed, num_videos=s["videos"], num_classes=s["classes"],
        snippets_min=s["snippets"], snippets_max=s["snippets"],
        feature_dim=s["feature_dim"]), work / "data")
    data = work / "data" / "eval_set"
    dets = data / "detections.jsonl"
    expected = write_eval_set(seed, EVAL_SET, data, dets)
    large = eval_command(data, dets, work / "eval_set_out")
    return pipeline(work, LONG_CONFIG) + [
        large | {"label": "eval-large", "expected_map_avg": expected}]


# tIoU of each planted detection with its ground truth: midway between the
# THUMOS thresholds, so each one matches at a known subset of the grid
PLANTED_TIOU = (1.0, 0.75, 0.65, 0.55, 0.45, 0.35)


def write_eval_set(seed: int, sizes: dict, data: Path, det_path: Path) -> float:
    """Annotations and detections whose THUMOS-grid average mAP is known.

    Every video has `gt_per_video` disjoint ground-truth segments, one per
    12 s slot. Most get one planted detection nested inside it, whose tIoU is
    drawn from PLANTED_TIOU and whose score rises with that tIoU; the rest of
    the video's detections are 0.5 s false positives scored below every
    planted one (0.5 s against segments of at least 2 s gives tIoU < 0.3). So
    at each threshold a class's matches outrank all its misses, its precision
    is 1 up to recall m/n and its AP follows from m and n alone.
    """
    rng = np.random.default_rng(seed)
    n_vid, n_cls = sizes["videos"], sizes["classes"]
    n_gt, n_det = sizes["gt_per_video"], sizes["detections_per_video"]
    fps, stride, slot = 10.0, 5, 12.0
    n_snip = int(n_gt * slot * fps / stride)
    duration = n_snip * stride / fps
    records, dets = [], {}
    gt_count = np.zeros(n_cls, dtype=int)
    hits = {thr: np.zeros(n_cls, dtype=int) for thr in THUMOS_GRID}
    for v in range(n_vid):
        vid = f"eval_{v:03d}"
        segments, planted = [], []
        for i in range(n_gt):
            c = int(rng.integers(n_cls))
            start = i * slot + rng.uniform(1.0, 3.0)
            length = rng.uniform(2.0, 8.0)
            segments.append(GroundTruthSegment(c, start, start + length))
            gt_count[c] += 1
            if rng.random() < 0.8:
                iou = PLANTED_TIOU[int(rng.integers(len(PLANTED_TIOU)))]
                inner = iou * length
                lo = start + rng.uniform(0.0, length - inner)
                score = 0.4 + 0.5 * iou + rng.uniform(0.0, 0.04)
                planted.append(ActionSegment(c, score, lo, lo + inner))
                for thr in THUMOS_GRID:
                    hits[thr][c] += iou >= thr
        false_pos = []
        for _ in range(n_det - len(planted)):
            lo = rng.uniform(0.0, duration - 0.5)
            false_pos.append(ActionSegment(int(rng.integers(n_cls)),
                                           rng.uniform(0.01, 0.3), lo, lo + 0.5))
        dets[vid] = planted + false_pos
        boxes = [[SubjectBox(8.0, 8.0, 40.0, 40.0, 0.9)]] * n_snip
        records.append(AnnotationRecord(vid, fps, 64, 64, stride, segments,
                                        boxes))
    data.mkdir(parents=True, exist_ok=True)
    write_annotations(data / "annotations.jsonl", records)
    write_detections(det_path, dets)
    present = gt_count > 0
    per_thr = [np.mean([planted_ap(int(m), int(n)) for m, n in
                        zip(hits[thr][present], gt_count[present])])
               for thr in THUMOS_GRID]
    return float(np.mean(per_thr))


def planted_ap(m: int, n: int) -> float:
    """101-point interpolated AP when the top m of a class's detections are
    its only matches among n ground truths."""
    if m == 0:
        return 0.0
    recall = float(m) / n
    return sum(1.0 for r in np.linspace(0.0, 1.0, 101) if recall >= r) / 101.0


# -- output checks: each returns (failure messages, value read back) ---------


def check_train(cmd: dict) -> tuple[list[str], float | None]:
    rows = [json.loads(line) for line in
            (Path(cmd["out"]) / "loss_log.jsonl").read_text().splitlines()]
    if len(rows) != cmd["epochs"]:
        return [f"loss log has {len(rows)} rows, expected {cmd['epochs']}"], None
    losses = [r["mean_loss"] for r in rows]
    if not all(math.isfinite(x) for x in losses):
        return ["non-finite loss in loss log"], None
    return [], losses[-1]


def check_infer(cmd: dict) -> tuple[list[str], None]:
    records = dataio.read_annotations(Path(cmd["data"]) / "annotations.jsonl")
    durations = {r.id: r.duration for r in records}
    dets = dataio.read_detections(cmd["detections"])
    unknown = sorted(set(dets) - set(durations))
    errors = [f"detections for unknown videos {unknown}"] if unknown else []
    for vid, segs in dets.items():
        if len(segs) > POST_NMS_KEEP:
            errors.append(f"{vid}: {len(segs)} detections > {POST_NMS_KEEP}")
        outside = [s for s in segs
                   if s.start < 0.0 or s.end > durations.get(vid, 0.0) + 1e-9]
        if outside:
            errors.append(f"{vid}: {len(outside)} detections outside the video")
    return errors, None


def check_eval(cmd: dict) -> tuple[list[str], float | None]:
    rows = [json.loads(line) for line in
            (Path(cmd["out"]) / "report.jsonl").read_text().splitlines()]
    per_thr = {r["tiou"]: r["map"] for r in rows if "tiou" in r}
    avg = rows[-1].get("average_map")
    if avg is None or not 0.0 <= avg <= 1.0:
        return [f"bad average_map {avg!r}"], None
    errors = []
    if "min_map_at_05" in cmd and per_thr.get(0.5, -1.0) < cmd["min_map_at_05"]:
        errors.append(f"mAP@0.5 {per_thr.get(0.5)} < {cmd['min_map_at_05']}")
    if "expected_map_avg" in cmd and abs(avg - cmd["expected_map_avg"]) > 1e-9:
        errors.append(f"average_map {avg!r} != constructed "
                      f"{cmd['expected_map_avg']!r}")
    return errors, avg


CHECKS = {"train": check_train, "infer": check_infer, "eval": check_eval}
