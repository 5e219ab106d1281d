#!/usr/bin/env python3
"""Overfit the noiseless synthetic set and compare the subject-token route
against the global-average-pooling ablation at an equal epoch budget.

The generator builds each snippet so its spatial mean is the same scene
vector everywhere; only the subject-box cells carry the action signal. A
model pooling globally therefore has nothing to learn from, while the
subject-token route can reach mAP@0.5 = 1.0 on the training videos.

Usage: python3 scripts/overfit_synthetic.py [--epochs 150] [--seed 7]
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from taldet.dataio import SyntheticSpec, generate_synthetic, read_features
from taldet.metrics import evaluate
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample
from taldet.postprocess import decode, soft_nms
from taldet.training import TrainConfig, fit


def run(use_subject_tokens: bool, data_dir: Path, args) -> float:
    records = list(data_dir_records(data_dir))
    cfg = ModelConfig(feature_dim=16, num_classes=2, K=3, group_layers=2,
                      group_heads=4, temporal_heads=4, num_standard_layers=2,
                      num_strided_layers=3, use_subject_tokens=use_subject_tokens)
    samples, gts = [], {}
    for r in records:
        feats = read_features(data_dir / "features" / f"{r.id}.ptfv")
        samples.append(prepare_sample(r.id, feats, r.boxes,
                                      r.meta(feats.shape), cfg.K))
        gts[r.id] = r.segments
    model = SubjectPriorDetector(cfg, np.random.default_rng(args.model_seed))
    tc = TrainConfig(lr_init=1e-3, epochs=args.epochs, warmup_epochs=5,
                     batch_size=2, seed=args.model_seed)
    t0 = time.time()
    res = fit(model, samples, gts, tc)
    dets = {}
    for sample in samples:
        cands = decode(model(sample), sample.meta, score_threshold=0.1,
                       pre_nms_topk=200)
        dets[sample.video_id] = soft_nms(cands)[:100]
    score = evaluate(dets, gts, [0.5]).per_threshold_map[0.5]
    route = "subject tokens" if use_subject_tokens else "global average"
    print(f"{route:<15} final loss {res.loss_log[-1]['mean_loss']:.4f}  "
          f"mAP@0.5 {score:.3f}  ({time.time() - t0:.0f}s)")
    return score


def data_dir_records(data_dir):
    from taldet.dataio import read_annotations
    return read_annotations(data_dir / "annotations.jsonl")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--seed", type=int, default=7,
                    help="dataset generation seed")
    ap.add_argument("--model-seed", type=int, default=0)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as d:
        data = Path(d) / "data"
        generate_synthetic(SyntheticSpec(seed=args.seed), data)
        tok = run(True, data, args)
        glob = run(False, data, args)
    print(f"subject-token margin: {tok - glob:+.3f}")


if __name__ == "__main__":
    main()
