"""Acceptance suite: one test per release criterion, each printing a single
pass/fail line outside pytest capture so the verdicts always appear in the
run log.

Criteria:
  1. gradient suite accuracy on primitives and the end-to-end loss
  2. group aggregation permutation invariance and masking soundness
  3. pyramid level-length law for every input length
  4. oracle equivalence for Soft-NMS, AP fixtures, and decoding
  5. loss sanity: bounded GIoU, zero iff exact; focal closed form
  6. synthetic overfit beats the global-average-pooling ablation
  7. bitwise deterministic training given a seed
  8. bit-exact file format round trips, including edge cases
"""

import math
import time

import numpy as np
import pytest

from taldet.autograd import Tensor
from taldet.checksuite import end_to_end_grad_check, primitive_grad_checks
from taldet.dataio import (AnnotationRecord, SyntheticSpec,
                           generate_synthetic, read_annotations,
                           read_checkpoint, read_detections, read_features,
                           write_annotations, write_checkpoint,
                           write_detections, write_features)
from taldet.heads import (GroundTruthSegment, HeadOutput, focal_values,
                          giou_values)
from taldet.metrics import evaluate
from taldet.model import (ModelConfig, SubjectPriorDetector, VideoSample,
                          prepare_sample)
from taldet.postprocess import ActionSegment, decode, soft_nms, temporal_iou
from taldet.subjects import SubjectBox
from taldet.temporal_pyramid import PyramidBuilder
from taldet.training import TrainConfig, fit


def report(capfd, criterion: int, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    # write outside pytest's capture so the verdict always reaches the run log
    with capfd.disabled():
        print(line, flush=True)
    assert passed, line


def test_criterion_1_gradient_suite(capfd):
    t0 = time.time()
    prims = primitive_grad_checks(probes=5)
    worst_prim = max(prims.values())
    e2e = end_to_end_grad_check(seed=0)
    elapsed = time.time() - t0
    ok = worst_prim < 1e-6 and e2e < 1e-4 and elapsed < 300
    report(capfd, 1, ok, f"primitive max rel err {worst_prim:.2e} (<1e-6), "
                  f"end-to-end {e2e:.2e} (<1e-4), {elapsed:.1f}s (<300s)")


def test_criterion_2_group_aggregation_invariants(capfd):
    D, K, T = 16, 5, 3
    model = SubjectPriorDetector(
        ModelConfig(feature_dim=D, num_classes=2, K=K, group_heads=4,
                    group_layers=2),
        np.random.default_rng(0))
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(T, 4, 4, D))
    # K boxes of distinct areas fill every slot; three leave two slots empty
    boxes = [SubjectBox(0, 0, 12 + 8 * k, 10 + 9 * k, 0.9) for k in range(K)]
    full = prepare_sample(AnnotationRecord("full", 16.0, 64, 64, 4, [],
                                           [boxes] * T), feats, K)
    part = prepare_sample(AnnotationRecord("part", 16.0, 64, 64, 4, [],
                                           [boxes[:3]] * T), feats, K)

    def run(sample, tokens, valid):
        return model.snippet_representation([VideoSample(
            sample.record, Tensor(tokens), valid)]).data

    base = run(full, full.tokens.data, full.valid)
    perm_drift = 0.0
    for _ in range(50):
        # the K subject slots in a new order, the group slot last
        p = np.append(rng.permutation(K), K)
        out = run(full, full.tokens.data[:, p], full.valid[:, p])
        perm_drift = max(perm_drift, np.abs(out - base).max())

    ref = run(part, part.tokens.data, part.valid)
    garbage = part.tokens.data.copy()
    garbage[~part.valid] = rng.normal(size=(T * 2, D)) * 1e6
    mask_drift = np.abs(run(part, garbage, part.valid) - ref).max()

    ok = perm_drift <= 1e-9 and mask_drift <= 1e-12
    report(capfd, 2, ok, f"permutation drift {perm_drift:.2e} (<=1e-9), "
                  f"masking drift {mask_drift:.2e} (<=1e-12)")


def test_criterion_3_pyramid_shape_law(capfd):
    D = 8
    cfg = ModelConfig(feature_dim=D, num_classes=1, temporal_heads=2,
                      window_size=9, num_standard_layers=2,
                      num_strided_layers=5, alpha=2)
    builder = PyramidBuilder(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)

    def level_lengths(T):
        want = [T]   # each strided layer: T_{l+1} = ceil(T_l / alpha)
        for _ in range(cfg.num_strided_layers):
            want.append(-(-want[-1] // 2))
        return want

    mismatches = 0
    for T in range(1, 129):
        # alone, and in a batch with a video of 129 - T snippets: the runs
        # go level after level, video after video
        for lengths in ([T], [T, 129 - T]):
            pyr = builder(Tensor(rng.normal(size=(sum(lengths), D))), lengths)
            want = np.array([level_lengths(n) for n in lengths]).T.ravel()
            if (list(pyr.lengths) != list(want)
                    or pyr.features.shape[0] != want.sum()):
                mismatches += 1

    flat_cfg = ModelConfig(feature_dim=D, num_classes=1, temporal_heads=2,
                           window_size=9, num_standard_layers=2,
                           num_strided_layers=5, alpha=1)
    flat = PyramidBuilder(flat_cfg, np.random.default_rng(2))
    pyr = flat(Tensor(rng.normal(size=(40, D))), [40])
    flat_ok = list(pyr.lengths) == [40] * 6

    ok = mismatches == 0 and flat_ok
    report(capfd, 3, ok, f"ceil-recurrence exact for T in [1,128], alone "
                  f"and packed with 129 - T "
                  f"({mismatches} mismatches), alpha=1 constant lengths: "
                  f"{flat_ok}")


def _brute_force_soft_nms(segs, sigma, min_score):
    pool = [[s.score, s] for s in segs]
    kept = []
    while pool:
        pool.sort(key=lambda e: (-e[0], e[1].start, e[1].class_id))
        score, seg = pool.pop(0)
        if score < min_score:
            continue
        kept.append(ActionSegment(seg.class_id, score, seg.start, seg.end))
        nxt = []
        for s, other in pool:
            if other.class_id == seg.class_id:
                ov = temporal_iou(seg.start, seg.end, other.start, other.end)
                s *= math.exp(-(ov * ov) / sigma)
            if s >= min_score:
                nxt.append([s, other])
        pool = nxt
    return kept


def test_criterion_4_oracle_equivalence(capfd):
    rng = np.random.default_rng(0)
    nms_worst = 0.0
    nms_ok = True
    for _ in range(1000):
        segs = []
        for _ in range(int(rng.integers(0, 21))):
            a = rng.uniform(0, 10)
            segs.append(ActionSegment(int(rng.integers(3)),
                                      float(rng.uniform(0.01, 1.0)),
                                      a, a + rng.uniform(0.1, 5.0)))
        got = soft_nms(segs, sigma=0.5, min_score=0.01)
        ref = _brute_force_soft_nms(segs, 0.5, 0.01)
        if len(got) != len(ref):
            nms_ok = False
            break
        for g, r in zip(got, ref):
            if (g.class_id, g.start, g.end) != (r.class_id, r.start, r.end):
                nms_ok = False
            nms_worst = max(nms_worst, abs(g.score - r.score))
    nms_ok = nms_ok and nms_worst <= 1e-9

    def det(score, start, end):
        return ActionSegment(0, score, start, end)

    def ap(dets, spans):
        # one video, one class, at tIoU 0.5
        gts = [GroundTruthSegment(0, s, e) for s, e in spans]
        return evaluate({"v": dets}, {"v": gts}, [0.5]).per_threshold_map[0.5]

    ap_fixtures = [
        (ap([det(0.9, 0.0, 1.0)], [(0.0, 1.0)]), 1.0),
        (ap([det(0.9, 5.0, 6.0)], [(0.0, 1.0)]), 0.0),
        (ap([det(0.9, 5.0, 6.0), det(0.8, 0.0, 1.0)], [(0.0, 1.0)]), 0.5),
        (ap([det(0.9, 0.0, 1.0)], [(0.0, 1.0), (5.0, 6.0)]), 51.0 / 101.0),
        (ap([det(0.9, 0.0, 1.0), det(0.8, 5.0, 6.0), det(0.7, 10.0, 11.0)],
            [(0.0, 1.0), (10.0, 11.0)]), (51 + 50 * (2.0 / 3.0)) / 101),
    ]
    ap_ok = all(abs(got - want) < 1e-12 for got, want in ap_fixtures)

    # two levels, strides 1 and 2, on one anchor axis
    logits = rng.normal(size=(9, 2))
    offs = rng.uniform(0.0, 3.0, size=(9, 2))
    step = np.array([0, 1, 2, 3, 4, 5, 0, 1, 2])
    stride = np.array([1] * 6 + [2] * 3)
    outs = HeadOutput(Tensor(logits), Tensor(offs), step, stride,
                      np.zeros(9, dtype=int))
    record = AnnotationRecord("v", 16.0, 64, 64, 4, [], [[]] * 6)
    got = decode(outs, record, score_threshold=0.3)
    expected = []
    for a in range(9):
        t, unit = step[a], stride[a] * 4 / 16.0
        start = max((t - offs[a, 0]) * unit, 0.0)
        end = min((t + offs[a, 1]) * unit, record.duration)
        if not start < end:
            continue
        for c in range(2):
            s = 1.0 / (1.0 + math.exp(-logits[a, c]))
            if s > 0.3:
                expected.append(ActionSegment(c, s, start, end))
    expected.sort(key=lambda a: (-a.score, a.start, a.class_id))
    dec_ok = len(got) == len(expected) and all(
        g.class_id == e.class_id and abs(g.score - e.score) < 1e-12
        and abs(g.start - e.start) < 1e-12 and abs(g.end - e.end) < 1e-12
        for g, e in zip(got, expected))

    ok = nms_ok and ap_ok and dec_ok
    report(capfd, 4, ok, f"soft-NMS vs brute force max dev {nms_worst:.2e} over 1000 "
                  f"inputs (<=1e-9), {len(ap_fixtures)} AP fixtures exact: "
                  f"{ap_ok}, decode vs enumeration: {dec_ok}")


def test_criterion_5_loss_sanity(capfd):
    rng = np.random.default_rng(0)
    pred = rng.uniform(0, 10, size=(100_000, 2))
    tgt = rng.uniform(0, 10, size=(100_000, 2))
    vals = giou_values(pred, tgt)
    in_bounds = bool((vals >= -1e-12).all() and (vals <= 2.0 + 1e-12).all())
    exact = np.all(pred == tgt, axis=-1)
    zero_iff = bool(np.array_equal(vals == 0.0, exact))
    # an exact pair must map to exactly zero
    self_vals = giou_values(pred[:100], pred[:100])
    zero_iff = zero_iff and bool((self_vals == 0.0).all())

    focal = focal_values(np.zeros((1, 1)), np.array([[True]])).item()
    focal_dev = abs(float(focal) - 0.25 * 0.25 * math.log(2.0))

    ok = in_bounds and zero_iff and focal_dev < 1e-9
    report(capfd, 5, ok, f"GIoU in [0,2] on 1e5 pairs: {in_bounds}, zero iff exact: "
                  f"{zero_iff}, focal zero-logit dev {focal_dev:.2e} (<1e-9)")


def _train_and_score(tmp_path, group_layers: int) -> float:
    """mAP@0.5 after 150 epochs; with group_layers = 0 each snippet's group
    token is its global average, the global-pooling ablation."""
    spec = SyntheticSpec(seed=7)
    data = tmp_path / f"data_{group_layers}"
    records = generate_synthetic(spec, data)
    cfg = ModelConfig(feature_dim=spec.feature_dim, num_classes=2, K=3,
                      group_layers=group_layers, group_heads=4,
                      temporal_heads=4, num_standard_layers=2,
                      num_strided_layers=3)
    samples = [prepare_sample(r, read_features(data / "features"
                                               / f"{r.id}.ptfv"), cfg.K)
               for r in records]
    model = SubjectPriorDetector(cfg, np.random.default_rng(0))
    tc = TrainConfig(lr_init=1e-3, epochs=150, warmup_epochs=5, batch_size=2,
                     seed=0)
    fit(model, samples, tc)
    dets = {}
    for sample in samples:
        cands = decode(model(sample), sample.record, score_threshold=0.1,
                       pre_nms_topk=200)
        dets[sample.record.id] = soft_nms(cands)[:100]
    gts = {r.id: r.segments for r in records}
    return evaluate(dets, gts, [0.5]).per_threshold_map[0.5]


def test_criterion_6_synthetic_overfit(capfd, tmp_path):
    t0 = time.time()
    map_tokens = _train_and_score(tmp_path, group_layers=2)
    map_global = _train_and_score(tmp_path, group_layers=0)
    elapsed = time.time() - t0
    ok = map_tokens >= 0.9 and map_global < map_tokens and elapsed < 1800
    report(capfd, 6, ok, f"subject-token mAP@0.5 {map_tokens:.3f} (>=0.9) vs "
                  f"global-average {map_global:.3f} (strictly lower), "
                  f"150 epochs each, {elapsed:.0f}s (<1800s)")


def test_criterion_7_determinism(capfd, tmp_path):
    spec = SyntheticSpec(seed=5, num_videos=3, snippets_min=8, snippets_max=10)
    checkpoints, logs = [], []
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}"
        records = generate_synthetic(spec, data)
        cfg = ModelConfig(feature_dim=spec.feature_dim, num_classes=2, K=2,
                          group_layers=1, group_heads=2, temporal_heads=2,
                          window_size=3, num_standard_layers=1,
                          num_strided_layers=2, head_layers=1)
        samples = [prepare_sample(r, read_features(data / "features"
                                                   / f"{r.id}.ptfv"), cfg.K)
                   for r in records]
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        tc = TrainConfig(lr_init=1e-3, epochs=5, warmup_epochs=1,
                         batch_size=2, seed=11)
        fit(model, samples, tc, out_dir=tmp_path / f"out_{run}")
        checkpoints.append((tmp_path / f"out_{run}" / "checkpoint.ptck").read_bytes())
        logs.append((tmp_path / f"out_{run}" / "loss_log.jsonl").read_bytes())
    ok = checkpoints[0] == checkpoints[1] and logs[0] == logs[1]
    report(capfd, 7, ok, f"identical seed -> checkpoint bytes equal: "
                  f"{checkpoints[0] == checkpoints[1]}, loss log bytes equal: "
                  f"{logs[0] == logs[1]}")


def test_criterion_8_format_round_trips(capfd, tmp_path):
    rng = np.random.default_rng(0)
    checks = []

    # features, including a 1-snippet video
    for shape in [(5, 4, 4, 6), (1, 4, 4, 6)]:
        arr = rng.normal(size=shape).astype(np.float32)
        p = tmp_path / f"f{shape[0]}.ptfv"
        write_features(p, arr)
        q = tmp_path / f"f{shape[0]}_again.ptfv"
        write_features(q, read_features(p))
        checks.append(p.read_bytes() == q.read_bytes())

    # annotations, including the 1-snippet video
    from taldet.dataio import AnnotationRecord
    recs = [
        AnnotationRecord("long", 16.0, 64, 64, 4,
                         [GroundTruthSegment(0, 0.1, 1.0)],
                         [[SubjectBox(0, 0, 16, 16, 0.9)] for _ in range(5)]),
        AnnotationRecord("one_snippet", 16.0, 64, 64, 4,
                         [GroundTruthSegment(1, 0.0, 0.25)],
                         [[SubjectBox(8, 8, 24, 24, 0.7)]]),
    ]
    a1, a2 = tmp_path / "ann1.jsonl", tmp_path / "ann2.jsonl"
    write_annotations(a1, recs)
    write_annotations(a2, read_annotations(a1))
    checks.append(a1.read_bytes() == a2.read_bytes())

    # detections, including a 0-detection video
    dets = {"v0": [ActionSegment(0, 0.9, 0.0, 1.0)], "empty": []}
    d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    write_detections(d1, dets)
    write_detections(d2, read_detections(d1))
    checks.append(d1.read_bytes() == d2.read_bytes())

    # checkpoints
    arrays = [("w", rng.normal(size=(3, 4)).astype(np.float32)),
              ("ema/w", rng.normal(size=(3, 4)).astype(np.float32))]
    c1, c2 = tmp_path / "c1.ptck", tmp_path / "c2.ptck"
    write_checkpoint(c1, arrays)
    write_checkpoint(c2, read_checkpoint(c1))
    checks.append(c1.read_bytes() == c2.read_bytes())

    ok = all(checks)
    report(capfd, 8, ok, f"{len(checks)} write->read->write byte comparisons exact "
                  f"(features incl. 1-snippet, annotations, detections incl. "
                  f"0-detection, checkpoints)")
