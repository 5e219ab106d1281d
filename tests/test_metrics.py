import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taldet.heads import GroundTruthSegment
from taldet.metrics import THUMOS_GRID, evaluate
from taldet.postprocess import ActionSegment, temporal_iou


def det(score, start, end, cls=0):
    return ActionSegment(cls, score, start, end)


def one_video_ap(dets, spans, thr):
    """AP of class-0 `dets` against the ground-truth `spans` of one video,
    through evaluate()."""
    gts = [GroundTruthSegment(0, s, e) for s, e in spans]
    return evaluate({"v": dets}, {"v": gts}, [thr]).per_threshold_map[thr]


def loop_tiou(a_start, a_end, b_start, b_end):
    inter = max(0.0, min(a_end, b_end) - max(a_start, b_start))
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / union if union > 0 else 0.0


def loop_average_precision(dets, gts, thr):
    """Slow reference: greedy matching by nested loops, 101 masked maxima."""
    if not gts:
        return 0.0
    order = sorted(range(len(dets)),
                   key=lambda i: (-dets[i].score, dets[i].start))
    matched = [False] * len(gts)
    tp = np.zeros(len(dets))
    for rank, i in enumerate(order):
        d = dets[i]
        best, best_ov = -1, thr
        for j, g in enumerate(gts):
            if matched[j]:
                continue
            ov = loop_tiou(d.start, d.end, g[0], g[1])
            if ov >= best_ov:
                best, best_ov = j, ov
        if best >= 0:
            matched[best] = True
            tp[rank] = 1.0
    if len(dets) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / (np.arange(len(dets)) + 1)
    recall = cum_tp / len(gts)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


def loop_evaluate(dets_by_video, gts_by_video, thresholds):
    """Slow reference: per-class AP over all videos shifted onto one
    timeline, each video one second past the previous one's last end."""
    offset = 0.0
    class_dets, class_gts = {}, {}
    for vid in sorted(set(gts_by_video) | set(dets_by_video)):
        span = 0.0
        for g in gts_by_video.get(vid, []):
            class_gts.setdefault(g.class_id, []).append(
                (g.start + offset, g.end + offset))
            span = max(span, g.end)
        for d in dets_by_video.get(vid, []):
            class_dets.setdefault(d.class_id, []).append(
                ActionSegment(d.class_id, d.score,
                              d.start + offset, d.end + offset))
            span = max(span, d.end)
        offset += span + 1.0
    return {(c, thr): loop_average_precision(class_dets.get(c, []),
                                             class_gts[c], thr)
            for thr in thresholds for c in sorted(class_gts)}


def integer_grid_eval_set(rng):
    """Up to 5 videos, 3 classes, integer times (the reference's shifting
    is then exact), scores on a 0.1 grid and duplicated segments, so that
    scores and overlaps tie often."""
    gts, dets = {}, {}
    for v in range(int(rng.integers(1, 6))):
        vid = f"v{v}"
        if rng.random() < 0.8:
            gts[vid] = [GroundTruthSegment(int(rng.integers(3)), float(a),
                                           float(a + rng.integers(1, 6)))
                        for a in rng.integers(0, 15, int(rng.integers(0, 6)))]
        if rng.random() < 0.8:
            segs = [det(float(rng.integers(1, 10)) / 10, float(a),
                        float(a + rng.integers(1, 6)), int(rng.integers(3)))
                    for a in rng.integers(0, 15, int(rng.integers(0, 25)))]
            dets[vid] = segs + [segs[i] for i in
                                rng.integers(0, len(segs), len(segs) // 4)]
    return dets, gts


class TestTiou:
    def test_identical(self):
        # Metrics match detections through postprocess.temporal_iou; an
        # identical interval is a full overlap and matches even at tIoU 1.0.
        assert temporal_iou(0.0, 2.0, 0.0, 2.0) == 1.0
        assert one_video_ap([det(0.9, 0.0, 2.0)], [(0.0, 2.0)], 1.0) == 1.0


class TestAveragePrecisionFixtures:
    """Hand-computed 101-point interpolated AP values."""

    def test_perfect_single_detection(self):
        ap = one_video_ap([det(0.9, 0.0, 1.0)], [(0.0, 1.0)], 0.5)
        assert ap == 1.0

    def test_single_miss(self):
        ap = one_video_ap([det(0.9, 5.0, 6.0)], [(0.0, 1.0)], 0.5)
        assert ap == 0.0

    def test_false_then_true(self):
        # precision profile [0, 1/2], recall [0, 1] -> every point reads 1/2
        dets = [det(0.9, 5.0, 6.0), det(0.8, 0.0, 1.0)]
        ap = one_video_ap(dets, [(0.0, 1.0)], 0.5)
        np.testing.assert_allclose(ap, 0.5, atol=1e-12)

    def test_tp_fp_tp_two_gts(self):
        # precision [1, 1/2, 2/3], recall [1/2, 1/2, 1]
        # 51 recall points <= 0.5 interpolate to 1, the remaining 50 to 2/3
        dets = [det(0.9, 0.0, 1.0), det(0.8, 5.0, 6.0), det(0.7, 10.0, 11.0)]
        gts = [(0.0, 1.0), (10.0, 11.0)]
        ap = one_video_ap(dets, gts, 0.5)
        np.testing.assert_allclose(ap, (51 + 50 * (2.0 / 3.0)) / 101,
                                   atol=1e-12)

    def test_half_recall(self):
        # one matching det for two gts: 51 of 101 points at precision 1
        ap = one_video_ap([det(0.9, 0.0, 1.0)], [(0.0, 1.0), (5.0, 6.0)],
                          0.5)
        np.testing.assert_allclose(ap, 51.0 / 101.0, atol=1e-12)

    def test_duplicate_after_full_recall_free(self):
        # second det on the same gt is a FP, but recall is already 1 at
        # precision 1, so interpolation ignores it
        dets = [det(0.9, 0.0, 1.0), det(0.8, 0.0, 1.0)]
        ap = one_video_ap(dets, [(0.0, 1.0)], 0.5)
        assert ap == 1.0

    def test_no_ground_truth_is_zero(self):
        assert one_video_ap([det(0.9, 0.0, 1.0)], [], 0.5) == 0.0

    def test_no_detections_is_zero(self):
        assert one_video_ap([], [(0.0, 1.0)], 0.5) == 0.0


class TestMatchingRules:
    def test_greedy_prefers_highest_tiou(self):
        # det overlaps both gts above threshold; must consume the closer one,
        # leaving the other for the weaker det
        d1 = det(0.9, 0.0, 1.0)       # tIoU 1.0 with gt0, 0.5 with gt1 region
        d2 = det(0.8, 0.0, 2.0)       # only gt1 remains
        gts = [(0.0, 1.0), (0.0, 2.0)]
        ap = one_video_ap([d1, d2], gts, 0.4)
        assert ap == 1.0

    def test_each_gt_matched_once(self):
        dets = [det(0.9, 0.0, 1.0), det(0.8, 0.05, 1.05)]
        ap = one_video_ap(dets, [(0.0, 1.0)], 0.5)
        assert ap == 1.0  # duplicate becomes FP after full recall

    def test_threshold_boundary_inclusive(self):
        # tIoU exactly 0.5 counts as a match
        ap = one_video_ap([det(0.9, 0.0, 2.0)], [(0.0, 1.0)], 0.5)
        assert ap == 1.0

    def test_equal_overlap_takes_the_last_ground_truth(self):
        # the first det overlaps both gts by 1/3 and takes the later-listed
        # one; the second det only overlaps (0, 2), so it matches only when
        # that gt is listed first
        dets = [det(0.9, 1.0, 3.0), det(0.8, 0.0, 1.0)]
        gts = [(0.0, 2.0), (2.0, 4.0)]
        assert one_video_ap(dets, gts, 0.3) == 1.0
        assert one_video_ap(dets, gts[::-1], 0.3) == 51.0 / 101.0


class TestEvaluate:
    def gts(self, *segs):
        return [GroundTruthSegment(c, s, e) for c, s, e in segs]

    def test_perfect_detection_report(self):
        gts = {"v": self.gts((0, 1.0, 2.0), (1, 3.0, 4.0))}
        dets = {"v": [det(0.9, 1.0, 2.0, 0), det(0.9, 3.0, 4.0, 1)]}
        rep = evaluate(dets, gts, THUMOS_GRID)
        assert rep.average_map == 1.0
        assert all(v == 1.0 for v in rep.per_threshold_map.values())

    def test_map_averages_over_present_classes_only(self):
        # class 1 never appears in gt: detections for it are ignored in mAP
        gts = {"v": self.gts((0, 1.0, 2.0))}
        dets = {"v": [det(0.9, 1.0, 2.0, 0), det(0.9, 5.0, 6.0, 1)]}
        rep = evaluate(dets, gts, [0.5])
        assert rep.per_threshold_map[0.5] == 1.0

    def test_cross_video_detections_cannot_match(self):
        # det in v2 has the same coordinates as the gt in v1 but must not
        # count: matching runs within each video
        gts = {"v1": self.gts((0, 1.0, 2.0)), "v2": []}
        dets = {"v1": [], "v2": [det(0.9, 1.0, 2.0, 0)]}
        rep = evaluate(dets, gts, [0.5])
        assert rep.per_threshold_map[0.5] == 0.0

    def test_missed_class_halves_map(self):
        gts = {"v": self.gts((0, 1.0, 2.0), (1, 3.0, 4.0))}
        dets = {"v": [det(0.9, 1.0, 2.0, 0)]}
        rep = evaluate(dets, gts, [0.5])
        np.testing.assert_allclose(rep.per_threshold_map[0.5], 0.5)

    def test_average_over_threshold_grid(self):
        # overlap 2/3: passes thresholds 0.3..0.6, fails 0.7
        gts = {"v": self.gts((0, 0.0, 3.0))}
        dets = {"v": [det(0.9, 0.0, 2.0, 0)]}
        rep = evaluate(dets, gts, THUMOS_GRID)
        np.testing.assert_allclose(rep.average_map, 4.0 / 5.0)

    def test_table_formatting(self):
        rep = evaluate({"v": [det(0.9, 0.0, 1.0, 0)]},
                       {"v": self.gts((0, 0.0, 1.0))}, [0.5])
        text = rep.table()
        assert "tIoU" in text and "avg" in text and "1.0000" in text

    def test_grids(self):
        assert THUMOS_GRID == [0.3, 0.4, 0.5, 0.6, 0.7]


class TestThresholdRange:
    @pytest.mark.parametrize("thr", [0.0, -0.1, 1.0 + 1e-9, 2.0, math.nan])
    def test_outside_unit_interval_rejected(self, thr):
        # at threshold 0 a detection in video b at 50-51 s would "match" a
        # ground truth in video a at 0-1 s
        gts = {"a": [GroundTruthSegment(0, 0.0, 1.0)], "b": []}
        dets = {"b": [det(0.9, 50.0, 51.0)]}
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            evaluate(dets, gts, [0.5, thr])


class TestPerVideoMatching:
    def test_match_does_not_depend_on_where_the_video_sorts(self):
        # tIoU 0.5 (0.5000000000000011 in float64) on the video's own times;
        # shifted behind 40 videos of 3000 s it used to round below 0.5
        gts = {"z": [GroundTruthSegment(0, 60.66, 66.77)]}
        dets = {"z": [det(0.9, 60.66, 63.715)]}
        assert evaluate(dets, gts, [0.5]).per_class_ap[(0, 0.5)] == 1.0
        for i in range(40):
            gts[f"a{i:02d}"] = [GroundTruthSegment(1, 0.0, 3000.0)]
        assert evaluate(dets, gts, [0.5]).per_class_ap[(0, 0.5)] == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, seed):
        dets, gts = integer_grid_eval_set(np.random.default_rng(seed))
        thresholds = THUMOS_GRID + [1.0 / 3.0, 2.0 / 3.0, 1.0]
        rep = evaluate(dets, gts, thresholds)
        assert rep.per_class_ap == loop_evaluate(dets, gts, thresholds)
