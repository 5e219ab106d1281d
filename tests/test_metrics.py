import numpy as np

from taldet.heads import GroundTruthSegment
from taldet.metrics import (ANET_GRID, THUMOS_GRID, average_precision,
                            evaluate)
from taldet.postprocess import ActionSegment, temporal_iou


def det(score, start, end, cls=0):
    return ActionSegment(cls, score, start, end)


class TestTiou:
    def test_identical(self):
        # Metrics match detections through postprocess.temporal_iou; an
        # identical interval is a full overlap and matches even at tIoU 1.0.
        assert temporal_iou(0.0, 2.0, 0.0, 2.0) == 1.0
        assert average_precision([det(0.9, 0.0, 2.0)], [(0.0, 2.0)], 1.0) == 1.0


class TestAveragePrecisionFixtures:
    """Hand-computed 101-point interpolated AP values."""

    def test_perfect_single_detection(self):
        ap = average_precision([det(0.9, 0.0, 1.0)], [(0.0, 1.0)], 0.5)
        assert ap == 1.0

    def test_single_miss(self):
        ap = average_precision([det(0.9, 5.0, 6.0)], [(0.0, 1.0)], 0.5)
        assert ap == 0.0

    def test_false_then_true(self):
        # precision profile [0, 1/2], recall [0, 1] -> every point reads 1/2
        dets = [det(0.9, 5.0, 6.0), det(0.8, 0.0, 1.0)]
        ap = average_precision(dets, [(0.0, 1.0)], 0.5)
        np.testing.assert_allclose(ap, 0.5, atol=1e-12)

    def test_tp_fp_tp_two_gts(self):
        # precision [1, 1/2, 2/3], recall [1/2, 1/2, 1]
        # 51 recall points <= 0.5 interpolate to 1, the remaining 50 to 2/3
        dets = [det(0.9, 0.0, 1.0), det(0.8, 5.0, 6.0), det(0.7, 10.0, 11.0)]
        gts = [(0.0, 1.0), (10.0, 11.0)]
        ap = average_precision(dets, gts, 0.5)
        np.testing.assert_allclose(ap, (51 + 50 * (2.0 / 3.0)) / 101,
                                   atol=1e-12)

    def test_half_recall(self):
        # one matching det for two gts: 51 of 101 points at precision 1
        ap = average_precision([det(0.9, 0.0, 1.0)],
                               [(0.0, 1.0), (5.0, 6.0)], 0.5)
        np.testing.assert_allclose(ap, 51.0 / 101.0, atol=1e-12)

    def test_duplicate_after_full_recall_free(self):
        # second det on the same gt is a FP, but recall is already 1 at
        # precision 1, so interpolation ignores it
        dets = [det(0.9, 0.0, 1.0), det(0.8, 0.0, 1.0)]
        ap = average_precision(dets, [(0.0, 1.0)], 0.5)
        assert ap == 1.0

    def test_no_ground_truth_is_zero(self):
        assert average_precision([det(0.9, 0.0, 1.0)], [], 0.5) == 0.0

    def test_no_detections_is_zero(self):
        assert average_precision([], [(0.0, 1.0)], 0.5) == 0.0


class TestMatchingRules:
    def test_greedy_prefers_highest_tiou(self):
        # det overlaps both gts above threshold; must consume the closer one,
        # leaving the other for the weaker det
        d1 = det(0.9, 0.0, 1.0)       # tIoU 1.0 with gt0, 0.5 with gt1 region
        d2 = det(0.8, 0.0, 2.0)       # only gt1 remains
        gts = [(0.0, 1.0), (0.0, 2.0)]
        ap = average_precision([d1, d2], gts, 0.4)
        assert ap == 1.0

    def test_each_gt_matched_once(self):
        dets = [det(0.9, 0.0, 1.0), det(0.8, 0.05, 1.05)]
        ap = average_precision(dets, [(0.0, 1.0)], 0.5)
        assert ap == 1.0  # duplicate becomes FP after full recall

    def test_threshold_boundary_inclusive(self):
        # tIoU exactly 0.5 counts as a match
        ap = average_precision([det(0.9, 0.0, 2.0)], [(0.0, 1.0)], 0.5)
        assert ap == 1.0


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
        # count: timelines are offset to be disjoint
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
        assert ANET_GRID[0] == 0.5 and ANET_GRID[-1] == 0.95
        assert len(ANET_GRID) == 10
