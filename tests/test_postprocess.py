import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taldet.autograd import Tensor
from taldet.heads import HeadOutput
from taldet.postprocess import (ActionSegment, decode, soft_nms, temporal_iou)
from taldet.subjects import AnnotationRecord


def video(num_snippets=8, fps=16.0, stride=4):
    return AnnotationRecord("v", fps, 64, 64, stride, [], [[]] * num_snippets)


def logit(p):
    return math.log(p / (1.0 - p))


def head_output(levels, strides=(1,)):
    """levels: list of (logits [T,C], offsets [T,2]) numpy pairs, one per
    stride."""
    lengths = [len(lg) for lg, _ in levels]
    return HeadOutput(
        class_logits=Tensor(np.concatenate([lg for lg, _ in levels])),
        offsets=Tensor(np.concatenate([of for _, of in levels])),
        step=np.concatenate([np.arange(T) for T in lengths]),
        stride=np.repeat(strides, lengths),
        video=np.zeros(sum(lengths), dtype=int))


class TestActionSegment:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            ActionSegment(0, 0.5, 2.0, 1.0)

    def test_rejects_score_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ActionSegment(0, 1.5, 0.0, 1.0)


class TestDecode:
    def test_single_confident_step(self):
        # one level, T=4, one class; only t=2 clears the threshold
        lg = np.full((4, 1), logit(0.001))
        lg[2, 0] = logit(0.9)
        offs = np.zeros((4, 2))
        offs[2] = [1.0, 1.0]
        segs = decode(head_output([(lg, offs)]), video(),
                      score_threshold=0.5)
        # unit = stride * snippet_stride / fps = 0.25s
        assert len(segs) == 1
        s = segs[0]
        assert (s.class_id, s.start, s.end) == (0, 0.25, 0.75)
        np.testing.assert_allclose(s.score, 0.9, atol=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(0)
        m = video(num_snippets=8)
        strides = [1, 2]
        levels = []
        for T in (8, 4):
            levels.append((rng.normal(size=(T, 3)),
                           rng.uniform(0.0, 3.0, size=(T, 2))))
        out = decode(head_output(levels, strides), m, score_threshold=0.3,
                     pre_nms_topk=1000)
        expected = []
        for (lg, offs), stride in zip(levels, strides):
            unit = stride * m.snippet_stride / m.fps
            for t in range(lg.shape[0]):
                start = max((t - offs[t, 0]) * unit, 0.0)
                end = min((t + offs[t, 1]) * unit, m.duration)
                if not start < end:
                    continue
                for c in range(3):
                    s = 1.0 / (1.0 + math.exp(-lg[t, c]))
                    if s > 0.3:
                        expected.append(ActionSegment(c, s, start, end))
        expected.sort(key=lambda a: (-a.score, a.start, a.class_id))
        assert len(out) == len(expected)
        for a, b in zip(out, expected):
            assert a.class_id == b.class_id
            np.testing.assert_allclose(
                [a.score, a.start, a.end], [b.score, b.start, b.end],
                atol=1e-12)

    def test_clamped_to_video_extent(self):
        lg = np.full((2, 1), logit(0.9))
        offs = np.full((2, 2), 100.0)
        segs = decode(head_output([(lg, offs)]), video(num_snippets=4),
                      score_threshold=0.5)
        d = video(num_snippets=4).duration
        for s in segs:
            assert s.start == 0.0 and s.end == d

    def test_no_end_beyond_the_record_duration(self):
        # at fps 10, stride 4 and T 3, T * (stride / fps) is
        # 1.2000000000000002 but T * stride / fps is 1.2: decode's clamp and
        # the record's extent must be one number
        for fps in (10.0, 12.5, 15.0, 25.0, 29.97, 30.0):
            for stride in (1, 3, 4, 5, 8, 16):
                for T in (1, 2, 3, 7, 10, 33):
                    record = video(num_snippets=T, fps=fps, stride=stride)
                    lg = np.full((T, 1), logit(0.9))
                    segs = decode(head_output([(lg, np.full((T, 2), 100.0))]),
                                  record, score_threshold=0.5)
                    assert segs and all(s.end <= record.duration
                                        for s in segs), (fps, stride, T)

    def test_topk_truncates_by_score(self):
        lg = np.array([[logit(0.6)], [logit(0.9)], [logit(0.7)]])
        offs = np.ones((3, 2))
        segs = decode(head_output([(lg, offs)]), video(),
                      score_threshold=0.5, pre_nms_topk=2)
        assert [round(s.score, 6) for s in segs] == [0.9, 0.7]

    def test_ties_earlier_start_then_lower_class_then_anchor(self):
        # equal scores everywhere; anchors 0 and 1 start at 0, anchor 2 later
        lg = np.full((3, 2), logit(0.9))
        offs = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        segs = decode(head_output([(lg, offs)]), video(), score_threshold=0.5)
        assert [(s.class_id, s.start, s.end) for s in segs] == [
            (0, 0.0, 0.25), (0, 0.0, 0.5), (1, 0.0, 0.25), (1, 0.0, 0.5),
            (0, 0.25, 0.75), (1, 0.25, 0.75)]

    def test_degenerate_zero_length_skipped(self):
        # offsets 0 at t=0 give start == end == 0 -> no candidate
        lg = np.array([[logit(0.9)]])
        segs = decode(head_output([(lg, np.zeros((1, 2)))]), video(),
                      score_threshold=0.5)
        assert segs == []


class TestTemporalIou:
    def test_identical(self):
        assert temporal_iou(1.0, 3.0, 1.0, 3.0) == 1.0

    def test_disjoint(self):
        assert temporal_iou(0.0, 1.0, 2.0, 3.0) == 0.0

    def test_half(self):
        np.testing.assert_allclose(temporal_iou(0.0, 2.0, 1.0, 3.0), 1.0 / 3.0)

    def test_half_contained(self):
        np.testing.assert_allclose(temporal_iou(0.0, 4.0, 0.0, 2.0), 0.5)

    def test_touching_is_zero(self):
        assert temporal_iou(0.0, 1.0, 1.0, 2.0) == 0.0


def brute_force_soft_nms(segs, sigma, min_score):
    """Independent reference: list-based, recompute decay fully each round."""
    pool = [[s.score, s] for s in segs]
    kept = []
    while pool:
        pool.sort(key=lambda e: (-e[0], e[1].start, e[1].class_id))
        score, seg = pool.pop(0)
        if score < min_score:
            continue
        kept.append(ActionSegment(seg.class_id, score, seg.start, seg.end))
        nxt = []
        for e in pool:
            s, other = e
            if other.class_id == seg.class_id:
                ov = temporal_iou(seg.start, seg.end, other.start, other.end)
                s *= math.exp(-(ov * ov) / sigma)
            if s >= min_score:
                nxt.append([s, other])
        pool = nxt
    return kept


def random_segments(rng, n, num_classes=3):
    out = []
    for _ in range(n):
        a = rng.uniform(0, 10)
        out.append(ActionSegment(int(rng.integers(num_classes)),
                                 float(rng.uniform(0.01, 1.0)),
                                 a, a + rng.uniform(0.1, 5.0)))
    return out


def tie_heavy_segments(rng):
    """Up to ~300 segments in 3 classes with scores on a 0.05 grid, starts
    and lengths on a 0.5 s grid and some exact duplicates: equal scores,
    equal starts and equal decays are common."""
    out = []
    for _ in range(int(rng.integers(0, 271))):
        a = float(rng.integers(0, 40)) * 0.5
        out.append(ActionSegment(int(rng.integers(3)),
                                 float(rng.integers(1, 21)) * 0.05,
                                 a, a + float(rng.integers(1, 9)) * 0.5))
    if out:
        out += [out[i] for i in rng.integers(0, len(out), len(out) // 10)]
    return out


class TestSoftNms:
    def test_empty(self):
        assert soft_nms([]) == []

    def test_single_segment_passthrough(self):
        s = ActionSegment(0, 0.8, 1.0, 2.0)
        assert soft_nms([s]) == [s]

    def test_identical_pair_decay_hand_value(self):
        a = ActionSegment(0, 0.9, 0.0, 1.0)
        b = ActionSegment(0, 0.8, 0.0, 1.0)
        out = soft_nms([a, b], sigma=0.5, min_score=0.001)
        assert out[0] == a
        np.testing.assert_allclose(out[1].score, 0.8 * math.exp(-1.0 / 0.5),
                                   atol=1e-12)

    def test_different_classes_untouched(self):
        a = ActionSegment(0, 0.9, 0.0, 1.0)
        b = ActionSegment(1, 0.8, 0.0, 1.0)
        out = soft_nms([a, b])
        assert out == [a, b]

    def test_scores_never_increase_boundaries_fixed(self):
        rng = np.random.default_rng(1)
        segs = random_segments(rng, 15)
        out = soft_nms(segs, sigma=0.4, min_score=0.05)
        originals = {(s.class_id, s.start, s.end): s.score for s in segs}
        for s in out:
            assert s.score <= originals[(s.class_id, s.start, s.end)] + 1e-15

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            soft_nms([], sigma=0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        segs = random_segments(rng, int(rng.integers(0, 21)))
        got = soft_nms(segs, sigma=0.5, min_score=0.01)
        ref = brute_force_soft_nms(segs, 0.5, 0.01)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert (a.class_id, a.start, a.end) == (b.class_id, b.start, b.end)
            np.testing.assert_allclose(a.score, b.score, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_ties(self, seed):
        rng = np.random.default_rng(seed)
        segs = tie_heavy_segments(rng)
        got = soft_nms(segs, sigma=0.5, min_score=0.01)
        ref = brute_force_soft_nms(segs, 0.5, 0.01)
        assert [(a.class_id, a.start, a.end) for a in got] == \
            [(b.class_id, b.start, b.end) for b in ref]
        np.testing.assert_allclose([a.score for a in got],
                                   [b.score for b in ref], atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_keep_equals_the_head_of_the_full_run(self, seed):
        # the lazy merge stops after `keep` picks; the picks before that
        # are the exhaustive run's, bit for bit, ties included
        rng = np.random.default_rng(seed)
        segs = tie_heavy_segments(rng)
        full = soft_nms(segs, sigma=0.5, min_score=0.01)
        for keep in (0, 1, 7, 200, len(full), len(full) + 5):
            assert soft_nms(segs, sigma=0.5, min_score=0.01,
                            keep=keep) == full[:keep]

    def test_full_tie_keeps_input_order(self):
        # equal score, start and class: the earlier input is picked first
        a = ActionSegment(0, 0.5, 0.0, 1.0)
        b = ActionSegment(0, 0.5, 0.0, 3.0)
        assert [s.end for s in soft_nms([a, b])] == [1.0, 3.0]
        assert [s.end for s in soft_nms([b, a])] == [3.0, 1.0]

    def test_scores_equal_the_scalar_definition_bit_for_bit(self):
        # decays use math.exp, as the definition does: np.exp can differ in
        # the last bit, and that reorders exact ties between decayed scores
        rng = np.random.default_rng(3)
        for _ in range(20):
            segs = random_segments(rng, 60)
            got = soft_nms(segs, sigma=0.5, min_score=0.001)
            ref = brute_force_soft_nms(segs, 0.5, 0.001)
            assert [(a.class_id, a.start, a.end, a.score) for a in got] == \
                [(b.class_id, b.start, b.end, b.score) for b in ref]
