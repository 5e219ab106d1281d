import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taldet.autograd import Parameter, Tensor, grad_check
from taldet.heads import (DetectionHeads, GroundTruthSegment, HeadOutput,
                          Targets, assign_targets, batch_targets,
                          focal_values, giou_values, total_loss)
from taldet.temporal_pyramid import FeaturePyramid

D = 8


def pyramid(levels, strides, videos=None):
    """A FeaturePyramid of one run per level array, with these strides
    (and videos, default all 0)."""
    n = len(levels)
    return FeaturePyramid(
        Tensor(np.concatenate(levels) if levels else np.zeros((0, D))),
        np.array([len(lv) for lv in levels], dtype=int),
        np.array(strides, dtype=int),
        np.zeros(n, dtype=int) if videos is None else np.array(videos))


def make_pyramid(lengths, dim=D, seed=0):
    """One video's pyramid of levels `lengths` long, strides 1, 2, 4, ..."""
    rng = np.random.default_rng(seed)
    return pyramid([rng.normal(size=(T, dim)) for T in lengths],
                   2 ** np.arange(len(lengths)))


def anchors(shapes):
    """The (step, stride) anchor arrays of levels [(T_l, stride_l), ...]."""
    step = np.concatenate([np.arange(T) for T, _ in shapes])
    stride = np.concatenate([np.full(T, s) for T, s in shapes])
    return step, stride


def graph_nodes(*roots):
    """Tensor nodes reachable from `roots` through their parents."""
    seen, stack = {id(r) for r in roots}, list(roots)
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class TestDetectionHeads:
    def test_output_shapes_and_nonnegative_offsets(self):
        heads = DetectionHeads(np.random.default_rng(0), D, num_classes=3,
                                num_layers=4)
        out = heads(make_pyramid([6, 3, 2]))
        assert out.class_logits.shape == (11, 3)
        assert out.offsets.shape == (11, 2)
        assert (out.offsets.data >= 0.0).all()
        step, stride = anchors([(6, 1), (3, 2), (2, 4)])
        np.testing.assert_array_equal(out.step, step)
        np.testing.assert_array_equal(out.stride, stride)
        np.testing.assert_array_equal(out.video, np.zeros(11))

    def test_runs_of_a_batch_carry_their_video(self):
        # two videos, levels interleaved: level 0 of videos 0 and 1, then
        # level 1 of both
        heads = DetectionHeads(np.random.default_rng(0), D, num_classes=2,
                                num_layers=1)
        rng = np.random.default_rng(1)
        out = heads(pyramid([rng.normal(size=(T, D)) for T in (4, 3, 2, 2)],
                            [1, 1, 2, 2], [0, 1, 0, 1]))
        step, stride = anchors([(4, 1), (3, 1), (2, 2), (2, 2)])
        np.testing.assert_array_equal(out.step, step)
        np.testing.assert_array_equal(out.stride, stride)
        np.testing.assert_array_equal(out.video, np.repeat([0, 1, 0, 1],
                                                           [4, 3, 2, 2]))
        videos = out.video_anchors
        np.testing.assert_array_equal(videos[0], [0, 1, 2, 3, 7, 8])
        np.testing.assert_array_equal(videos[1], [4, 5, 6, 9, 10])

    def test_towers_shared_across_levels(self):
        # a level of length 1 and a singleton slice of a longer level see the
        # same weights: constant input gives identical per-step outputs
        heads = DetectionHeads(np.random.default_rng(1), D, num_classes=2,
                                num_layers=4)
        const = np.ones((5, D))
        out = heads(pyramid([const, const.copy()], [1, 2]))
        np.testing.assert_array_equal(out.class_logits.data[:5],
                                      out.class_logits.data[5:])

    def test_levels_run_together_equal_each_level_alone(self):
        # a length-1 level next to longer ones: the per-level zero padding
        # must keep every window inside its own level
        heads = DetectionHeads(np.random.default_rng(3), D, num_classes=2,
                                num_layers=4)
        pyr = make_pyramid([6, 1, 3, 1], seed=4)
        out = heads(pyr)
        lo = 0
        for T, stride in zip(pyr.lengths, pyr.strides):
            hi = lo + T
            alone = heads(pyramid([pyr.features.data[lo:hi]], [stride]))
            for got, want in ((out.class_logits, alone.class_logits),
                              (out.offsets, alone.offsets)):
                assert np.abs(got.data[lo:hi] - want.data).max() <= 1e-12
            lo = hi

    def test_graph_size_independent_of_level_count(self):
        heads = DetectionHeads(np.random.default_rng(5), D, num_classes=2,
                                num_layers=4)
        counts = []
        for lengths in ([8, 4], [32, 16, 8, 4, 2, 1]):
            out = heads(make_pyramid(lengths))
            counts.append(graph_nodes(out.class_logits, out.offsets))
        assert counts[0] == counts[1]

    def test_empty_pyramid_rejected(self):
        heads = DetectionHeads(np.random.default_rng(2), D, num_classes=2,
                                num_layers=4)
        with pytest.raises(ValueError):
            heads(pyramid([], []))


class TestAssignTargets:
    # unit time per step at level stride 1: snippet_stride / fps = 4/16 = 0.25s
    UNIT = 0.25

    def test_single_segment_single_level(self):
        gts = [GroundTruthSegment(1, 0.5, 1.5)]
        tm = assign_targets(gts, *anchors([(8, 1)]), self.UNIT,
                            num_classes=3)
        lv = tm
        # steps at times 0, .25, .5, ..., 1.75; inside are t=2..6
        np.testing.assert_array_equal(lv.inside,
                                      [False, False, True, True, True, True,
                                       True, False])
        assert list(lv.class_target[2:7]) == [1] * 5
        assert list(lv.class_target[:2]) == [3, 3]
        np.testing.assert_allclose(lv.d_start[2:7], [0, 1, 2, 3, 4])
        np.testing.assert_allclose(lv.d_end[2:7], [4, 3, 2, 1, 0])

    def test_minimal_duration_wins_overlap(self):
        long = GroundTruthSegment(0, 0.0, 2.0)
        short = GroundTruthSegment(1, 0.4, 0.6)
        tm = assign_targets([long, short], *anchors([(9, 1)]), self.UNIT, 2)
        lv = tm
        assert lv.class_target[2] == 1  # t=0.5 falls in both; shorter wins
        assert lv.class_target[1] == 0
        assert lv.class_target[4] == 0

    def test_tie_earlier_start_wins(self):
        a = GroundTruthSegment(0, 0.0, 1.0)
        b = GroundTruthSegment(1, 0.25, 1.25)
        tm = assign_targets([b, a], *anchors([(6, 1)]), self.UNIT, 2)
        lv = tm
        # equal durations: segment starting earlier claims the shared steps
        assert list(lv.class_target[1:5]) == [0, 0, 0, 0]

    def test_coarser_level_scales_offsets(self):
        gts = [GroundTruthSegment(0, 0.0, 2.0)]
        tm = assign_targets(gts, *anchors([(8, 1), (4, 2)]), self.UNIT, 1)
        coarse = slice(8, 12)
        # level-1 unit is 0.5s; t=1 (0.5s) has d_start=1, d_end=3
        assert tm.inside[coarse].all()
        np.testing.assert_allclose(tm.d_start[coarse], [0, 1, 2, 3])
        np.testing.assert_allclose(tm.d_end[coarse], [4, 3, 2, 1])
        assert tm.num_positive == tm.inside[:8].sum() + 4

    def test_no_segments_all_background(self):
        tm = assign_targets([], *anchors([(5, 1)]), self.UNIT, 2)
        lv = tm
        assert not lv.inside.any()
        assert (lv.class_target == 2).all()


def one_hot(class_target, C):
    """bool [A, C] labels; a class_target of C (background) is all False."""
    return class_target[:, None] == np.arange(C)


def loss_inputs(logits, offsets=None):
    """HeadOutput of one level with stride 1 around the given arrays."""
    A = logits.shape[0]
    if offsets is None:
        offsets = Tensor(np.ones((A, 2)))
    return HeadOutput(logits, offsets, np.arange(A), np.ones(A, dtype=int),
                      np.zeros(A, dtype=int))


def fixed_targets(class_target, inside, d_start=None, d_end=None):
    A = len(class_target)
    return Targets(np.asarray(class_target), np.ones(A) if d_start is None
                   else d_start, np.ones(A) if d_end is None else d_end,
                   np.asarray(inside))


class TestFocalLoss:
    def test_zero_logit_positive_closed_form(self):
        # p = 1/2: alpha * (1-p)^2 * log 2 = 0.25 * 0.25 * log 2
        out = focal_values(np.zeros((1, 1)), np.array([[True]]))
        np.testing.assert_allclose(out, 0.25 * 0.25 * np.log(2.0),
                                   atol=1e-12)

    def test_zero_logit_background_closed_form(self):
        out = focal_values(np.zeros((1, 1)), np.array([[False]]))
        np.testing.assert_allclose(out, 0.75 * 0.25 * np.log(2.0),
                                   atol=1e-12)

    def test_confident_correct_prediction_near_zero(self):
        out = focal_values(np.full((1, 1), 20.0), np.array([[True]]))
        assert out < 1e-7

    def test_strict_positive_only_drops_background_rows(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(4, 2)))
        tgt = np.array([0, 2, 1, 2])
        inside = tgt < 2
        strict = total_loss(loss_inputs(logits), fixed_targets(tgt, inside),
                            lam=0.0, strict_positive_only=True)
        pos_rows = Tensor(logits.data[inside])
        expected = total_loss(loss_inputs(pos_rows),
                              fixed_targets(tgt[inside], [True, True]),
                              lam=0.0)
        np.testing.assert_allclose(strict.data, expected.data, atol=1e-12)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3)) * 3
        tgt = np.array([0, 3, 1, 2, 3])
        out = focal_values(x, one_hot(tgt, 3)).sum()
        p = 1.0 / (1.0 + np.exp(-x))
        y = np.zeros((5, 3))
        for t in range(5):
            if tgt[t] < 3:
                y[t, tgt[t]] = 1.0
        ref = (y * 0.25 * (1 - p) ** 2 * (-np.log(p))
               + (1 - y) * 0.75 * p ** 2 * (-np.log(1 - p))).sum()
        np.testing.assert_allclose(out, ref, rtol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Parameter(rng.normal(size=(3, 2)), "x")
        tgt = np.array([0, 2, 1])
        outs, tm = loss_inputs(x), fixed_targets(tgt, tgt < 2)
        err = grad_check(lambda: total_loss(outs, tm, lam=0.0), [x], h=1e-5)
        assert err < 1e-6


class TestGiou:
    def test_perfect_match_zero(self):
        out = giou_values(np.array([[1.5, 2.5]]), np.array([[1.5, 2.5]]))
        assert out.sum() == 0.0

    def test_disjoint_sides_value_one(self):
        # (0,4) vs (4,0): intervals share only the anchor point
        out = giou_values(np.array([[0.0, 4.0]]), np.array([[4.0, 0.0]]))
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_half_overlap(self):
        # pred [t-2, t+2], target [t-2, t+6]: inter 4, union 8, enclose 8
        out = giou_values(np.array([[2.0, 2.0]]), np.array([[2.0, 6.0]]))
        np.testing.assert_allclose(out.sum(), 0.5, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(0, 10, size=(20, 2))
        tgt = rng.uniform(0, 10, size=(20, 2))
        vals = giou_values(pred, tgt)
        assert (vals >= -1e-12).all() and (vals <= 2.0 + 1e-12).all()
        eq = np.all(np.abs(pred - tgt) < 1e-15, axis=-1)
        assert np.all((vals < 1e-12) == eq) or not eq.any()

    def test_gradient(self):
        # every step positive, so the offsets' gradient is GIoU's alone
        rng = np.random.default_rng(6)
        pred = Parameter(rng.uniform(0.5, 3.0, size=(4, 2)), "p")
        tgt = rng.uniform(0.5, 3.0, size=(4, 2))
        outs = loss_inputs(Tensor(np.zeros((4, 1))), pred)
        tm = fixed_targets(np.zeros(4, dtype=int), np.ones(4, dtype=bool),
                           tgt[:, 0], tgt[:, 1])
        err = grad_check(lambda: total_loss(outs, tm), [pred], h=1e-6)
        assert err < 1e-5


class TestTotalLoss:
    def _outputs(self, lengths, C, seed=0):
        rng = np.random.default_rng(seed)
        A = sum(lengths)
        step, stride = anchors([(T, 2 ** i) for i, T in enumerate(lengths)])
        return HeadOutput(class_logits=Tensor(rng.normal(size=(A, C))),
                          offsets=Tensor(rng.uniform(0.1, 3.0, size=(A, 2))),
                          step=step, stride=stride,
                          video=np.zeros(A, dtype=int))

    def test_normalized_by_global_positive_count(self):
        gts = [GroundTruthSegment(0, 0.0, 1.0)]
        tm = assign_targets(gts, *anchors([(8, 1), (4, 2)]), 0.25, 1)
        outs = self._outputs([8, 4], 1)
        loss = total_loss(outs, tm, lam=1.0)
        # recompute with the pieces summed by hand, level by level
        acc = 0.0
        for lv in (slice(0, 8), slice(8, 12)):
            acc += focal_values(outs.class_logits.data[lv],
                                one_hot(tm.class_target[lv], 1)).sum()
            pos = lv.start + tm.inside[lv].nonzero()[0]
            t = np.stack([tm.d_start[pos], tm.d_end[pos]], axis=-1)
            acc += giou_values(outs.offsets.data[pos], t).sum()
        np.testing.assert_allclose(loss.data, acc / tm.num_positive,
                                   rtol=1e-12)

    def test_batch_loss_is_the_mean_of_its_videos_losses(self):
        # two videos whose anchors interleave level by level, one with
        # three positives and one with none: each video normalised by its own
        # max(T+, 1), then the mean; the gradients likewise
        gts = [[GroundTruthSegment(0, 0.0, 0.3)], []]
        shapes = [[(4, 1), (2, 2)], [(3, 1), (2, 2)]]
        video = np.repeat([0, 1, 0, 1], [4, 3, 2, 2])
        outs = self._outputs([4, 3, 2, 2], 2, seed=5)
        outs.video = video
        logits = Parameter(outs.class_logits.data, "logits")
        offsets = Parameter(outs.offsets.data, "offsets")
        outs.class_logits, outs.offsets = logits, offsets
        parts = [assign_targets(g, *anchors(sh), 0.25, 2)
                 for g, sh in zip(gts, shapes)]
        assert [t.num_positive for t in parts] == [3, 0]
        videos = outs.video_anchors
        loss = total_loss(outs, batch_targets(parts, videos))
        loss.backward()
        grads = [logits.grad.copy(), offsets.grad.copy()]
        mean = 0.0
        for t, a, sh in zip(parts, videos, shapes):
            sub = HeadOutput(Parameter(logits.data[a], "l"),
                             Parameter(offsets.data[a], "o"), *anchors(sh),
                             np.zeros(len(a), dtype=int))
            part = total_loss(sub, t)
            part.backward()
            mean += float(part.data) / 2
            for g, sub_param in zip(grads, (sub.class_logits, sub.offsets)):
                # offsets with no positive step get no gradient
                sg = (np.zeros_like(sub_param.data) if sub_param.grad is None
                      else sub_param.grad)
                np.testing.assert_allclose(g[a], sg / 2, rtol=1e-12,
                                           atol=1e-15)
        np.testing.assert_allclose(loss.data, mean, rtol=1e-12)

    def test_lambda_scales_regression_term(self):
        gts = [GroundTruthSegment(0, 0.0, 1.0)]
        tm = assign_targets(gts, *anchors([(8, 1)]), 0.25, 1)
        outs = self._outputs([8], 1, seed=1)
        l0 = total_loss(outs, tm, lam=0.0).data
        l1 = total_loss(outs, tm, lam=1.0).data
        l2 = total_loss(outs, tm, lam=2.0).data
        np.testing.assert_allclose(l2 - l1, l1 - l0, rtol=1e-9)

    def test_background_only_video(self):
        tm = assign_targets([], *anchors([(6, 1)]), 0.25, 2)
        outs = self._outputs([6], 2, seed=2)
        loss = total_loss(outs, tm)
        # normalizer clamps at 1; only focal background terms remain
        expected = focal_values(outs.class_logits.data,
                                one_hot(tm.class_target, 2)).sum()
        np.testing.assert_allclose(loss.data, expected, rtol=1e-12)

    @pytest.mark.parametrize("segments", [[], [(1, 0.0, 0.8)]])
    def test_one_node_over_logits_and_offsets(self, segments):
        gts = [GroundTruthSegment(*s) for s in segments]
        tm = assign_targets(gts, *anchors([(4, 1), (2, 2)]), 0.25, 2)
        outs = self._outputs([4, 2], 2, seed=3)
        logits = Parameter(outs.class_logits.data, "logits")
        offsets = Parameter(outs.offsets.data, "offsets")
        loss = total_loss(HeadOutput(logits, offsets, outs.step, outs.stride,
                                     outs.video), tm)
        assert loss._parents == (logits, offsets)

    def test_gradient_through_heads(self):
        rng = np.random.default_rng(7)
        heads = DetectionHeads(rng, D, num_classes=2, num_layers=1)
        pyr = make_pyramid([4, 2], seed=8)
        gts = [GroundTruthSegment(1, 0.0, 0.8)]
        tm = assign_targets(gts, *anchors([(4, 1), (2, 2)]), 0.25, 2)

        def loss():
            return total_loss(heads(pyr), tm)

        err = grad_check(loss, heads.parameters(), h=1e-5, max_coords=4)
        assert err < 1e-4
