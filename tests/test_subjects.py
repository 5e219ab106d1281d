import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taldet.autograd import Parameter, grad_check
from taldet.dataio import SyntheticSpec, generate_synthetic, read_annotations
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample
from taldet.subjects import (AnnotationRecord, Boxes, SubjectBox,
                             _mean_axis_weights, pool_matrices)

FRAME = (64, 64)    # width, height in pixels
GRID = (4, 4)       # feature grid H, W
T = 4               # snippets


def video(boxes_per_snippet, frame=FRAME):
    """The record of a video whose snippets hold `boxes_per_snippet`."""
    return AnnotationRecord("v", 15.0, *frame, 4, [], boxes_per_snippet)


def random_boxes(rng, n, frame=FRAME):
    out = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, frame[0] - 4, size=2)
        out.append(SubjectBox(x1, y1,
                              x1 + rng.uniform(2, frame[0] - x1),
                              y1 + rng.uniform(2, frame[1] - y1),
                              confidence=round(float(rng.uniform()), 3)))
    return out


def clip(box, frame=FRAME):
    """The box clipped to the frame, or None if nothing is left."""
    x1, y1 = max(box.x1, 0.0), max(box.y1, 0.0)
    x2, y2 = min(box.x2, float(frame[0])), min(box.y2, float(frame[1]))
    if x1 >= x2 or y1 >= y2:
        return None
    return SubjectBox(x1, y1, x2, y2, box.confidence)


def sort_oracle(boxes, K, frame=FRAME):
    """Reference ranking: the clipped, non-empty boxes sorted by (-area
    ratio, -confidence, input index), first K."""
    area = frame[0] * frame[1]
    kept = [(i, c) for i, c in enumerate(clip(b, frame) for b in boxes)
            if c is not None]
    kept.sort(key=lambda ic: (-(ic[1].x2 - ic[1].x1) * (ic[1].y2 - ic[1].y1)
                              / area, -ic[1].confidence, ic[0]))
    return [c for _, c in kept[:K]]


def bilinear_token_oracle(f, box, frame=FRAME, bins=(7, 7), samples=2):
    """Mean over the box of (bins * samples)^2 bilinear samples at regular
    interior points, cell values at cell centers, clamped at the border."""
    H, W = f.shape[:2]
    sy, sx = H / frame[1], W / frame[0]
    ny, nx = bins[0] * samples, bins[1] * samples
    total = np.zeros(f.shape[-1])
    for i in range(ny):
        y = box.y1 * sy + (box.y2 - box.y1) * sy * (i + 0.5) / ny
        py = min(max(y - 0.5, 0.0), H - 1.0)
        y0 = min(int(py), H - 2)
        for j in range(nx):
            x = box.x1 * sx + (box.x2 - box.x1) * sx * (j + 0.5) / nx
            px = min(max(x - 0.5, 0.0), W - 1.0)
            x0 = min(int(px), W - 2)
            dy, dx = py - y0, px - x0
            total += ((1 - dy) * (1 - dx) * f[y0, x0] + (1 - dy) * dx * f[y0, x0 + 1]
                      + dy * (1 - dx) * f[y0 + 1, x0] + dy * dx * f[y0 + 1, x0 + 1])
    return total / (ny * nx)


def assert_slots(boxes_per_snippet, K, frame=FRAME, grid=GRID, bins=(7, 7),
                 seed=11):
    """Pool a video's tokens from a random feature grid with its pooling
    matrices and check every slot against the reference ranking and the
    bilinear oracle."""
    n, (H, W) = len(boxes_per_snippet), grid
    f = np.random.default_rng(seed).normal(size=(n, H, W, 3))
    mats, valid = pool_matrices(video(boxes_per_snippet, frame), grid, K,
                                bins)
    tokens = mats @ f.reshape(n, H * W, 3)
    for t in range(n):
        ranked = sort_oracle(boxes_per_snippet[t], K, frame)
        assert valid[t].tolist() == [k < len(ranked) for k in range(K)]
        for k, box in enumerate(ranked):
            np.testing.assert_allclose(tokens[t, k],
                                       bilinear_token_oracle(f[t], box, frame,
                                                             bins),
                                       atol=1e-12)
        np.testing.assert_array_equal(tokens[t, len(ranked):], 0.0)


def list_pool_oracle(boxes_per_snippet, frame, grid, K, bins=(7, 7)):
    """pool_matrices as it was when records held one SubjectBox list per
    snippet: the boxes flattened into one array in Python, then the same
    ranking and weights."""
    T, (H, W), (width, height) = len(boxes_per_snippet), grid, frame
    snippet = np.repeat(np.arange(T), [len(bs) for bs in boxes_per_snippet])
    b = np.array([(x.x1, x.y1, x.x2, x.y2, x.confidence)
                  for bs in boxes_per_snippet for x in bs],
                 dtype=float).reshape(-1, 5)
    x1, y1 = np.maximum(b[:, 0], 0.0), np.maximum(b[:, 1], 0.0)
    x2 = np.minimum(b[:, 2], float(width))
    y2 = np.minimum(b[:, 3], float(height))
    ratio = (x2 - x1) * (y2 - y1) / (width * height)
    keep = np.flatnonzero((x1 < x2) & (y1 < y2))
    order = keep[np.lexsort((keep, -b[keep, 4], -ratio[keep], snippet[keep]))]
    t = snippet[order]
    slot = np.arange(len(order)) - np.searchsorted(t, t)
    order, t, slot = order[slot < K], t[slot < K], slot[slot < K]
    wy = _mean_axis_weights(y1[order], y2[order], H / height, bins[0], H)
    wx = _mean_axis_weights(x1[order], x2[order], W / width, bins[1], W)
    mats = np.zeros((T, K, H * W))
    valid = np.zeros((T, K), dtype=bool)
    mats[t, slot] = (wy[:, :, None] * wx[:, None, :]).reshape(-1, H * W)
    valid[t, slot] = True
    return mats, valid


def assert_pools_as_lists(record, boxes_per_snippet, grid, K, bins=(7, 7)):
    mats, valid = pool_matrices(record, grid, K, bins)
    ref_mats, ref_valid = list_pool_oracle(
        boxes_per_snippet, (record.frame_width, record.frame_height), grid, K,
        bins)
    assert mats.tobytes() == ref_mats.tobytes()
    np.testing.assert_array_equal(valid, ref_valid)


class TestBoxArrays:
    """Pooling from a record's box arrays is bit-identical to pooling from
    the SubjectBox lists they hold."""

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_sets_read_back(self, tmp_path, seed):
        spec = SyntheticSpec(seed=seed)
        generate_synthetic(spec, tmp_path)
        path = tmp_path / "annotations.jsonl"
        lines = path.read_text().splitlines()
        for record, line in zip(read_annotations(path), lines):
            lists = [[SubjectBox(*b) for b in snippet]
                     for snippet in json.loads(line)["boxes"]]
            for K in (1, 3, 8):
                assert_pools_as_lists(record, lists,
                                      (spec.grid, spec.grid), K)

    def test_ties_outside_boxes_and_empty_snippets(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            boxes = []
            for _ in range(6):
                snippet = []
                for _ in range(int(rng.integers(0, 8))):
                    # grid-aligned sizes tie on area, two confidences tie
                    # again, repeats tie on both; shifts leave some boxes
                    # partly or wholly outside the frame
                    x1 = 8.0 * rng.integers(-2, 10)
                    y1 = 8.0 * rng.integers(-2, 6)
                    w, h = 8.0 * rng.integers(1, 3, size=2)
                    snippet.append(SubjectBox(x1, y1, x1 + w, y1 + h,
                                              float(rng.choice([0.5, 0.9]))))
                    if rng.uniform() < 0.3:
                        snippet.append(snippet[-1])
                boxes.append(snippet)
            boxes.append([])
            for K, grid, bins in [(1, (4, 4), (7, 7)), (3, (3, 5), (2, 3)),
                                  (9, (1, 1), (1, 1))]:
                assert_pools_as_lists(video(boxes, (64, 48)), boxes, grid, K,
                                      bins)

    @pytest.mark.parametrize("rows, counts, message", [
        ([[0, 0, 2, 2]], [1], "not an \\[n, 5\\] number array"),
        ([[False, False, True, True, True]], [1], "number array"),
        ([["0", "0", "2", "2", "1"]], [1], "number array"),
        ([[0, 0, 2, 2, 1]], [2], "do not split 1 boxes"),
        ([[0, 0, 2, 2, 1]], [1.0], "do not split"),
        ([[0, 0, 2, 2, 1]] * 2, [3, -1], "do not split"),
        # the first in column order: y2 before confidence
        ([[0, 0, 2, 2, 1], [0, 0, 2, np.inf, np.nan]], [2],
         "^inf is not finite$"),
        ([[0, 0, 2, 2, np.nan]], [1], "^nan is not finite$"),
        ([[0, 0, 2, 2, 1], [3, 0, 3, 2, 1]], [0, 2], "degenerate"),
        ([[0, 0, 2, 2, 1], [0, 5, 2, 4, 1]], [2, 0], "degenerate")],
        ids=["four-numbers", "bools", "strings", "too-many", "float-counts",
             "negative-count", "column-order", "nan", "x1-equals-x2",
             "y1-above-y2"])
    def test_boxes_check_their_arrays(self, rows, counts, message):
        with pytest.raises(ValueError, match=message):
            Boxes(np.array(rows), np.array(counts))

    def test_every_snippet_empty(self):
        boxes = [[]] * T
        assert video(boxes).boxes.rows.shape == (0, 5)
        assert_pools_as_lists(video(boxes), boxes, GRID, 2)


class TestRankSubjects:
    """Slot order: area ratio, then confidence, then input order."""

    def test_fewer_than_k_returns_all(self):
        boxes = [SubjectBox(0, 0, 10, 10, 0.5), SubjectBox(0, 0, 32, 32, 0.4)]
        assert sort_oracle(boxes, 6) == [boxes[1], boxes[0]]  # larger first
        assert_slots([boxes], 6)

    def test_forced_order_by_area_ratio(self):
        # area ratios 0.3, 0.1, 0.5 of a 64x64 frame
        sides = [np.sqrt(r) * 64 for r in (0.3, 0.1, 0.5)]
        boxes = [SubjectBox(0, 0, s, s) for s in sides]
        assert sort_oracle(boxes, 2) == [boxes[2], boxes[0]]
        assert_slots([boxes], 2)

    def test_matches_full_sort_oracle(self):
        # all snippets of a video are ranked in one pass
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert_slots([random_boxes(rng, int(rng.integers(0, 11)))
                          for _ in range(T)], 6)

    def test_empty_input(self):
        mats, valid = pool_matrices(video([[]] * T), GRID, 3)
        assert mats.shape == (4, 3, 16)
        assert not valid.any()
        np.testing.assert_array_equal(mats, 0.0)

    def test_fully_outside_boxes_dropped(self):
        inside = SubjectBox(0, 0, 8, 8)
        outside = SubjectBox(100, 100, 200, 200)
        assert sort_oracle([outside, inside], 6) == [inside]
        assert_slots([[outside, inside]], 6)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_output_is_prefix_of_stable_sort(self, seed, K):
        # boxes shifted partly or fully outside the frame are clipped first
        rng = np.random.default_rng(seed)
        boxes = [[dataclasses.replace(b, x1=b.x1 + dx, x2=b.x2 + dx)
                  for b, dx in zip(random_boxes(rng, n),
                                   rng.choice([0.0, -30.0, 70.0], size=n))]
                 for n in rng.integers(0, 12, size=T)]
        assert_slots(boxes, K, seed=seed)
        full_K = max(K, *map(len, boxes))
        mats, valid = pool_matrices(video(boxes), GRID, K)
        full, full_valid = pool_matrices(video(boxes), GRID, full_K)
        np.testing.assert_array_equal(valid, full_valid[:, :K])
        np.testing.assert_array_equal(mats, full[:, :K])


def pool(features, boxes, K=1, bins=(7, 7)):
    """Tokens [K, D] and validity of one [H, W, D] snippet."""
    H, W, D = features.shape
    mats, valid = pool_matrices(video([boxes]), (H, W), K, bins)
    return mats[0] @ features.reshape(H * W, D), valid[0]


def every_snippet(boxes):
    return [boxes] * T


class TestRoiAlign:
    """The RoI weights behind pool_matrices."""

    def test_constant_field(self):
        f = np.full((4, 4, 3), 2.5)
        tokens, _ = pool(f, [SubjectBox(5, 5, 40, 60)])
        np.testing.assert_allclose(tokens, 2.5, atol=1e-12)

    def test_full_frame_single_bin_hand_samples(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        mats, valid = pool_matrices(video([[SubjectBox(0, 0, 64, 64)]]),
                                    (2, 2), 1, bins=(1, 1))
        # the 2x2 samples of the single bin land exactly on the cell centers
        assert valid.tolist() == [[True]]
        np.testing.assert_allclose(mats, 0.25, atol=1e-12)
        tokens, _ = pool(grid, [SubjectBox(0, 0, 64, 64)], bins=(1, 1))
        np.testing.assert_allclose(tokens[0, 0], grid.mean(), atol=1e-12)

    def test_left_half_box_equals_cell_mean(self):
        # field constant along columns: symmetric vertical samples make the
        # pooled value exactly the mean of the covered cells
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(4, 1, 3))
        f = np.broadcast_to(rows, (4, 4, 3)).copy()
        box = SubjectBox(0, 0, 32, 64)  # left half of the 64px frame
        tokens, _ = pool(f, [box])
        np.testing.assert_allclose(tokens[0], f[:, :2].mean(axis=(0, 1)),
                                   atol=1e-9)

    def test_linearity_in_features(self):
        rng = np.random.default_rng(2)
        f1, f2 = rng.normal(size=(2, 4, 4, 4, 3))
        boxes = every_snippet([SubjectBox(3, 7, 50, 61), SubjectBox(0, 0, 20, 9)])
        a, b = 1.7, -0.4

        def tokens(f):
            return prepare_sample(video(boxes), f, K=3).tokens.data

        np.testing.assert_allclose(tokens(a * f1 + b * f2),
                                   a * tokens(f1) + b * tokens(f2), atol=1e-9)

    def test_degenerate_mapped_box_clamps(self):
        # sub-pixel box maps to ~zero feature extent; widened to one cell
        tiny = SubjectBox(20.0, 20.0, 20.0 + 1e-12, 20.0 + 1e-12)
        mats, valid = pool_matrices(video([[tiny]]), GRID, 1)
        assert valid.tolist() == [[True]]
        assert np.isfinite(mats).all()
        np.testing.assert_allclose(mats.sum(axis=2), 1.0, atol=1e-12)
        # one cell is 16 px here, so it pools like the 16 px box around it
        cell, _ = pool_matrices(video([[SubjectBox(12.0, 12.0, 28.0, 28.0)]]),
                                GRID, 1)
        np.testing.assert_allclose(mats, cell, atol=1e-12)

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            pool_matrices(video([[SubjectBox(0, 0, 10, 10)]]), GRID, 1,
                          bins=(0, 1))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="K"):
            pool_matrices(video([[]]), GRID, 0)


class TestExtractTokens:
    """Token pooling through prepare_sample: K subject slots, then the
    group slot, always valid."""

    def test_zero_boxes(self):
        f = np.random.default_rng(4).normal(size=(4, 4, 4, 3))
        sample = prepare_sample(video(every_snippet([])), f, K=4)
        assert sample.valid.tolist() == [[False] * 4 + [True]] * 4
        np.testing.assert_array_equal(sample.tokens.data[:, :-1], 0.0)

    def test_one_box_constant_field(self):
        f = np.full((4, 4, 4, 3), 1.25)
        sample = prepare_sample(
            video(every_snippet([SubjectBox(0, 0, 30, 30)])), f, K=3)
        assert sample.valid.tolist() == [[True, False, False, True]] * 4
        np.testing.assert_allclose(sample.tokens.data[:, [0, -1]], 1.25,
                                   atol=1e-12)
        np.testing.assert_array_equal(sample.tokens.data[:, 1:-1], 0.0)

    def test_tokens_match_mean_pool_oracle(self):
        rng = np.random.default_rng(5)
        assert_slots([random_boxes(rng, 3) for _ in range(4)], 4)
        # single-row or single-column grids, non-square bins, and tie-heavy
        # boxes: grid-aligned sizes give equal areas, confidences come from
        # two values, and some boxes are repeated
        for (H, W), bins in [((1, 5), (7, 7)), ((3, 1), (2, 5)),
                             ((1, 1), (1, 1)), ((4, 6), (1, 1)),
                             ((5, 3), (3, 1)), ((6, 4), (1, 4))]:
            boxes = []
            for _ in range(3):
                snippet = []
                for _ in range(int(rng.integers(0, 7))):
                    x1, y1 = 8 * rng.integers(0, 5), 8 * rng.integers(0, 3)
                    w, h = 8 * rng.integers(1, 3, size=2)
                    snippet.append(SubjectBox(x1, y1, x1 + w, y1 + h,
                                              float(rng.choice([0.5, 0.9]))))
                    if rng.uniform() < 0.3:
                        snippet.append(snippet[-1])
                boxes.append(snippet)
            for K in (1, 3, 6):
                assert_slots(boxes, K, (48, 32), (H, W), bins)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_valid_mask_matches_box_count(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 7, size=4)
        boxes = [random_boxes(rng, int(n)) for n in counts]
        sample = prepare_sample(video(boxes), rng.normal(size=(4, 4, 4, 3)),
                                K=5)
        expected = np.arange(6)[None, :] < np.minimum(counts, 5)[:, None]
        expected[:, -1] = True
        np.testing.assert_array_equal(sample.valid, expected)
        assert np.all(sample.tokens.data[~sample.valid] == 0.0)

    def test_gradient_through_feature_grid(self):
        rng = np.random.default_rng(6)
        f = Parameter(rng.normal(size=(4, 4, 4, 3)), "f")
        boxes = [random_boxes(rng, 2) for _ in range(4)]
        coeff = rng.normal(size=(4, 5, 3))

        def loss():
            sample = prepare_sample(video(boxes), f, K=4)
            return (sample.tokens * coeff).sum()

        assert grad_check(loss, [f], h=1e-5, max_coords=16) < 1e-6


def test_global_average():
    rng = np.random.default_rng(7)
    f = rng.normal(size=(4, 4, 4, 3))
    sample = prepare_sample(video(every_snippet([])), f, K=2)
    np.testing.assert_allclose(sample.tokens.data[:, -1], f.mean(axis=(1, 2)),
                               atol=1e-12)


def test_no_aggregator_block_gives_the_global_average():
    """With group_layers = 0, the global-pooling ablation, the snippet
    representation of a batch is each snippet's feature average."""
    rng = np.random.default_rng(8)
    model = SubjectPriorDetector(ModelConfig(
        feature_dim=3, num_classes=1, group_heads=1, temporal_heads=1,
        group_layers=0), rng)
    feats = [rng.normal(size=(T, 4, 4, 3)) for T in (4, 6)]
    samples = [prepare_sample(video([random_boxes(rng, 2)
                                     for _ in range(len(f))]), f, K=3)
               for f in feats]
    np.testing.assert_allclose(
        model.snippet_representation(samples).data,
        np.concatenate([f.mean(axis=(1, 2)) for f in feats]), atol=1e-12)
