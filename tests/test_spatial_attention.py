import numpy as np
from hypothesis import given, strategies as st

import pytest
from oracles import composed_block, layer_norm
from taldet import spatial_attention
from taldet.autograd import (InvalidMaskError, Parameter, Tensor, concat,
                             grad_check, packed_layout)
from taldet.dataio import SyntheticSpec, synthetic_videos
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample
from taldet.nn import PreNormBlock
from taldet.spatial_attention import GroupAggregator, snippet_chunks

D = 8


def attention_block(seed=0, heads=1):
    """A PreNormBlock whose FFN adds exactly 0: block(z, layout) is
    z + MHSA(LN1(z)) (fc2's bias starts at 0)."""
    block = PreNormBlock(np.random.default_rng(seed), D, heads)
    block.ffn.fc2.w.data[:] = 0.0
    return block


def dense_attention_oracle(block, z, valid):
    """Single-head reference of z + MHSA(LN1(z)): an explicit score matrix
    with column masking."""
    attn = block.attn
    x = layer_norm(Tensor(z), block.ln1.gamma, block.ln1.beta).data
    q, v = (x @ p.w.data + p.b.data for p in (attn.wq, attn.wv))
    k = x @ attn.wk.w.data   # the key projection has no bias
    scores = q @ k.T / np.sqrt(D // attn.num_heads)
    scores[:, ~valid] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True) @ v
    return z + out @ attn.wo.w.data + attn.wo.b.data


def one_snippet(valid):
    return packed_layout(np.array([valid]))


class TestMhsa:
    """A block's attention over the valid slots of a Packed layout, as the
    aggregator runs it."""

    def test_single_group_token_attends_itself(self):
        block = attention_block()
        z = np.random.default_rng(1).normal(size=(1, D))
        out = block(Tensor(z), one_snippet([True]))
        np.testing.assert_allclose(
            out.data, dense_attention_oracle(block, z, np.array([True])),
            atol=1e-12)

    def test_all_tokens_invalid_group_self_only(self):
        # snippet 0 holds its group row only; snippet 1's rows, whatever
        # they hold, do not reach it
        block = attention_block()
        rng = np.random.default_rng(2)
        layout = packed_layout(np.array([[False, False, False, True],
                                         [True, False, True, True]]))
        z1 = rng.normal(size=(4, D))
        z2 = np.concatenate([z1[:1], rng.normal(size=(3, D)) * 1e6])
        out1 = block(Tensor(z1), layout).data
        out2 = block(Tensor(z2), layout).data
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_matches_dense_oracle(self):
        block = attention_block(seed=3)
        z = np.random.default_rng(4).normal(size=(4, D))
        valid = np.array([True, True, True, True])
        out = block(Tensor(z), one_snippet(valid)).data
        np.testing.assert_allclose(out, dense_attention_oracle(block, z, valid),
                                   atol=1e-12)

    def test_masked_columns_get_zero_weight(self):
        block = attention_block(seed=5)
        z = np.random.default_rng(6).normal(size=(4, D))
        valid = np.array([True, False, True, True])
        out = block(Tensor(z[valid]), one_snippet(valid)).data
        np.testing.assert_allclose(
            out, dense_attention_oracle(block, z, valid)[valid], atol=1e-12)


class TestPackedLayout:
    def test_runs_of_equal_counts(self):
        # counts 2, 2, 1, 3, 3, 3: three runs, each snippet's rows together
        valid = np.array([[True, False, True], [False, True, True],
                          [False, False, True], [True, True, True],
                          [True, True, True], [True, True, True]])
        packed = packed_layout(valid)
        np.testing.assert_array_equal(packed.rows, [0, 4, 5, 14])
        np.testing.assert_array_equal(packed.snippets, [0, 2, 3, 6])
        assert list(packed.runs()) == [(slice(0, 4), slice(0, 2)),
                                       (slice(4, 5), slice(2, 3)),
                                       (slice(5, 14), slice(3, 6))]
        np.testing.assert_array_equal(packed.last_rows(),
                                      [1, 3, 4, 7, 10, 13])

    def test_a_snippet_with_no_valid_slot_raises(self):
        with pytest.raises(InvalidMaskError):
            packed_layout(np.array([[True, True], [False, False]]))


class TestLayer:
    def test_zero_output_weights_residual_identity(self):
        rng = np.random.default_rng(7)
        block = PreNormBlock(rng, D, 2)
        block.attn.wo.w.data[:] = 0.0
        block.attn.wo.b.data[:] = 0.0
        block.ffn.fc2.w.data[:] = 0.0
        block.ffn.fc2.b.data[:] = 0.0
        z = rng.normal(size=(5, D))
        out = block(Tensor(z), one_snippet([True] * 5))
        np.testing.assert_allclose(out.data, z, atol=1e-12)

    def test_single_token_composes_attention_and_ffn(self):
        rng = np.random.default_rng(8)
        block = PreNormBlock(rng, D, 2)
        z = Tensor(rng.normal(size=(1, D)))
        expected = composed_block(block, z, np.ones((1, 1), dtype=bool)).data
        out = block(z, one_snippet([True]))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_valid_rows_ignore_garbage_in_invalid_rows(self):
        # the rows of snippet 1 are outside every row of snippet 0: huge
        # values there leave snippet 0's rows unchanged bit for bit
        rng = np.random.default_rng(9)
        block = PreNormBlock(rng, D, 2)
        layout = packed_layout(np.array([[True, False, True, False],
                                         [True, True, False, True]]))
        z = rng.normal(size=(5, D))
        base = block(Tensor(z), layout).data
        garbage = z.copy()
        garbage[2:] = rng.normal(size=(3, D)) * 1e6
        out = block(Tensor(garbage), layout).data
        np.testing.assert_array_equal(out[:2], base[:2])


def build_aggregator(num_layers=2, seed=0):
    cfg = ModelConfig(feature_dim=D, num_classes=1, group_heads=2,
                      group_layers=num_layers)
    return GroupAggregator(cfg, np.random.default_rng(seed))


def with_group(valid):
    """valid [B, K] with the group slot's column, always valid, appended."""
    return np.concatenate([valid, np.ones((len(valid), 1), dtype=bool)],
                          axis=1)


def run_group_tensor(agg, tokens, valid, g0):
    """The group vectors of a batch as a Tensor: tokens [B, K, D], valid
    [B, K], g0 [B, D], the group slot last."""
    z0 = concat([Tensor(tokens), Tensor(g0[:, None, :])], axis=1)
    return agg(z0, with_group(valid))


def run_group(agg, tokens, valid, g0):
    """Group vectors of a batch: tokens [B, K, D], valid [B, K], g0 [B, D]."""
    return run_group_tensor(agg, tokens, valid, g0).data


class TestAggregateGroup:
    def test_zero_layers_returns_global_average(self):
        agg = build_aggregator(num_layers=0)
        rng = np.random.default_rng(1)
        g0 = rng.normal(size=(2, D))
        out = run_group(agg, rng.normal(size=(2, 3, D)),
                        np.ones((2, 3), dtype=bool), g0)
        np.testing.assert_array_equal(out, g0)

    def test_all_invalid_depends_only_on_g0(self):
        agg = build_aggregator()
        rng = np.random.default_rng(2)
        g0 = rng.normal(size=(2, D))
        valid = np.zeros((2, 3), dtype=bool)
        out1 = run_group(agg, np.zeros((2, 3, D)), valid, g0)
        out2 = run_group(agg, rng.normal(size=(2, 3, D)) * 100, valid, g0)
        np.testing.assert_array_equal(out1, out2)

    def test_matches_layer_unrolling_oracle(self):
        agg = build_aggregator(num_layers=2, seed=3)
        rng = np.random.default_rng(4)
        tokens = rng.normal(size=(2, 3, D))
        valid = np.array([[True, True, True], [True, False, True]])
        tokens[~valid] = 0.0
        g0 = rng.normal(size=(2, D))
        out = run_group(agg, tokens, valid, g0)

        for t in range(2):
            # the snippet's valid tokens and its group row, alone
            slots = np.append(valid[t], True)
            z = Tensor(np.concatenate([tokens[t][valid[t]], g0[t][None]]))
            for block in agg.blocks:
                z = block(z, one_snippet(slots))
            np.testing.assert_allclose(out[t], z.data[-1], atol=1e-12)

    def test_permutation_invariance(self):
        agg = build_aggregator(seed=5)
        rng = np.random.default_rng(6)
        tokens = rng.normal(size=(4, D))
        valid = np.ones(4, dtype=bool)
        g0 = rng.normal(size=D)
        perms = np.array([np.arange(4)] + [rng.permutation(4)
                                           for _ in range(50)])
        out = run_group(agg, tokens[perms], valid[perms],
                        np.tile(g0, (len(perms), 1)))
        assert np.abs(out[1:] - out[0]).max() <= 1e-9

    def test_masking_soundness_garbage_under_mask(self):
        """Whatever the invalid token rows hold, huge values, NaN or inf,
        the group vectors and every parameter gradient keep their bits."""
        agg = build_aggregator(seed=7)
        rng = np.random.default_rng(8)
        tokens = rng.normal(size=(2, 4, D))
        valid = np.array([[True, False, True, False],
                          [False, True, True, True]])
        tokens[~valid] = 0.0
        g0 = rng.normal(size=(2, D))
        coeff = rng.normal(size=(2, D))

        def run(tok):
            for p in agg.parameters():
                p.grad = None
            out = run_group_tensor(agg, tok, valid, g0)
            (out * coeff).sum().backward()
            return [out.data] + [p.grad for p in agg.parameters()]

        base = run(tokens)
        assert all(np.isfinite(a).all() for a in base)
        for fill in (rng.normal(size=(3, D)) * 1e6, np.nan, np.inf, -np.inf):
            garbage = tokens.copy()
            garbage[~valid] = fill
            for a, b in zip(run(garbage), base):
                assert a.tobytes() == b.tobytes()

    def test_gradient_through_stack(self):
        agg = build_aggregator(num_layers=1, seed=9)
        rng = np.random.default_rng(10)
        tokens = Parameter(rng.normal(size=(2, 3, D)), "tokens")
        g0 = Parameter(rng.normal(size=(2, D)), "g0")
        valid = np.array([[True, True, False], [True, False, False]])
        tokens.data[~valid] = 0.0
        coeff = rng.normal(size=(2, D))

        def loss():
            z0 = concat([tokens, g0.reshape(2, 1, D)], axis=1)
            return (agg(z0, with_group(valid)) * coeff).sum()

        params = [tokens, g0] + agg.parameters()
        assert grad_check(loss, params, h=1e-5, max_coords=4) < 1e-4

    def test_batched_matches_per_snippet(self):
        agg = build_aggregator(seed=11)
        rng = np.random.default_rng(12)
        T, K = 3, 4
        tokens = rng.normal(size=(T, K, D))
        valid = rng.random((T, K)) > 0.3
        tokens[~valid] = 0.0
        g0 = rng.normal(size=(T, D))
        batched = run_group(agg, tokens, valid, g0)
        for t in range(T):
            single = run_group(agg, tokens[t:t + 1], valid[t:t + 1],
                               g0[t:t + 1])
            np.testing.assert_allclose(batched[t], single[0], atol=1e-12)


class TestSnippetChunks:
    def test_chunks_are_filled_from_the_last(self):
        counts = np.array([3, 1, 2, 3, 1, 1])
        np.testing.assert_array_equal(snippet_chunks(counts, 4),
                                      [0, 1, 3, 4, 6])
        np.testing.assert_array_equal(snippet_chunks(counts, 5),
                                      [0, 1, 3, 6])
        np.testing.assert_array_equal(snippet_chunks(counts, 11), [0, 6])

    def test_a_snippet_over_the_limit_is_a_chunk_of_its_own(self):
        np.testing.assert_array_equal(snippet_chunks(np.array([2, 5, 1]), 1),
                                      [0, 1, 2, 3])

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=60),
           st.integers(1, 40))
    def test_chunks_cover_the_snippets_within_the_limit(self, counts,
                                                        max_rows):
        counts = np.array(counts)
        cuts = snippet_chunks(counts, max_rows)
        assert cuts[0] == 0 and cuts[-1] == len(counts)
        assert (np.diff(cuts) > 0).all()
        rows = np.add.reduceat(counts, cuts[:-1])
        assert ((rows <= max_rows) | (np.diff(cuts) == 1)).all()
        # each chunk but the first is full: its next snippet would not fit
        assert (rows[1:] + counts[cuts[1:-1] - 1] > max_rows).all()


class TestSnippetOrder:
    """The aggregator sorts its snippets by valid count: the group vectors
    do not depend on the order the snippets or the videos come in."""

    def test_permuting_snippets_permutes_group_vectors(self):
        agg = build_aggregator(seed=13)
        rng = np.random.default_rng(14)
        T, K = 30, 6
        tokens = rng.normal(size=(T, K, D))
        valid = rng.random((T, K)) < rng.random((T, 1))
        tokens[~valid] = 0.0
        g0 = rng.normal(size=(T, D))
        out = run_group(agg, tokens, valid, g0)
        for _ in range(5):
            perm = rng.permutation(T)
            np.testing.assert_allclose(
                run_group(agg, tokens[perm], valid[perm], g0[perm]),
                out[perm], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk_rows", [700, 40])
    def test_permuting_videos_permutes_group_vectors(self, monkeypatch,
                                                     chunk_rows):
        """Three synthetic videos in every order, as one chunk and cut
        into chunks of at most 40 rows: each video's group vectors within
        1e-12."""
        monkeypatch.setattr(spatial_attention, "CHUNK_ROWS", chunk_rows)
        cfg = ModelConfig(feature_dim=16, num_classes=2, group_layers=2)
        samples = [prepare_sample(record, feats, cfg.K) for record, feats
                   in synthetic_videos(SyntheticSpec(seed=4, num_videos=3))]
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))

        def per_video(order):
            batch = [samples[i] for i in order]
            out = model.snippet_representation(batch).data
            cuts = np.cumsum([len(s.valid) for s in batch])[:-1]
            return dict(zip(order, np.split(out, cuts)))

        want = per_video([0, 1, 2])
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            for i, got in per_video(order).items():
                np.testing.assert_allclose(got, want[i], rtol=0, atol=1e-12)
