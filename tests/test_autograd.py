import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taldet.autograd import (DimensionError, InvalidMaskError, Parameter,
                             ProbeError, Tensor, attention, conv1d,
                             depthwise_conv1d, grad_check, layer_norm, linear,
                             window_index)


def pointwise(x, f, df):
    """f(x) as a test-only node whose backward multiplies by df(x)."""
    return Tensor(f(x.data), True, (x,), lambda g: x._accum(g * df(x.data)))


class TestLinear:
    def test_identity_input(self):
        x = Tensor(np.eye(2))
        w = Parameter([[3.0, 0.0], [0.0, 5.0]], "w")
        np.testing.assert_array_equal(linear(x, w).data, [[3, 0], [0, 5]])

    def test_zero_input_gives_bias_rows(self):
        x = Tensor(np.zeros((3, 2)))
        w = Parameter(np.random.default_rng(0).normal(size=(2, 2)), "w")
        b = Parameter([1.0, 2.0], "b")
        np.testing.assert_array_equal(linear(x, w, b).data,
                                      np.tile([1.0, 2.0], (3, 1)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Parameter(rng.normal(size=(4, 2)), "w")
        out = linear(x, w).data
        expected = np.zeros((3, 2))
        for n in range(3):
            for j in range(2):
                for i in range(4):
                    expected[n, j] += x.data[n, i] * w.data[i, j]
        assert np.abs(out - expected).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros((2, 3))), Parameter(np.zeros((4, 2)), "w"))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_one_node_over_x_w_b(self, shape):
        x = Parameter(np.random.default_rng(8).normal(size=shape), "x")
        w, b = Parameter(np.ones((4, 2)), "w"), Parameter(np.zeros(2), "b")
        assert linear(x, w, b)._parents == (x, w, b)
        assert linear(x, w)._parents == (x, w)

    def test_backward_over_3d_input_keeps_no_batched_weight_gradient(self):
        # one [256, 32, 128] float64 array is 8 MiB: the weight gradient is
        # one [32, 128] product, not a product per leading index summed
        rng = np.random.default_rng(12)
        x = Parameter(rng.normal(size=(256, 7, 32)), "x")
        w = Parameter(rng.normal(size=(32, 128)), "w")
        b = Parameter(rng.normal(size=128), "b")
        tracemalloc.start()
        try:
            linear(x, w, b).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 32 * 128 * 8


def per_head_oracle(q, k, v, heads, allowed):
    """Attention one head and one leading index at a time, in plain numpy."""
    lead, (N, D) = q.shape[:-2], q.shape[-2:]
    d = D // heads
    allowed = np.broadcast_to(allowed, lead + (N, N))
    out = np.zeros(q.shape)
    for idx in np.ndindex(lead):
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            s = q[idx][:, cols] @ k[idx][:, cols].T / np.sqrt(d)
            s[~allowed[idx]] = -np.inf
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            out[idx][:, cols] = e / e.sum(axis=-1, keepdims=True) @ v[idx][:, cols]
    return out


class TestAttention:
    def test_equal_scores_average_the_v_rows(self):
        v = np.random.default_rng(0).normal(size=(3, 4))
        zeros = Tensor(np.zeros((3, 4)))
        out = attention(zeros, zeros, Tensor(v), 2, np.ones((3, 3), bool))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (3, 1)),
                                   atol=1e-15)

    def test_single_allowed_position_returns_its_v_row(self):
        rng = np.random.default_rng(1)
        q, k, v = (Tensor(rng.normal(size=(2, 4)) * 10) for _ in range(3))
        allowed = np.array([[False, True], [True, False]])
        out = attention(q, k, v, 2, allowed)
        np.testing.assert_array_equal(out.data, v.data[::-1])

    def test_matches_per_head_loop_oracle(self):
        rng = np.random.default_rng(2)
        for heads in (1, 2, 4):
            for lead in ((), (3,)):
                q, k, v = (rng.normal(size=lead + (5, 8)) for _ in range(3))
                allowed = (rng.random(lead + (5, 5)) > 0.5) | np.eye(5, dtype=bool)
                out = attention(Tensor(q), Tensor(k), Tensor(v), heads,
                                allowed).data
                expected = per_head_oracle(q, k, v, heads, allowed)
                assert np.abs(out - expected).max() <= 1e-12, (heads, lead)

    def test_row_with_no_allowed_position_raises(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(InvalidMaskError):
            attention(x, x, x, 1, np.array([[True, False], [False, False]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_garbage_in_disallowed_v_rows_leaves_output_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (rng.normal(size=(2, 6, 4)) * 10 for _ in range(3))
        valid = rng.random((2, 6)) > 0.4
        valid[:, 0] = True
        allowed = np.broadcast_to(valid[:, None, :], (2, 6, 6))
        base = attention(Tensor(q), Tensor(k), Tensor(v), 2, allowed).data
        v[~valid] = rng.normal(size=v[~valid].shape) * 1e6
        out = attention(Tensor(q), Tensor(k), Tensor(v), 2, allowed).data
        np.testing.assert_array_equal(out, base)


class TestLayerNorm:
    def _unit(self, d):
        return Parameter(np.ones(d), "g"), Parameter(np.zeros(d), "b")

    def test_constant_row_is_zero(self):
        g, b = self._unit(4)
        out = layer_norm(Tensor([[7.0] * 4]), g, b, eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_standardization(self):
        g, b = self._unit(2)
        out = layer_norm(Tensor([[1.0, 3.0]]), g, b, eps=0.0)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_row_stats_match_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8))
        g, b = self._unit(8)
        out = layer_norm(Tensor(x), g, b, eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1)
        np.testing.assert_allclose(out.var(axis=-1), var / (var + 1e-12),
                                   atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_empty_last_axis_raises(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.zeros((2, 0))), *self._unit(0))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_one_node_over_x_gamma_beta(self, shape):
        x = Parameter(np.random.default_rng(8).normal(size=shape), "x")
        g, b = self._unit(4)
        assert layer_norm(x, g, b)._parents == (x, g, b)


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 3)))
        w = Parameter(np.eye(3)[None], "w")  # k=1 identity channel map
        np.testing.assert_allclose(conv1d(x, w).data, x.data, atol=1e-15)

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 2))
        w = rng.normal(size=(3, 2, 4))
        out = conv1d(Tensor(x), Parameter(w, "w")).data
        xp = np.pad(x, ((1, 1), (0, 0)))
        expected = np.zeros((6, 4))
        for t in range(6):
            for j in range(3):
                expected[t] += xp[t + j] @ w[j]
        assert np.abs(out - expected).max() < 1e-12

    @pytest.mark.parametrize("num_sequences", [1, 2, 4])
    def test_same_padding_shape_law(self, num_sequences):
        w = Parameter(np.zeros((3, 1, 1)), "w")
        for T in range(1, 65):
            A = T * num_sequences
            out = conv1d(Tensor(np.zeros((A, 1))), w,
                         index=window_index(np.full(num_sequences, T), 3))
            assert out.shape[0] == A

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_packed_sequences_match_separate_convolutions(self, k):
        # lengths below, at and above the kernel width, with a length-1 one
        rng = np.random.default_rng(9)
        lengths = [7, 1, 2, 5, 1]
        x = rng.normal(size=(sum(lengths), 3))
        w = Parameter(rng.normal(size=(k, 3, 4)), "w")
        b = Parameter(rng.normal(size=4), "b")
        packed = conv1d(Tensor(x), w, b,
                        window_index(np.array(lengths), k)).data
        bounds = np.cumsum([0] + lengths)
        separate = np.concatenate([conv1d(Tensor(x[lo:hi]), w, b).data
                                   for lo, hi in zip(bounds, bounds[1:])])
        assert np.abs(packed - separate).max() <= 1e-12

    @pytest.mark.parametrize("lengths", [[2, 2], [5, 0], [6, -1]])
    def test_lengths_must_cover_the_input(self, lengths):
        # a sum other than the row count gives an index of another shape;
        # window_index itself rejects a length below 1
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.zeros((5, 1))), Parameter(np.zeros((1, 1, 1)), "w"),
                   index=window_index(np.array(lengths), 1))

    def test_even_kernel_same_padding_rejected(self):
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.zeros((4, 1))), Parameter(np.zeros((2, 1, 1)), "w"))

    def test_depthwise_matches_right_padded_oracle(self):
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=(7, 3)), rng.normal(size=(2, 3))
        out = depthwise_conv1d(Tensor(x), Parameter(w, "w"), 2).data
        xp = np.pad(x, ((0, 1), (0, 0)))
        expected = np.stack([(xp[2 * t:2 * t + 2] * w).sum(axis=0)
                             for t in range(4)])
        assert np.abs(out - expected).max() < 1e-12


class TestGradCheck:
    def test_linear_sum(self):
        rng = np.random.default_rng(6)
        x = Parameter(rng.normal(size=(3, 4)), "x")
        w = Parameter(rng.normal(size=(4, 2)), "w")
        err = grad_check(lambda: linear(x, w).sum(), [x, w], h=1e-5)
        assert err < 1e-6

    def test_attention_with_constant_v_has_no_qk_gradient(self):
        # every output row is the one v row, whatever the weights are
        rng = np.random.default_rng(7)
        q, k = (Parameter(rng.normal(size=(3, 4)), n) for n in "qk")
        v = Parameter(np.tile(rng.normal(size=4), (3, 1)), "v")
        allowed = np.tril(np.ones((3, 3), bool))
        err = grad_check(lambda: attention(q, k, v, 2, allowed).sum(),
                         [q, k, v], h=1e-5)
        assert err < 1e-6
        assert np.abs(q.grad).max() < 1e-9 and np.abs(k.grad).max() < 1e-9

    def test_primitive_suite_many_probes(self):
        from taldet.checksuite import primitive_grad_checks
        for name, err in primitive_grad_checks(probes=20).items():
            assert err < 1e-6, name

    @np.errstate(invalid="ignore", divide="ignore")
    def test_nan_gradient_fails(self):
        # sqrt(x * 0) is 0 around x = 1, but its backward is inf * 0
        x = Parameter([1.0, 2.0], "x")
        assert grad_check(lambda: pointwise(x * 0.0, np.sqrt,
                                            lambda a: 0.5 / np.sqrt(a)).sum(),
                          [x]) == np.inf

    @np.errstate(divide="ignore")
    def test_non_finite_probe_raises(self):
        # 1 / x is finite at x = h and infinite at x - h = 0
        x = Parameter([1e-5], "x")
        with pytest.raises(ProbeError):
            grad_check(lambda: pointwise(x, lambda a: 1.0 / a,
                                         lambda a: -1.0 / (a * a)).sum(),
                       [x], h=1e-5)
