import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import attention, layer_norm, linear, relu
from taldet import autograd, nn
from taldet.autograd import (DimensionError, InvalidMaskError, Parameter,
                             ProbeError, Tensor, checkpoint, conv1d,
                             depthwise_conv1d, grad_check, packed_layout,
                             stride_index, window_index, window_tables)
from taldet.checksuite import (_sum_sq, ffn_preactivation, packed_slots,
                               slot_mask, window_rows)


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

    @pytest.mark.parametrize("k, index_k", [(1, 3), (3, 1)])
    def test_index_for_another_kernel_rejected(self, k, index_k):
        # a 1-wide kernel reads x without a gather only when given no index
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.zeros((5, 1))), Parameter(np.zeros((k, 1, 1)), "w"),
                   index=window_index([5], index_k))

    def test_even_kernel_same_padding_rejected(self):
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.zeros((4, 1))), Parameter(np.zeros((2, 1, 1)), "w"))

    def test_depthwise_matches_right_padded_oracle(self):
        # each sequence right-padded on its own: odd lengths, one of 1 row
        rng = np.random.default_rng(11)
        for lengths, k in (([7], 2), ([3, 1, 3], 2), ([4, 5], 3)):
            x, w = rng.normal(size=(sum(lengths), 3)), rng.normal(size=(k, 3))
            out = depthwise_conv1d(Tensor(x), Parameter(w, "w"), 2,
                                   lengths).data
            expected = []
            for seq in np.split(x, np.cumsum(lengths)[:-1]):
                xp = np.pad(seq, ((0, k), (0, 0)))
                expected += [(xp[2 * t:2 * t + k] * w).sum(axis=0)
                             for t in range(-(-len(seq) // 2))]
            assert np.abs(out - np.stack(expected)).max() < 1e-12

    def test_depthwise_lengths_must_cover_the_input(self):
        with pytest.raises(DimensionError):
            depthwise_conv1d(Tensor(np.zeros((5, 1))),
                             Parameter(np.zeros((2, 1)), "w"), 2, [2, 2])


def loop_window_index(lengths, k):
    """window_index built afresh, row by row and slot by slot."""
    A, rows, start = sum(lengths), [], 0
    for n in lengths:
        for t in range(n):
            rows.append([start + t + j if 0 <= t + j < n else A
                         for j in range(-(k // 2), k // 2 + 1)])
        start += n
    return np.array(rows).reshape(A, k)


def loop_stride_index(lengths, stride, k):
    """stride_index built afresh, window by window and slot by slot."""
    A, rows, start = sum(lengths), [], 0
    for n in lengths:
        for t in range(0, n, stride):
            rows.append([start + t + j if t + j < n else A for j in range(k)])
        start += n
    return np.array(rows).reshape(-1, k)


class TestWindowTables:
    @pytest.mark.parametrize("lengths", [[1], [9], [4, 1, 4], [2, 7, 3, 1]])
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_cached_tables_match_a_fresh_build(self, lengths, k):
        idx = window_index(np.array(lengths), k)
        np.testing.assert_array_equal(idx, loop_window_index(lengths, k))
        win = window_tables(lengths, k)
        np.testing.assert_array_equal(win.index, idx.T)
        np.testing.assert_array_equal(win.outside, idx.T == sum(lengths))
        for stride in (1, 2, 3):
            np.testing.assert_array_equal(
                stride_index(lengths, stride, k),
                loop_stride_index(lengths, stride, k))

    def test_cached_tables_are_read_only(self):
        # each piece is built once per length and shared; a batch's table
        # is a new array stacked from them
        pieces = [autograd._window_outside(3, 3),
                  autograd._stride_outside(5, 2, 2)]
        assert autograd._window_outside(3, 3) is pieces[0]
        for table in pieces:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = table[0, 1]
        idx = window_index([3, 2], 3)
        idx[0, 0] = -1
        np.testing.assert_array_equal(window_index([3, 2], 3),
                                      loop_window_index([3, 2], 3))

    @pytest.mark.parametrize("lengths", [[0], [5, 0], [6, -1]])
    def test_non_positive_lengths_raise_on_every_call(self, lengths):
        for _ in range(2):   # a failed build is not cached
            with pytest.raises(DimensionError):
                window_index(np.array(lengths), 3)
            with pytest.raises(DimensionError):
                window_tables(lengths, 3)
            with pytest.raises(DimensionError):
                stride_index(lengths, 2, 2)


def live_graph_nodes():
    """Tensors still linked to their parents: the op nodes of every graph
    that has not been freed."""
    return [t for t in gc.get_objects()
            if isinstance(t, Tensor) and t._parents]


class TestGraphRelease:
    def test_backward_frees_the_graph(self):
        # once backward() returns, no op node of its graph is alive, the
        # root included, and the leaves keep their gradients
        from taldet.checksuite import build_toy_problem
        loss_fn, params = build_toy_problem(seed=1, T=4)
        before = {id(t) for t in live_graph_nodes()}

        def graph():
            return [t for t in live_graph_nodes() if id(t) not in before]

        loss = loss_fn()
        assert len(graph()) > 20
        loss.backward()
        assert graph() == []
        assert loss._parents == () and loss.grad is None
        features = params[0]
        assert np.abs(features.grad).max() > 0

    def test_second_backward_raises(self):
        x = Parameter(np.array([1.0, -2.0]), "x")
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, -4.0])

    def test_backward_into_a_freed_graph_raises(self):
        # h is shared by two losses; the first backward frees it
        x = Parameter(np.array([1.0, -2.0]), "x")
        h = x * x
        first, second = h.sum(), (h * 3.0).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            second.backward()

    def test_leaf_root_gets_a_gradient_of_one_each_time(self):
        p = Parameter(np.array(3.0), "p")
        p.backward()
        p.backward()
        assert p.grad == 2.0


def held_arrays(fn):
    """The arrays a backward closure holds, through the closures, tuples
    and lists it holds, each with the arrays it is a view of."""
    seen, arrays, stack = set(), [], [fn]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return arrays


# What one block's node kept for its backward at R = 512 rows of D = 32, 4
# heads, before each norm's output was rebuilt in the backward (tracemalloc,
# Python 3.11, numpy 2.4): 1734875 bytes over a Window of 9 and 1652202
# over a Packed layout of 128 snippets of 4 rows; about 1472500 and 1389900
# after, some 2 * R * D * 8 = 262144 bytes less; 1345515 and 1262520 since
# LN1's standardised input is rebuilt from z and its row means, R * (D - 1)
# * 8 = 126976 bytes less.
@pytest.mark.parametrize("layout", ["window", "packed"])
def test_block_node_keeps_no_norm_output(layout):
    """No array the node's backward holds is LN1's or LN2's [R, D] output
    or LN1's standardised input, and besides its output the node retains
    no more than those arrays."""
    R, D, heads = 512, 32, 4
    rng = np.random.default_rng(0)
    block = nn.PreNormBlock(rng, D, heads)
    for norm in (block.ln1, block.ln2):   # else each output equals its xhat
        norm.gamma.data += rng.normal(size=D) * 0.1
        norm.beta.data += rng.normal(size=D) * 0.1
    z = Parameter(rng.normal(size=(R, D)), "z")
    valid = np.zeros((128, 7), dtype=bool)
    valid[:, 3:] = True
    tables = (window_tables([R], 9) if layout == "window"
              else packed_layout(valid))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = block(z, tables)
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    held = held_arrays(out._backward)
    # the two norm outputs, from the oracle nodes, whose bits the node's are
    attn = block.attn
    x = layer_norm(z, block.ln1.gamma, block.ln1.beta)
    q, k, v = (linear(x, p.w, p.b) for p in (attn.wq, attn.wk, attn.wv))
    h = linear(attention(q, k, v, heads, tables), attn.wo.w, attn.wo.b) + z
    xhat1 = autograd._layer_norm_forward(
        z.data, block.ln1.gamma.data, block.ln1.beta.data,
        autograd.LAYER_NORM_EPS)[1]
    norms = (x.data, layer_norm(h, block.ln2.gamma, block.ln2.beta).data,
             xhat1)
    assert any(a.shape == (R, D) for a in held)
    for a in held:
        assert not any(np.array_equal(a, n) for n in norms)
    # whole buffers only: a view's bytes are its base's
    assert kept <= sum(a.nbytes for a in held if a.base is None) + 16384


@pytest.mark.parametrize("kernel, index", [(3, True), (1, False)])
def test_relu_conv_keeps_only_its_output(kernel, index):
    """With the ReLU fused in, the backward keeps no [A, D_out] array but
    the output itself: the mask comes from it, not from a kept
    pre-activation."""
    rng = np.random.default_rng(0)
    x = Parameter(rng.normal(size=(12, 4)), "x")
    w = Parameter(rng.normal(size=(kernel, 4, 5)), "w")
    b = Parameter(rng.normal(size=5), "b")
    out = conv1d(x, w, b, window_index([7, 5], kernel) if index else None,
                 relu=True)
    held = held_arrays(out._backward)
    outs = [a for a in held if a.shape == out.shape]
    assert outs and all(a is out.data for a in outs)
    # nor the windows [A, k * D_in], which the backward gathers again
    assert not any(a.shape == (12, kernel * 4) or a.nbytes == 12 * kernel * 32
                   for a in held)


def test_depthwise_conv_keeps_no_windows():
    """The backward holds no array of the windows' [n, k, D] shape or
    bytes: it gathers them again from x."""
    rng = np.random.default_rng(0)
    x = Parameter(rng.normal(size=(12, 4)), "x")
    w = Parameter(rng.normal(size=(3, 4)), "w")
    out = depthwise_conv1d(x, w, 2, [7, 5])
    n = len(out.data)
    held = held_arrays(out._backward)
    assert not any(a.shape == (n, 3, 4) or a.nbytes == n * 3 * 4 * 8
                   for a in held)


class TestCheckpoint:
    """checkpoint over pieces of rows against the pieces' plain graphs."""

    def problem(self, seed, x_grad):
        # the group-row block over slot_mask's 4 snippets cut into 3 pieces
        rng = np.random.default_rng(seed)
        valid = slot_mask(rng)
        snippets = np.array([0, 1, 3, 4])
        rows = np.concatenate([[0], np.cumsum(valid.sum(axis=1))])[snippets]
        block = nn.PreNormBlock(rng, 4, 2)
        x = (Parameter if x_grad else Tensor)(rng.normal(size=(rows[-1], 4)))
        calls = []

        def fn(piece, i):
            calls.append(i)
            layout = packed_layout(valid[snippets[i]:snippets[i + 1]])
            return block.last_rows(piece, layout)

        return x, rows, block.parameters(), fn, calls, rng.normal(size=(4, 4))

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_matches_plain_graphs(self, x_grad):
        """Against fn over row gathers of x, concatenated: the values bit
        for bit and every gradient within 1e-12. The forward runs each
        piece once; the backward runs the kept last piece's graph, then
        rebuilds pieces 0 and 1 in order."""
        x, rows, params, fn, calls, c = self.problem(0, x_grad)
        leaves = [x] + params if x_grad else params

        def grads(run):
            for p in leaves:
                p.grad = None
            out = run()
            (out * c).sum().backward()
            return [out.data] + [p.grad.copy() for p in leaves]

        want = grads(lambda: autograd.concat(
            [fn(autograd.gather_rows(x, np.arange(lo, hi)), i)
             for i, (lo, hi) in enumerate(zip(rows[:-1], rows[1:]))]))
        calls.clear()
        got = grads(lambda: checkpoint(fn, x, rows, params))
        assert calls == [0, 1, 2, 0, 1]
        np.testing.assert_array_equal(got[0], want[0])
        for g, ref in zip(got[1:], want[1:]):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)

    def test_without_a_gradient_builds_no_node(self):
        x, rows, params, fn, calls, _ = self.problem(1, False)
        with_graph = checkpoint(fn, x, rows, params).data
        for p in params:
            p.requires_grad = False
        out = checkpoint(fn, x, rows, params)
        assert out._parents == () and not out.requires_grad
        np.testing.assert_array_equal(out.data, with_graph)


def make_linear(rng):
    # [3, 4] rows, or [2, 3, 4] as the aggregator's [T, K+1, D] tokens
    shape = ((3, 4), (2, 3, 4))[int(rng.integers(2))]
    x = Parameter(rng.normal(size=shape), "x")
    w = Parameter(rng.normal(size=(4, 2)), "w")
    b = Parameter(rng.normal(size=2), "b")
    return lambda: _sum_sq(linear(x, w, b)), [x, w, b]


def attention_probe(rng, rows, layout):
    """1, 2 or 4 heads over q, k, v [*rows, 4] under `layout`."""
    heads, shape = int(rng.choice([1, 2, 4])), np.append(rows, 4)
    q, k, v = (Parameter(rng.normal(size=shape), n) for n in "qkv")
    c = rng.normal(size=shape)
    return lambda: (attention(q, k, v, heads, layout) * c).sum(), [q, k, v]


def make_attention(rng):
    # a leading batch axis of 2, and random masks in which every row
    # allows at least its diagonal
    mask = (rng.random((2, 3, 3)) > 0.4) | np.eye(3, dtype=bool)
    return attention_probe(rng, (2, 3), mask)


def make_layer_norm(rng):
    # [2, 6] rows, or [2, 3, 6] as the aggregator's [T, K+1, D] tokens
    shape = ((2, 6), (2, 3, 6))[int(rng.integers(2))]
    x, c = Parameter(rng.normal(size=shape), "x"), rng.normal(size=shape)
    g, b = (Parameter(rng.normal(size=6), n) for n in "gb")
    return lambda: (layer_norm(x, g, b, eps=1e-5) * c).sum(), [x, g, b]


def make_relu(rng):
    x = Parameter(rng.normal(size=(4, 4)) + 0.1, "x")
    c = rng.normal(size=(4, 4))
    return lambda: (relu(x) * c).sum(), [x]


ORACLE_PROBES = {
    "linear": make_linear, "attention": make_attention,
    "window_attention": lambda rng: attention_probe(rng, *window_rows(rng)),
    "packed_attention": lambda rng: attention_probe(rng, *packed_slots(rng)),
    "layer_norm": make_layer_norm, "relu": make_relu}


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

    @pytest.mark.parametrize("seed", [13, 16])
    def test_primitive_suite_draws_no_probe_at_a_kink(self, seed):
        # a block probe whose FFN pre-activation lies next to the ReLU's
        # kink, where the +-h differences straddle it, is drawn again: seed
        # 13 once drew one 7.5e-7 from it (0.285 against the bound), and
        # without the redraw seed 16 draws one now (1.6e-2)
        from taldet.checksuite import primitive_grad_checks
        for name, err in primitive_grad_checks(probes=20, seed=seed).items():
            assert err < 1e-6, name

    @pytest.mark.parametrize("last", [False, True])
    def test_ffn_preactivation_is_the_blocks(self, last):
        """The pre-activation the probes keep off the kink is the one inside
        the block: the composition's fc1 output, bit for bit."""
        rng = np.random.default_rng(3)
        valid = slot_mask(rng)
        packed = packed_layout(valid)
        block = nn.PreNormBlock(rng, 4, 2)
        for p in block.parameters():
            p.data += rng.normal(size=p.shape) * 0.5
        z = Parameter(rng.normal(size=(int(valid.sum()), 4)), "z")
        attn, ffn = block.attn, block.ffn
        x = layer_norm(z, block.ln1.gamma, block.ln1.beta)
        rows = packed.last_rows() if last else slice(None)
        q = linear(Tensor(x.data[rows]), attn.wq.w, attn.wq.b)
        k, v = (linear(x, p.w, p.b) for p in (attn.wk, attn.wv))
        h = (linear(attention(q, k, v, 2, packed, last), attn.wo.w,
                    attn.wo.b) + z.data[rows])
        x2 = layer_norm(h, block.ln2.gamma, block.ln2.beta)
        np.testing.assert_array_equal(
            ffn_preactivation(z, packed, block.node_params(), 2, last),
            linear(x2, ffn.fc1.w, ffn.fc1.b).data)

    @pytest.mark.parametrize("node", ORACLE_PROBES)
    def test_oracle_node_gradients(self, node):
        """The test-side nodes under criterion 1's bound, 20 probes each."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            f, params = ORACLE_PROBES[node](rng)
            assert grad_check(f, params, h=1e-5, rng=rng) < 1e-6

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
