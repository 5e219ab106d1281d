"""`autograd.linear`, `autograd.layer_norm`, `autograd.conv1d`,
`autograd.depthwise_conv1d`, `autograd.prenorm_block` and
`heads.total_loss` are single nodes with an analytic backward. The compositions of smaller nodes they replaced are kept
here as oracles: the fused forward values must match them bit for bit (a
`linear` over more than two axes within 1e-12, since its weight gradient is
one 2-D product instead of one per leading index), and every gradient must
agree within 1e-12; `conv1d` and `prenorm_block` sum every gradient in their
composition's order, so theirs must match bit for bit too, down to the
checkpoint bytes of a training run. `conv1d`'s column-wise backward of the
window gather is checked against the `np.add.at` scatter it replaced, its
fused ReLU against a ReLU node, and its 1-wide kernel, which reads x with no
gather, against the gather, all bit for bit. `depthwise_conv1d` matches
its gather, product and window sum bit for bit over one sequence and
within 1e-12 over several. `Tensor.backward` walks only op nodes; the walk
over every node, leaves included, gives the same bits.

Attention has three layouts, each checked against the dense formulation it
replaced: windowed attention (`autograd.Window`, the temporal layers)
against attention under the dense band mask (`band_mask`, block-diagonal
over sequences back to back) within 1e-12;
the aggregator's packed valid slots (`autograd.Packed`) against its blocks
over all K + 1 slots under the broadcast column mask, with the same group
vectors and, in training, the same checkpoint bytes; and the dense
key-slot-wise softmax against numpy's reduce over the key axis, bit for bit
for up to 7 keys."""

import functools
import math

import numpy as np
import pytest

from taldet import nn, spatial_attention, training
from taldet.autograd import (Parameter, Tensor, attention, concat, conv1d,
                             depthwise_conv1d, layer_norm, linear,
                             stride_index, window_index, window_tables)
from taldet.checksuite import build_toy_problem
from taldet.dataio import SyntheticSpec, generate_synthetic, read_features
from taldet.heads import (FOCAL_ALPHA, FOCAL_GAMMA, GroundTruthSegment,
                          HeadOutput, assign_targets, total_loss)
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample

TOL = 1e-12


def band_mask(lengths, window_size):
    """The dense oracle of `window_tables(lengths, window_size)`:
    allowed[i, j] when i and j lie in one sequence and |i - j| is within
    the half-window."""
    seq = np.repeat(np.arange(len(lengths)), lengths)
    idx = np.arange(len(seq))
    return ((np.abs(idx[:, None] - idx[None, :]) <= (window_size - 1) // 2)
            & (seq[:, None] == seq[None, :]))


def node(out, *links):
    """A node holding `out` whose backward passes g * slope to the parent of
    each (parent, slope) link; every slope has the shape of `out`."""
    def backward(g):
        for parent, slope in links:
            parent._accum(g * slope)

    return Tensor(out, True, tuple(p for p, _ in links), backward)


def index(x, key):
    """x.data[key] as a node whose backward scatters with np.add.at."""
    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, key, g)
        x._accum(full)

    return Tensor(x.data[key], True, (x,), backward)


def power(x, p):
    return node(x.data ** p, (x, p * x.data ** (p - 1)))


def sigmoid(x):
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))
    return node(out, (x, out * (1.0 - out)))


def softplus(x):
    return node(np.logaddexp(0.0, x.data),
                (x, 0.5 * (1.0 + np.tanh(0.5 * x.data))))


def minimum(a, b):
    """min(a, b) for a Tensor a and a constant array b."""
    return node(np.minimum(a.data, b), (a, a.data <= b))


def maximum(a, b):
    return node(np.maximum(a.data, b), (a, a.data >= b))


def divide(a, b):
    return node(a.data / b.data, (a, 1.0 / b.data),
                (b, -a.data / (b.data * b.data)))


def composed_linear(x, w, b=None):
    out = x @ w
    return out if b is None else out + b


def scatter_gather_rows(x, idx):
    """x[idx] along axis 0, the index len(x) reading zeros, whose backward
    scatters with np.add.at."""
    n = x.shape[0]
    xz = np.concatenate([x.data, np.zeros((1,) + x.shape[1:])])

    def backward(g):
        full = np.zeros_like(xz)
        np.add.at(full, idx, g)
        x._accum(full[:n])

    return Tensor(xz[idx], True, (x,), backward)


def composed_conv1d(x, w, b=None, index=None, relu=False, dense=linear):
    """conv1d as a window gather, a reshape of the windows and of the
    kernel, `dense` over them and, with `relu`, a ReLU node."""
    A, d_in = x.shape
    k, _, d_out = w.shape
    idx = window_index([A], k) if index is None else index
    windows = scatter_gather_rows(x, idx).reshape(A, k * d_in)
    out = dense(windows, w.reshape(k * d_in, d_out), b)
    return out.relu() if relu else out


def composed_block(block, z, allowed):
    """PreNormBlock as the composition of its modules' nodes."""
    h = block.attn(block.ln1(z), allowed) + z
    return block.ffn(block.ln2(h)) + h


def composed_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x + mu * -1.0   # a Tensor has no subtraction; the bits are x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = power(var + eps, -0.5)
    return xc * inv * gamma + beta


def composed_total_loss(outs, targets, lam=1.0, strict_positive_only=False):
    logits = outs.class_logits
    T, C = logits.shape
    y = np.zeros((T, C))
    fg = targets.class_target < C
    y[np.arange(T)[fg], targets.class_target[fg]] = 1.0
    p = sigmoid(logits)
    # -log p = softplus(-x); -log(1-p) = softplus(x)
    pos_term = (power(p * -1.0 + 1.0, FOCAL_GAMMA) * FOCAL_ALPHA
                * softplus(logits * -1.0))
    neg_term = power(p, FOCAL_GAMMA) * (1.0 - FOCAL_ALPHA) * softplus(logits)
    per_entry = pos_term * y + neg_term * (1.0 - y)
    row_mask = (targets.inside if strict_positive_only
                else np.ones(T, dtype=bool))
    loss = (per_entry * row_mask.astype(np.float64)[:, None]).sum()
    if targets.inside.any():
        pos = targets.inside.nonzero()[0]
        pred = index(outs.offsets, pos)
        ps, pe = index(pred, (..., 0)), index(pred, (..., 1))
        ts, te = targets.d_start[pos], targets.d_end[pos]
        inter = minimum(ps, ts) + minimum(pe, te)
        enclose = maximum(ps, ts) + maximum(pe, te)
        giou = divide(inter, enclose) * -1.0 + 1.0
        loss = loss + giou.sum() * lam
    return loss * (1.0 / max(targets.num_positive, 1))


def forward_backward(f, params, weights=None):
    """f()'s value and every parameter's gradient (zeros where none) of
    f(), or of sum(f() * weights) for a non-scalar f()."""
    for p in params:
        p.grad = None
    out = f()
    (out if weights is None else (out * weights).sum()).backward()
    return out.data, [np.zeros_like(p.data) if p.grad is None else p.grad
                      for p in params]


def assert_matches(fused, reference, value_tol=0.0, grad_tol=TOL):
    """Values within `value_tol` and gradients within `grad_tol`, relative
    and absolute; a tolerance of 0 asks for equal bits."""
    (value, grads), (ref_value, ref_grads) = fused, reference
    np.testing.assert_allclose(value, ref_value, rtol=value_tol,
                               atol=value_tol)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=grad_tol, atol=grad_tol)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("shape", [(5, 8), (4, 3, 8)])
def test_linear_matches_composition(shape, bias):
    rng = np.random.default_rng(len(shape) + 2 * bias)
    x = Parameter(rng.normal(size=shape), "x")
    w = Parameter(rng.normal(size=(8, 6)), "w")
    b = Parameter(rng.normal(size=6), "b") if bias else None
    c = rng.normal(size=shape[:-1] + (6,))
    params = [x, w] + ([b] if bias else [])
    assert_matches(
        forward_backward(lambda: linear(x, w, b), params, c),
        forward_backward(lambda: composed_linear(x, w, b), params, c),
        value_tol=0.0 if len(shape) == 2 else TOL)


@pytest.mark.parametrize("lengths", [[9], [4, 1, 4], [1, 2, 3, 3]])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d_gather_matches_scatter(lengths, k):
    rng = np.random.default_rng(k)
    x = Parameter(rng.normal(size=(9, 3)), "x")
    w = Parameter(rng.normal(size=(k, 3, 2)), "w")
    b = Parameter(rng.normal(size=2), "b")
    c = rng.normal(size=(9, 2))
    params = [x, w, b]
    index = window_index(np.array(lengths), k)
    assert_matches(
        forward_backward(lambda: conv1d(x, w, b, index), params, c),
        forward_backward(lambda: composed_conv1d(x, w, b, index), params,
                         c), grad_tol=0.0)


@pytest.mark.parametrize("lengths", [None, [9], [4, 1, 4]])
@pytest.mark.parametrize("k", [1, 3])
def test_conv1d_relu_matches_composition(lengths, k):
    """The convolution with its ReLU fused in against the convolution and a
    ReLU node, bit for bit in the value and every gradient; lengths None
    calls it without an index (for k = 1, the path with no gather)."""
    rng = np.random.default_rng(k + 1)
    x = Parameter(rng.normal(size=(9, 3)), "x")
    w = Parameter(rng.normal(size=(k, 3, 2)), "w")
    b = Parameter(rng.normal(size=2), "b")
    # output 0's pre-activation is exactly 0, where the ReLU passes no
    # gradient
    w.data[..., 0] = b.data[0] = 0.0
    c = rng.normal(size=(9, 2))
    params = [x, w, b]
    index = None if lengths is None else window_index(lengths, k)
    fused = forward_backward(
        lambda: conv1d(x, w, b, index, relu=True), params, c)
    assert (fused[0] == 0).any() and (fused[0] > 0).any()
    assert_matches(fused, forward_backward(
        lambda: composed_conv1d(x, w, b, index, relu=True), params, c),
        grad_tol=0.0)


@pytest.mark.parametrize("relu", [False, True])
def test_one_wide_conv1d_matches_gather(relu):
    """A 1-wide kernel without an index reads x itself: the same bits, in
    the value and every gradient, as the gather through its window index."""
    rng = np.random.default_rng(2)
    x = Parameter(rng.normal(size=(7, 4)), "x")
    w = Parameter(rng.normal(size=(1, 4, 3)), "w")
    b = Parameter(rng.normal(size=3), "b")
    c = rng.normal(size=(7, 3))
    params = [x, w, b]
    assert_matches(
        forward_backward(lambda: conv1d(x, w, b, relu=relu), params, c),
        forward_backward(lambda: conv1d(x, w, b, window_index([7], 1),
                                        relu=relu), params, c), grad_tol=0.0)


def composed_depthwise(x, w, stride, lengths):
    """depthwise_conv1d as the composition it replaced: a gather of the
    strided windows whose backward scatters with np.add.at, a broadcast
    product with the kernel and a sum over the window."""
    windows = scatter_gather_rows(x, stride_index(lengths, stride,
                                                  w.shape[0]))
    return (windows * w).sum(axis=1)


@pytest.mark.parametrize("T, k, stride", [(7, 2, 2), (10, 4, 4), (9, 5, 2)])
def test_depthwise_gather_matches_scatter(T, k, stride):
    # T not a multiple of the stride: the last window reads the zero row
    rng = np.random.default_rng(T)
    x = Parameter(rng.normal(size=(T, 3)), "x")
    w = Parameter(rng.normal(size=(k, 3)), "w")
    c = rng.normal(size=(-(-T // stride), 3))
    assert_matches(
        forward_backward(lambda: depthwise_conv1d(x, w, stride, [T]), [x, w],
                         c),
        forward_backward(lambda: composed_depthwise(x, w, stride, [T]),
                         [x, w], c), grad_tol=0.0)


@pytest.mark.parametrize("lengths", [[3, 1, 3], [4, 5], [1, 1, 2]])
@pytest.mark.parametrize("k", [2, 3])
def test_depthwise_over_sequences_matches_composition(lengths, k):
    """Sequences back to back, each right-padded on its own (odd lengths,
    1-row ones): the one node against the composition, within 1e-12."""
    rng = np.random.default_rng(sum(lengths) * k)
    x = Parameter(rng.normal(size=(sum(lengths), 3)), "x")
    w = Parameter(rng.normal(size=(k, 3)), "w")
    c = rng.normal(size=(sum(-(-n // 2) for n in lengths), 3))
    fused = forward_backward(lambda: depthwise_conv1d(x, w, 2, lengths),
                             [x, w], c)
    assert op_nodes(depthwise_conv1d(x, w, 2, lengths)) == 1
    assert_matches(fused, forward_backward(
        lambda: composed_depthwise(x, w, 2, lengths), [x, w], c),
        value_tol=TOL)


@pytest.mark.parametrize("shape", [(5, 8), (4, 3, 8)])
def test_layer_norm_matches_composition(shape):
    rng = np.random.default_rng(len(shape))
    x = Parameter(rng.normal(size=shape) * 3 + 1, "x")
    gamma = Parameter(rng.normal(size=8), "gamma")
    beta = Parameter(rng.normal(size=8), "beta")
    c = rng.normal(size=shape)
    params = [x, gamma, beta]
    assert_matches(
        forward_backward(lambda: layer_norm(x, gamma, beta), params, c),
        forward_backward(lambda: composed_layer_norm(x, gamma, beta), params,
                         c))


def loss_problem(segments, seed, identical=False):
    """Head outputs over two levels (8 and 4 steps, 2 classes) and their
    targets for `segments`; with `identical`, every positive step predicts
    its target offsets exactly."""
    rng = np.random.default_rng(seed)
    step = np.concatenate([np.arange(8), np.arange(4)])
    stride = np.repeat([1, 2], [8, 4])
    gts = [GroundTruthSegment(*s) for s in segments]
    targets = assign_targets(gts, step, stride, 0.25, 2)
    offsets = rng.uniform(0.1, 3.0, size=(12, 2))
    if identical:
        pos = targets.inside
        offsets[pos] = np.stack([targets.d_start, targets.d_end], -1)[pos]
    logits = Parameter(rng.normal(size=(12, 2)) * 2, "logits")
    offsets = Parameter(offsets, "offsets")
    return HeadOutput(logits, offsets, step, stride,
                      np.zeros(12, dtype=int)), targets


SEGMENTS = [(0, 0.0, 0.9), (1, 1.2, 2.0)]


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("segments, identical", [
    (SEGMENTS, False), ([], False), (SEGMENTS, True)],
    ids=["positives", "no_positives", "identical_segments"])
def test_total_loss_matches_composition(lam, strict, segments, identical):
    outs, targets = loss_problem(segments, seed=int(lam * 2 + strict),
                                 identical=identical)
    assert targets.inside.any() == bool(segments)
    params = [outs.class_logits, outs.offsets]
    fused = forward_backward(
        lambda: total_loss(outs, targets, lam, strict), params)
    assert_matches(fused, forward_backward(
        lambda: composed_total_loss(outs, targets, lam, strict), params))


def test_identical_segments_add_exactly_zero_giou():
    outs, targets = loss_problem(SEGMENTS, seed=0, identical=True)
    assert (total_loss(outs, targets, lam=1.0).data
            == total_loss(outs, targets, lam=0.0).data)


def op_nodes(root):
    """Nodes reachable from `root`, itself included, that an op made."""
    seen, stack, ops = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        ops += bool(node._parents)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


def block_problem(shape, seed):
    """A PreNormBlock over D = 8 with 2 heads, its input z and a mask: the
    Window of 3 over [T, D] rows, or, over [T, K+1, D] tokens, every
    token's column allowed or not at random, the group slot always."""
    rng = np.random.default_rng(seed)
    block = nn.PreNormBlock(rng, 8, 2)
    for p in block.parameters():   # biases and LN shifts off zero
        p.data += rng.normal(size=p.shape) * 0.1
    z = Parameter(rng.normal(size=shape), "z")
    if len(shape) == 2:
        return block, z, window_tables([shape[0]], 3)
    T, n, _ = shape
    valid = rng.random((T, n)) < 0.6
    valid[:, -1] = True
    assert not valid.all()
    return block, z, np.broadcast_to(valid[:, None, :], (T, n, n))


@pytest.mark.parametrize("shape", [(7, 8), (4, 5, 8)], ids=["band", "tokens"])
def test_prenorm_block_matches_composition(shape):
    block, z, allowed = block_problem(shape, seed=len(shape))
    params = [z] + block.parameters()
    c = np.random.default_rng(0).normal(size=shape)
    fused = forward_backward(lambda: block(z, allowed), params, c)
    assert_matches(fused, forward_backward(
        lambda: composed_block(block, z, allowed), params, c), grad_tol=0.0)
    for p in params:
        p.requires_grad = False
    graph_free = block(z, allowed)
    assert graph_free._parents == ()
    np.testing.assert_array_equal(graph_free.data, fused[0])


def test_one_block_call_adds_one_op_node():
    block, z, allowed = block_problem((3, 5, 8), seed=0)
    assert op_nodes(block(z, allowed)) == 1


@pytest.mark.parametrize("w", [1, 3, 9])
@pytest.mark.parametrize("T", [1, 2, 4, 5, 9, 33, 256])
def test_window_attention_matches_dense_band(T, w):
    """Attention over the Window, as a node of its own and inside a block,
    against the same calls under the dense band mask: values and every
    gradient within 1e-12; without a graph, the graph's values."""
    rng = np.random.default_rng(T * 10 + w)
    q, k, v = (Parameter(rng.normal(size=(T, 8)), n) for n in "qkv")
    block = nn.PreNormBlock(rng, 8, 2)
    c = rng.normal(size=(T, 8))
    window, band = window_tables([T], w), band_mask([T], w)
    for f, params in ((lambda a: attention(q, k, v, 2, a), [q, k, v]),
                      (lambda a: block(q, a), [q] + block.parameters())):
        windowed = forward_backward(lambda: f(window), params, c)
        assert_matches(windowed, forward_backward(lambda: f(band), params, c),
                       value_tol=TOL)
        for p in params:
            p.requires_grad = False
        graph_free = f(window)
        assert graph_free._parents == ()
        np.testing.assert_array_equal(graph_free.data, windowed[0])
        for p in params:
            p.requires_grad = True


@pytest.mark.parametrize("lengths", [[4, 1, 5], [1, 1], [9, 2, 33]])
@pytest.mark.parametrize("w", [3, 9])
def test_packed_window_attention_matches_block_band(lengths, w):
    """Attention over the Window of sequences back to back, as a node and
    inside a block, against the same calls under the dense block-diagonal
    band mask, which allows no key of another sequence: values and every
    gradient within 1e-12."""
    rng = np.random.default_rng(sum(lengths) + w)
    T = sum(lengths)
    q, k, v = (Parameter(rng.normal(size=(T, 8)), n) for n in "qkv")
    block = nn.PreNormBlock(rng, 8, 2)
    c = rng.normal(size=(T, 8))
    window, band = window_tables(lengths, w), band_mask(lengths, w)
    for f, params in ((lambda a: attention(q, k, v, 2, a), [q, k, v]),
                      (lambda a: block(q, a), [q] + block.parameters())):
        assert_matches(forward_backward(lambda: f(window), params, c),
                       forward_backward(lambda: f(band), params, c),
                       value_tol=TOL)


def reduce_attention(q, k, v, heads, allowed):
    """Dense attention as one node whose softmax and backward take the row
    max and sums with numpy's reduce over the key axis."""
    shape = q.shape
    split = shape[:-1] + (heads, shape[-1] // heads)
    scale = 1.0 / math.sqrt(split[-1])
    qh, kh, vh = (t.data.reshape(split).swapaxes(-2, -3) for t in (q, k, v))
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    mask = allowed[..., None, :, :]
    mx = np.where(mask, s, -np.inf).max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(s - mx), 0.0)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = g.reshape(split).swapaxes(-2, -3)
        gp = gh @ vh.swapaxes(-1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        grads = (gs @ kh, (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2),
                 p.swapaxes(-1, -2) @ gh)
        for t, gt in zip((q, k, v), grads):
            t._accum(np.ascontiguousarray(gt.swapaxes(-2, -3).reshape(shape)))

    return Tensor((p @ vh).swapaxes(-2, -3).reshape(shape), True, (q, k, v),
                  backward)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12])
def test_slot_wise_softmax_matches_numpy_reduce(n):
    """The aggregator's attention ([T, K+1, D] tokens, 8 heads, invalid
    token columns) takes its row max and sums one key slot at a time: the
    same bits as numpy's reduce for up to 7 keys, which numpy adds left to
    right too, and within 1e-15 beyond."""
    rng = np.random.default_rng(n)
    q, k, v = (Parameter(rng.normal(size=(16, n, 32)), m) for m in "qkv")
    valid = rng.random((16, n)) < 0.6
    valid[:, -1] = True
    allowed = np.broadcast_to(valid[:, None, :], (16, n, n))
    c = rng.normal(size=(16, n, 32))
    tol = 0.0 if n <= 7 else 1e-15
    assert_matches(
        forward_backward(lambda: attention(q, k, v, 8, allowed), [q, k, v], c),
        forward_backward(lambda: reduce_attention(q, k, v, 8, allowed),
                         [q, k, v], c), value_tol=tol, grad_tol=tol)


def full_slot_aggregate(agg, tokens_with_group, valid_tokens):
    """GroupAggregator's body before it packed the valid slots: every block
    over all K + 1 slots of every snippet under the broadcast column mask,
    then an index node that picks the group slot."""
    valid = np.concatenate(
        [valid_tokens, np.ones(valid_tokens.shape[:-1] + (1,), dtype=bool)],
        axis=-1)
    n = valid.shape[-1]
    allowed = np.broadcast_to(valid[..., None, :], valid.shape[:-1] + (n, n))
    z = tokens_with_group
    for block in agg.blocks:
        z = block(z, allowed)
    return index(z, (..., -1, slice(None)))


@pytest.mark.parametrize("K, heads, layers", [(3, 4, 2), (6, 8, 3)])
def test_packed_aggregator_matches_full_slots(K, heads, layers):
    """Snippets with no valid token, with every token valid and with gaps:
    the packed aggregator's group vectors equal the full-slot oracle's bit
    for bit, every gradient (tokens, global averages, each Parameter)
    agrees within 1e-12, and without a graph the values are the same."""
    rng = np.random.default_rng(K)
    T, D = 9, 16
    agg = spatial_attention.GroupAggregator(
        ModelConfig(feature_dim=D, num_classes=1, K=K, group_heads=heads,
                    group_layers=layers), rng)
    for p in agg.parameters():   # biases and LN shifts off zero
        p.data += rng.normal(size=p.shape) * 0.1
    valid = rng.random((T, K)) < 0.5
    valid[0], valid[1] = False, True
    tokens = Parameter(rng.normal(size=(T, K, D)), "tokens")
    tokens.data[~valid] = 0.0   # as pooling leaves an empty slot
    g0 = Parameter(rng.normal(size=(T, 1, D)), "g0")
    params = [tokens, g0] + agg.parameters()
    c = rng.normal(size=(T, D))

    def run(aggregate):
        return forward_backward(
            lambda: aggregate(agg, concat([tokens, g0], axis=1), valid),
            params, c)

    packed = run(spatial_attention.GroupAggregator.__call__)
    assert_matches(packed, run(full_slot_aggregate))
    for p in params:
        p.requires_grad = False
    graph_free = agg(concat([tokens, g0], axis=1), valid)
    assert graph_free._parents == ()
    np.testing.assert_array_equal(graph_free.data, packed[0])


def test_fit_on_packed_slots_matches_full_slots(monkeypatch, tmp_path):
    """Two epochs of the criterion-6 training with the packed aggregator
    and with the full-slot oracle write the same bytes."""
    packed = toy_fit_bytes(tmp_path, "packed")
    monkeypatch.setattr(spatial_attention.GroupAggregator, "__call__",
                        full_slot_aggregate)
    assert toy_fit_bytes(tmp_path, "full") == packed


def toy_model_and_samples(data):
    """The criterion-6 model (untrained) and its samples of a synthetic
    set written to `data`."""
    spec = SyntheticSpec(seed=1)
    records = generate_synthetic(spec, data)
    cfg = ModelConfig(feature_dim=spec.feature_dim, num_classes=2, K=3,
                      group_layers=2, group_heads=4, temporal_heads=4,
                      num_standard_layers=2, num_strided_layers=3)
    samples = [prepare_sample(r, read_features(data / "features"
                                               / f"{r.id}.ptfv"), cfg.K)
               for r in records]
    return SubjectPriorDetector(cfg, np.random.default_rng(0)), samples


def toy_fit_bytes(tmp_path, run):
    """The checkpoint.ptck and loss_log.jsonl bytes of two epochs of the
    criterion-6 training, written to tmp_path / run."""
    tc = training.TrainConfig(lr_init=1e-3, epochs=2, warmup_epochs=1,
                              batch_size=2, seed=0)
    model, samples = toy_model_and_samples(tmp_path / "data")
    training.fit(model, samples, tc, out_dir=tmp_path / run)
    return [(tmp_path / run / name).read_bytes()
            for name in ("checkpoint.ptck", "loss_log.jsonl")]


def test_toy_batch_graph_has_25_op_nodes(tmp_path):
    # 7 attention blocks, 12 convolutions (11 with the ReLU after them
    # fused in: the 2 mapping ones, the 8 tower layers and the offsets'),
    # 3 strided down-samplings, the group-row gather, the pyramid's concat
    # of its levels and the loss, for one video or a batch of two: 31 per
    # video when a down-sampling was 3 nodes and each video had a graph of
    # its own, 42 when each ReLU was a node of its own, 155 when a block
    # was 12 nodes and a convolution 4
    model, samples = toy_model_and_samples(tmp_path)
    for batch in (samples[:1], samples[:2]):
        loss = training.video_loss(model, batch, training.TrainConfig())
        assert op_nodes(loss) == 25


def every_node_backward(root):
    """Tensor.backward's reverse sweep over a depth-first walk that visits
    every node requiring a gradient, leaves included: the op nodes come out
    in the same order as from the walk over op nodes alone."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root._accum(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@pytest.fixture
def leaf_reads(monkeypatch):
    """The leaves whose `_parents` are read, once per read: a walk that
    expands a leaf reads them."""
    slot, reads = Tensor._parents, []

    def get(t):
        if t._backward is None:
            reads.append(t)
        return slot.__get__(t)

    monkeypatch.setattr(Tensor, "_parents", property(get, slot.__set__))
    return reads


def test_backward_expands_no_leaf(leaf_reads, tmp_path):
    # a diamond: h has two consumers, and its backward runs once, on the
    # sum of their gradients
    x = Parameter(np.array([1.0, -2.0]), "x")
    h = x * x
    (h * 2.0 + h * 3.0).sum().backward()
    np.testing.assert_array_equal(x.grad, 10.0 * x.data)
    assert leaf_reads == []
    # a leaf root's gradient is 1
    p = Parameter(np.array(3.0), "p")
    p.backward()
    assert p.grad == 1.0
    # a toy video-step: no leaf expanded, and the Parameter gradients of the
    # walk over every node, bit for bit
    model, samples = toy_model_and_samples(tmp_path)
    params = model.parameters()

    def grads(walk):
        for q in params:
            q.grad = None
        walk(training.video_loss(model, samples[0], training.TrainConfig()))
        return [q.grad for q in params]

    leaf_reads.clear()
    step = grads(Tensor.backward)
    assert leaf_reads == []
    for g, ref in zip(step, grads(every_node_backward)):
        np.testing.assert_array_equal(g, ref)


def test_fit_matches_composition_bitwise(monkeypatch, tmp_path):
    """Two epochs of the criterion-6 training with the fused block and
    convolution nodes and with their compositions write the same bytes."""
    fused = toy_fit_bytes(tmp_path, "fused")
    monkeypatch.setattr(nn.PreNormBlock, "__call__", composed_block)
    monkeypatch.setattr(nn, "conv1d", composed_conv1d)
    assert toy_fit_bytes(tmp_path, "composed") == fused


def test_whole_model_matches_composition(monkeypatch):
    """The toy end-to-end problem (every LayerNorm and the loss) with the
    fused nodes and with the compositions, on the same weights."""
    loss_fn, params = build_toy_problem(seed=3, T=5)
    fused = forward_backward(loss_fn, params)
    monkeypatch.setattr(nn.PreNormBlock, "__call__", composed_block)
    monkeypatch.setattr(nn, "layer_norm", composed_layer_norm)
    monkeypatch.setattr(training, "total_loss", composed_total_loss)
    assert_matches(fused, forward_backward(loss_fn, params))


def test_whole_model_matches_linear_composition(monkeypatch):
    """The toy end-to-end problem with every dense layer and convolution
    built on the two-node linear; the aggregator's linears run over
    [T, K+1, D], so the loss agrees within 1e-12."""
    loss_fn, params = build_toy_problem(seed=4, T=5)
    fused = forward_backward(loss_fn, params)
    monkeypatch.setattr(nn.PreNormBlock, "__call__", composed_block)
    monkeypatch.setattr(nn, "linear", composed_linear)
    monkeypatch.setattr(nn, "conv1d", functools.partial(
        composed_conv1d, dense=composed_linear))
    assert_matches(fused, forward_backward(loss_fn, params), value_tol=TOL)
