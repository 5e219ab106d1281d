"""`autograd.linear`, `autograd.layer_norm`, `autograd.conv1d`,
`autograd.prenorm_block` and `heads.total_loss` are single nodes with an
analytic backward. The compositions of smaller nodes they replaced are kept
here as oracles: the fused forward values must match them bit for bit (a
`linear` over more than two axes within 1e-12, since its weight gradient is
one 2-D product instead of one per leading index), and every gradient must
agree within 1e-12; `conv1d` and `prenorm_block` sum every gradient in their
composition's order, so theirs must match bit for bit too, down to the
checkpoint bytes of a training run. `conv1d`'s column-wise backward of the
window gather is checked against the `np.add.at` scatter it replaced.

Attention has two layouts, each checked against the dense formulation it
replaced: windowed attention (`autograd.Window`, the temporal layers)
against attention under the dense band mask (`band_mask`) within 1e-12,
and the aggregator's key-slot-wise softmax against numpy's reduce over the
key axis, bit for bit for up to 7 keys."""

import functools
import math

import numpy as np
import pytest

from taldet import autograd, nn, training
from taldet.autograd import (Parameter, Tensor, attention, conv1d,
                             depthwise_conv1d, layer_norm, linear,
                             window_index, window_tables)
from taldet.checksuite import build_toy_problem
from taldet.dataio import SyntheticSpec, generate_synthetic, read_features
from taldet.heads import (FOCAL_ALPHA, FOCAL_GAMMA, GroundTruthSegment,
                          HeadOutput, assign_targets, total_loss)
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample

TOL = 1e-12


def band_mask(T, window_size):
    """The dense oracle of `window_tables(T, window_size)`: allowed[i, j]
    when |i - j| is within the half-window."""
    idx = np.arange(T)
    return np.abs(idx[:, None] - idx[None, :]) <= (window_size - 1) // 2


def node(out, *links):
    """A node holding `out` whose backward passes g * slope to the parent of
    each (parent, slope) link; every slope has the shape of `out`."""
    def backward(g):
        for parent, slope in links:
            parent._accum(g * slope)

    return Tensor(out, True, tuple(p for p, _ in links), backward)


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


def composed_conv1d(x, w, b=None, index=None, dense=linear):
    """conv1d as a window gather, a reshape of the windows and of the
    kernel, and `dense` over them."""
    A, d_in = x.shape
    k, _, d_out = w.shape
    idx = window_index(np.array([A]), k) if index is None else index
    windows = scatter_gather_rows(x, idx).reshape(A, k * d_in)
    return dense(windows, w.reshape(k * d_in, d_out), b)


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
        pred = outs.offsets[pos]
        ps, pe = pred[..., 0], pred[..., 1]
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


@pytest.mark.parametrize("T, k, stride", [(7, 2, 2), (10, 4, 4), (9, 5, 2)])
def test_depthwise_gather_matches_scatter(monkeypatch, T, k, stride):
    # T not a multiple of the stride: the last window reads the zero row
    rng = np.random.default_rng(T)
    x = Parameter(rng.normal(size=(T, 3)), "x")
    w = Parameter(rng.normal(size=(k, 3)), "w")
    c = rng.normal(size=(-(-T // stride), 3))
    gather = forward_backward(
        lambda: depthwise_conv1d(x, w, stride), [x, w], c)
    monkeypatch.setattr(autograd, "_gather_rows", scatter_gather_rows)
    assert_matches(gather, forward_backward(
        lambda: depthwise_conv1d(x, w, stride), [x, w], c), grad_tol=0.0)


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
    return HeadOutput(logits, offsets, step, stride), targets


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
        return block, z, window_tables(shape[0], 3)
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
    window, band = window_tables(T, w), band_mask(T, w)
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


def test_toy_video_step_graph_has_42_op_nodes(tmp_path):
    # 7 attention blocks, 12 convolutions, 11 ReLUs (2 after the mapping
    # convolutions, 8 in the towers, 1 on the offsets), 3 strided
    # down-samplings of 3 nodes (gather, product, sum), the group-slot
    # index, the heads' concat and the loss; 155 when a block was 12 nodes
    # and a convolution 4
    model, samples = toy_model_and_samples(tmp_path)
    loss = training.video_loss(model, samples[0], training.TrainConfig())
    assert op_nodes(loss) == 42


def test_fit_matches_composition_bitwise(monkeypatch, tmp_path):
    """Two epochs of the criterion-6 training with the fused block and
    convolution nodes and with their compositions write the same bytes."""
    tc = training.TrainConfig(lr_init=1e-3, epochs=2, warmup_epochs=1,
                              batch_size=2, seed=0)

    def run(out):
        model, samples = toy_model_and_samples(tmp_path / "data")
        training.fit(model, samples, tc, out_dir=out)
        return [(out / name).read_bytes()
                for name in ("checkpoint.ptck", "loss_log.jsonl")]

    fused = run(tmp_path / "fused")
    monkeypatch.setattr(nn.PreNormBlock, "__call__", composed_block)
    monkeypatch.setattr(nn, "conv1d", composed_conv1d)
    assert run(tmp_path / "composed") == fused


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
