"""The model's fused nodes (`conv1d`, `depthwise_conv1d`, `prenorm_block`,
`heads.total_loss`) against the compositions in `oracles.py`, and the
oracle `linear` and `layer_norm` nodes against their own compositions.
Forward values match bit for bit (a `linear` over more than two axes within
1e-12) and every gradient within 1e-12; `conv1d` and `prenorm_block` (over
every row, or over each snippet's last row) sum their gradients in their
composition's order, so theirs match bit for bit, down to a training run's
checkpoint bytes. `conv1d`'s gather backward,
fused ReLU and gather-free 1-wide kernel, and `depthwise_conv1d` over one
sequence, match the scatter, ReLU node and gather they replaced bit for
bit (`depthwise_conv1d` over several within 1e-12). `Tensor.backward`
walks only op nodes, with the bits of a walk over every node.

Each attention layout is checked against the dense formulation it replaced:
a `Window` against the dense band mask (`band_mask`) within 1e-12, and the
aggregator's `Packed` valid slots against its blocks' composition over all
K + 1 slots under the column mask: with every block over all the packed
rows, the same group vectors and, in training, the same checkpoint bytes.
The aggregator's last block, which computes the group rows only, matches
the full block followed by the group-row gather within 1e-12 (its products
run over fewer rows and round differently); in training it gives the same
checkpoint bytes. The dense slot-wise softmax that a Packed layout runs
matches numpy's reduce over the keys bit for bit for up to 7 keys."""

import functools
import math

import numpy as np
import pytest

import oracles
from oracles import (attention, band_mask, composed_block, composed_conv1d,
                     composed_depthwise, composed_last_rows,
                     composed_layer_norm, composed_linear,
                     composed_total_loss, index, layer_norm, linear)
from taldet import nn, spatial_attention, training
from taldet.autograd import (Parameter, Tensor, concat, conv1d,
                             depthwise_conv1d, gather_rows, packed_layout,
                             window_index, window_tables)
from taldet.checksuite import build_toy_problem
from taldet.dataio import (SyntheticSpec, generate_synthetic,
                           read_checkpoint, read_features)
from taldet.heads import (GroundTruthSegment, HeadOutput, assign_targets,
                          total_loss)
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample
from taldet.profile import op_nodes

TOL = 1e-12


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


def block_problem(shape, seed):
    """A PreNormBlock over D = 8 with 2 heads, its input rows z and their
    layout: for shape [T, D], the Window of 3 over T rows; for [T, K+1, D]
    tokens, the Packed layout of the valid slots, each token valid or not
    at random and the group slot always, with one row of z per valid
    slot."""
    rng = np.random.default_rng(seed)
    block = nn.PreNormBlock(rng, 8, 2)
    for p in block.parameters():   # biases and LN shifts off zero
        p.data += rng.normal(size=p.shape) * 0.1
    if len(shape) == 2:
        return (block, Parameter(rng.normal(size=shape), "z"),
                window_tables([shape[0]], 3))
    valid = rng.random(shape[:2]) < 0.6
    valid[:, -1] = True
    assert not valid.all()
    return (block, Parameter(rng.normal(size=(valid.sum(), shape[2])), "z"),
            packed_layout(valid))


@pytest.mark.parametrize("shape", [(7, 8), (4, 5, 8)], ids=["band", "tokens"])
def test_prenorm_block_matches_composition(shape):
    block, z, allowed = block_problem(shape, seed=len(shape))
    params = [z] + block.parameters()
    c = np.random.default_rng(0).normal(size=z.shape)
    fused = forward_backward(lambda: block(z, allowed), params, c)
    assert_matches(fused, forward_backward(
        lambda: composed_block(block, z, allowed), params, c), grad_tol=0.0)
    for p in params:
        p.requires_grad = False
    graph_free = block(z, allowed)
    assert graph_free._parents == ()
    np.testing.assert_array_equal(graph_free.data, fused[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_last_rows_block_matches_composition(seed):
    """The block over each snippet's last row against its composition,
    which indexes those rows of LN1's output before the Q projection and
    of z for the residual: the same bits for the value and every
    gradient, and without a graph the same value."""
    block, z, packed = block_problem((4, 5, 8), seed=seed)
    params = [z] + block.parameters()
    c = np.random.default_rng(0).normal(size=(4, 8))
    fused = forward_backward(lambda: block.last_rows(z, packed), params, c)
    assert_matches(fused, forward_backward(
        lambda: composed_last_rows(block, z, packed), params, c),
        grad_tol=0.0)
    for p in params:
        p.requires_grad = False
    np.testing.assert_array_equal(block.last_rows(z, packed).data, fused[0])


def test_one_block_call_adds_one_op_node():
    block, z, allowed = block_problem((3, 5, 8), seed=0)
    assert op_nodes(block(z, allowed)) == 1


def band_calls(q, k, v, block):
    """(call over a Window, its oracle under the band mask, Parameters) for
    the attention node and for the block against its composition."""
    return ((lambda a: attention(q, k, v, 2, a),
             lambda a: attention(q, k, v, 2, a), [q, k, v]),
            (lambda a: block(q, a), lambda a: composed_block(block, q, a),
             [q] + block.parameters()))


@pytest.mark.parametrize("w", [1, 3, 9])
@pytest.mark.parametrize("T", [1, 2, 4, 5, 9, 33, 256])
def test_window_attention_matches_dense_band(T, w):
    """Attention over the Window, as a node of its own and inside a block,
    against the attention node and the block's composition under the dense
    band mask: values and every gradient within 1e-12; without a graph,
    the graph's values."""
    rng = np.random.default_rng(T * 10 + w)
    q, k, v = (Parameter(rng.normal(size=(T, 8)), n) for n in "qkv")
    block = nn.PreNormBlock(rng, 8, 2)
    c = rng.normal(size=(T, 8))
    window, band = window_tables([T], w), band_mask([T], w)
    for f, oracle, params in band_calls(q, k, v, block):
        windowed = forward_backward(lambda: f(window), params, c)
        assert_matches(windowed, forward_backward(lambda: oracle(band),
                                                  params, c), value_tol=TOL)
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
    inside a block, against their oracles under the dense block-diagonal
    band mask, which allows no key of another sequence: values and every
    gradient within 1e-12."""
    rng = np.random.default_rng(sum(lengths) + w)
    T = sum(lengths)
    q, k, v = (Parameter(rng.normal(size=(T, 8)), n) for n in "qkv")
    block = nn.PreNormBlock(rng, 8, 2)
    c = rng.normal(size=(T, 8))
    window, band = window_tables(lengths, w), band_mask(lengths, w)
    for f, oracle, params in band_calls(q, k, v, block):
        assert_matches(forward_backward(lambda: f(window), params, c),
                       forward_backward(lambda: oracle(band), params, c),
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


def full_slot_aggregate(agg, tokens, valid):
    """GroupAggregator's body before it packed the valid slots: every
    block's composition over all K + 1 slots of every snippet under the
    broadcast column mask, then an index node that picks the group slot."""
    n = valid.shape[-1]
    allowed = np.broadcast_to(valid[..., None, :], valid.shape[:-1] + (n, n))
    z = tokens
    for block in agg.blocks:
        z = composed_block(block, z, allowed)
    return index(z, (..., -1, slice(None)))


def gathered_last_block(agg, tokens, valid):
    """GroupAggregator's body before its last block computed the group
    rows alone: every block over all the packed rows, then a gather of the
    group rows."""
    packed = packed_layout(valid)
    z = gather_rows(tokens.reshape(-1, tokens.shape[-1]),
                    np.flatnonzero(valid))
    for block in agg.blocks:
        z = block(z, packed)
    return gather_rows(z, packed.last_rows())


def aggregator_problem(K, heads, layers, seed):
    """A GroupAggregator over D = 16 and the Parameters of its input, 9
    snippets of K tokens and a group slot (`valid` [9, K + 1], the group
    column true): snippet 0 with no valid token, snippet 1 with every token
    valid, the others at random; and weights for its output."""
    rng = np.random.default_rng(seed)
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
    valid = np.concatenate([valid, np.ones((T, 1), dtype=bool)], axis=1)
    return agg, valid, tokens, g0, rng.normal(size=(T, D))


@pytest.mark.parametrize("K, heads, layers", [(3, 4, 2), (6, 8, 3)])
def test_packed_aggregator_matches_full_slots(K, heads, layers):
    """Snippets with no valid token, with every token valid and with gaps:
    with every block over all the packed rows and a gather of the group
    rows, the group vectors equal the full-slot oracle's bit for bit and
    every gradient (tokens, group slots, each Parameter) agrees within
    1e-12; the aggregator, whose last block computes the group rows alone,
    agrees within 1e-12, and without a graph gives the same values."""
    agg, valid, tokens, g0, c = aggregator_problem(K, heads, layers, seed=K)
    params = [tokens, g0] + agg.parameters()

    def run(aggregate):
        return forward_backward(
            lambda: aggregate(agg, concat([tokens, g0], axis=1), valid),
            params, c)

    full = run(full_slot_aggregate)
    assert_matches(run(gathered_last_block), full)
    packed = run(spatial_attention.GroupAggregator.__call__)
    assert_matches(packed, full, value_tol=TOL)
    for p in params:
        p.requires_grad = False
    graph_free = agg(concat([tokens, g0], axis=1), valid)
    assert graph_free._parents == ()
    np.testing.assert_array_equal(graph_free.data, packed[0])


@pytest.mark.parametrize("layers", [1, 2])
def test_last_block_matches_gathered_full_block(layers):
    """The last block over the group rows alone against the full block and
    a gather of the group rows, with 1 or 2 blocks (so the first feeds the
    last), over a snippet with its group slot only and one with every slot
    valid: the group vectors and every gradient within 1e-12."""
    agg, valid, tokens, g0, c = aggregator_problem(4, 4, layers, seed=layers)
    params = [tokens, g0] + agg.parameters()

    def run(aggregate):
        return forward_backward(
            lambda: aggregate(agg, concat([tokens, g0], axis=1), valid),
            params, c)

    assert_matches(run(spatial_attention.GroupAggregator.__call__),
                   run(gathered_last_block), value_tol=TOL)


def test_fit_on_packed_slots_matches_full_slots(monkeypatch, tmp_path):
    """Two epochs of the criterion-6 training. With every aggregator block
    over all the packed rows and a gather of the group rows, and with the
    full-slot oracle: the same bytes. With the group-row last block: the
    same loss log and the same checkpoint entries, bit for bit."""
    packed = toy_fit_bytes(tmp_path, "packed")
    aggregator = spatial_attention.GroupAggregator
    monkeypatch.setattr(aggregator, "__call__", gathered_last_block)
    gathered = toy_fit_bytes(tmp_path, "gathered")
    monkeypatch.setattr(aggregator, "__call__", full_slot_aggregate)
    assert toy_fit_bytes(tmp_path, "full") == gathered
    assert packed[1] == gathered[1]
    entries = [read_checkpoint(tmp_path / run / "checkpoint.ptck")
               for run in ("packed", "full")]
    assert [n for n, _ in entries[0]] == [n for n, _ in entries[1]]
    for (name, a), (_, b) in zip(*entries):
        np.testing.assert_array_equal(a, b, err_msg=name)


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


def test_toy_batch_graph_has_24_op_nodes(tmp_path):
    # 7 attention blocks, the last aggregator block giving the group rows
    # itself, 12 convolutions (11 with the ReLU after them fused in: the 2
    # mapping ones, the 8 tower layers and the offsets'), 3 strided
    # down-samplings, the pyramid's concat of its levels and the loss, for
    # one video or a batch of two: 25 with a group-row gather after the
    # last block, 31 per video when a down-sampling was 3 nodes and each
    # video had a graph of its own, 42 when each ReLU was a node of its
    # own, 155 when a block was 12 nodes and a convolution 4
    model, samples = toy_model_and_samples(tmp_path)
    for batch in (samples[:1], samples[:2]):
        loss = training.video_loss(model, batch, training.TrainConfig())
        assert op_nodes(loss) == 24


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


def compose_blocks(monkeypatch):
    """Every pre-norm block, the aggregator's group-row last block too, as
    its composition."""
    monkeypatch.setattr(nn.PreNormBlock, "__call__", composed_block)
    monkeypatch.setattr(nn.PreNormBlock, "last_rows", composed_last_rows)


def test_fit_matches_composition_bitwise(monkeypatch, tmp_path):
    """Two epochs of the criterion-6 training with the fused block and
    convolution nodes and with their compositions write the same bytes."""
    fused = toy_fit_bytes(tmp_path, "fused")
    compose_blocks(monkeypatch)
    monkeypatch.setattr(nn, "conv1d", composed_conv1d)
    assert toy_fit_bytes(tmp_path, "composed") == fused


def test_whole_model_matches_composition(monkeypatch):
    """The toy end-to-end problem (every LayerNorm and the loss) with the
    fused nodes and with the compositions, on the same weights."""
    loss_fn, params = build_toy_problem(seed=3, T=5)
    fused = forward_backward(loss_fn, params)
    compose_blocks(monkeypatch)
    monkeypatch.setattr(oracles, "layer_norm", composed_layer_norm)
    monkeypatch.setattr(training, "total_loss", composed_total_loss)
    assert_matches(fused, forward_backward(loss_fn, params))


def test_whole_model_matches_linear_composition(monkeypatch):
    """The toy end-to-end problem with every dense layer and convolution
    built on the two-node linear: the loss agrees within 1e-12."""
    loss_fn, params = build_toy_problem(seed=4, T=5)
    fused = forward_backward(loss_fn, params)
    compose_blocks(monkeypatch)
    monkeypatch.setattr(oracles, "linear", composed_linear)
    monkeypatch.setattr(nn, "conv1d", functools.partial(
        composed_conv1d, dense=composed_linear))
    assert_matches(fused, forward_backward(loss_fn, params), value_tol=TOL)
