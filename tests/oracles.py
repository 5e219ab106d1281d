"""Test-side oracles. `linear`, `layer_norm`, `attention` and `relu` are
the single-op nodes the model's fused nodes replaced, built on autograd's
shared analytic forwards and backwards; `attention` also takes a dense
bool mask (`band_mask` is a Window's) and a `Padded` Packed layout, both
run by `masked_attention`, the slow reference of the model's attention.
The `composed_*` functions rebuild a pre-norm block (over every row, or
over each snippet's last row), a convolution, a layer norm, a dense layer
and the loss from smaller nodes, summing gradients in the fused nodes'
order."""

import math
from typing import NamedTuple

import numpy as np

from taldet import autograd
from taldet.autograd import (DimensionError, InvalidMaskError, Packed,
                             Tensor, Window, concat, stride_index,
                             window_index)
from taldet.heads import FOCAL_ALPHA, FOCAL_GAMMA


def op(out, parents, grads):
    """A node over `parents` whose backward adds grads(g)[i] into parent i
    where it needs one (grads may add the later parents' gradients itself
    and return fewer arrays); a constant if no parent needs a gradient."""
    if not any(p.requires_grad for p in parents):
        return Tensor(out)

    def backward(g):
        for parent, grad in zip(parents, grads(g)):
            if parent.requires_grad:
                parent._accum(grad)

    return Tensor(out, True, parents, backward)


def linear(x, w, b=None):
    """out[..., j] = sum_i x[..., i] w[i, j] (+ b[j]), as one node; x's
    leading axes are flattened, so the forward and every gradient are
    single 2-D products over its rows."""
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear: {x.shape} incompatible with {w.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    out = autograd._linear_forward(x2, w, b)
    return op(out.reshape(x.shape[:-1] + out.shape[-1:]),
              (x, w) if b is None else (x, w, b),
              lambda g: [autograd._linear_backward(
                  g.reshape(out.shape), x2, w, b).reshape(x.shape)])


def layer_norm(x, gamma, beta, eps=autograd.LAYER_NORM_EPS):
    """The last axis of x standardised, scaled by gamma and shifted by
    beta, as one node that keeps the standardised input and inverse std."""
    out, xhat, _, inv = autograd._layer_norm_forward(x.data, gamma.data,
                                                     beta.data, eps)
    return op(out, (x, gamma, beta), lambda g: [autograd._layer_norm_backward(
        g, gamma, beta, xhat, inv, True)])


def masked_attention(q, k, v, heads, allowed):
    """Attention of queries q [..., M, D] over keys and values k, v
    [..., N, D] under the bool mask `allowed` [..., M, N], in numpy: the
    merged-heads output and its backward. A masked score is -inf, so its
    weight is exactly 0; the softmax takes its max and sum one key slot at
    a time, as the model's attention does."""
    if not allowed.any(axis=-1).all():
        raise InvalidMaskError("attention row with no allowed position")
    d = q.shape[-1] // heads
    scale = 1.0 / math.sqrt(d)
    qh, kh, vh = (t.reshape(t.shape[:-1] + (heads, d)).swapaxes(-2, -3)
                  for t in (q, k, v))
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    np.copyto(s, -np.inf, where=~allowed[..., None, :, :])
    e = np.exp(s - autograd._fold(np.maximum, s))
    p = e / autograd._fold(np.add, e)

    def backward(g):
        # the gradients in C order: k's merged heads are otherwise a
        # strided view, whose sums round differently
        gh = g.reshape(g.shape[:-1] + (heads, d)).swapaxes(-2, -3)
        gp = gh @ vh.swapaxes(-1, -2)
        gs = p * (gp - autograd._fold(np.add, gp * p)) * scale
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return [np.ascontiguousarray(autograd._merge_heads(gt))
                for gt in (gs @ kh, gk, p.swapaxes(-1, -2) @ gh)]

    return autograd._merge_heads(p @ vh), backward


class Padded(NamedTuple):
    """A Packed layout run as the aggregator ran it before its runs: the
    rows laid out [T, n, D] with zeros, n the largest row count, each
    snippet's rows first and its empty slots masked."""
    packed: Packed

    def last_rows(self):
        return self.packed.last_rows()


def padded_attention(q, k, v, heads, packed, last=False):
    """masked_attention over the [T, n, D] layout of a Packed layout's rows
    and its slot mask, read back to the rows; with `last`, q [T, D] holds
    one query per snippet, a [T, 1, D] layout under the same mask."""
    snippets = np.diff(packed.snippets)
    counts = np.repeat(np.diff(packed.rows) // snippets, snippets)
    T, n = len(counts), int(counts.max())
    mask = np.arange(n) < counts[:, None]
    slots = np.flatnonzero(mask)

    def unpack(x):
        out = np.zeros((T * n, x.shape[1]))
        out[slots] = x
        return out.reshape(T, n, x.shape[1])

    def pack(x):
        return x.reshape(T * n, -1)[slots]

    out, dense_backward = masked_attention(
        q[:, None] if last else unpack(q), unpack(k), unpack(v), heads,
        mask[:, None])

    def backward(g):
        gq, gk, gv = dense_backward(g[:, None] if last else unpack(g))
        return [gq[:, 0] if last else pack(gq), pack(gk), pack(gv)]

    return out[:, 0] if last else pack(out), backward


def attention(q, k, v, heads, allowed, last=False):
    """Multi-head attention of q, k, v [..., N, D] as one node, under the
    dense bool mask `allowed` [..., N, N], over the [N, D] rows of a
    Window or a Packed layout as the model runs them, or of a Padded one;
    with `last`, q [T, D] holds the queries of each snippet's last row of
    a Packed layout."""
    if isinstance(allowed, Padded):
        out, attn_backward = padded_attention(q.data, k.data, v.data, heads,
                                              allowed.packed, last)
    elif isinstance(allowed, (Window, Packed)):
        out, attn_backward = autograd._attention_forward(
            q.data, k.data, v.data, heads, allowed, last)
    else:
        out, attn_backward = masked_attention(q.data, k.data, v.data, heads,
                                              allowed)
    return op(out, (q, k, v), attn_backward)


def relu(x):
    return op(np.maximum(x.data, 0.0), (x,), lambda g: [g * (x.data > 0)])


_relu = relu   # for composed_conv1d, whose `relu` flag shadows the node


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
    return op(out, tuple(p for p, _ in links),
              lambda g: [g * slope for _, slope in links])


def index(x, key):
    """x.data[key] as a node whose backward scatters with np.add.at."""
    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, key, g)
        x._accum(full)

    return Tensor(x.data[key], True, (x,), backward)


def sum_axis(x, axis, keepdims=False):
    """x summed over `axis` as one node."""
    return op(x.data.sum(axis=axis, keepdims=keepdims), (x,), lambda g: [
        np.broadcast_to(g if keepdims else np.expand_dims(g, axis),
                        x.shape)])


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
    return index(concat([x, Tensor(np.zeros((1,) + x.shape[1:]))]), idx)


def composed_conv1d(x, w, b=None, index=None, relu=False, dense=linear):
    """conv1d as a window gather, a reshape of the windows and of the
    kernel, `dense` over them and, with `relu`, a ReLU node."""
    A, d_in = x.shape
    k, _, d_out = w.shape
    idx = window_index([A], k) if index is None else index
    windows = scatter_gather_rows(x, idx).reshape(A, k * d_in)
    out = dense(windows, w.reshape(k * d_in, d_out), b)
    return _relu(out) if relu else out


def composed_depthwise(x, w, stride, lengths):
    """depthwise_conv1d as the composition it replaced: a gather of the
    strided windows whose backward scatters with np.add.at, a broadcast
    product with the kernel and a sum over the window."""
    windows = scatter_gather_rows(x, stride_index(lengths, stride,
                                                  w.shape[0]))
    return sum_axis(windows * w, 1)


def composed_block(block, z, allowed):
    """A PreNormBlock as the composition of layer_norm, linear, attention
    and relu nodes over its Parameters; `allowed` is anything `attention`
    takes."""
    attn, ffn = block.attn, block.ffn
    x = layer_norm(z, block.ln1.gamma, block.ln1.beta)
    q, k, v = (linear(x, p.w, p.b) for p in (attn.wq, attn.wk, attn.wv))
    h = linear(attention(q, k, v, attn.num_heads, allowed), attn.wo.w,
               attn.wo.b) + z
    x = layer_norm(h, block.ln2.gamma, block.ln2.beta)
    return linear(relu(linear(x, ffn.fc1.w, ffn.fc1.b)), ffn.fc2.w,
                  ffn.fc2.b) + h


def composed_last_rows(block, z, packed):
    """PreNormBlock.last_rows as the same composition: LN1, K and V over
    every row of z, an index of each snippet's last row before the Q
    projection and the residual, and the rest over those T rows."""
    attn, ffn = block.attn, block.ffn
    rows = packed.last_rows()
    x = layer_norm(z, block.ln1.gamma, block.ln1.beta)
    q = linear(index(x, rows), attn.wq.w, attn.wq.b)
    k, v = (linear(x, p.w, p.b) for p in (attn.wk, attn.wv))
    h = linear(attention(q, k, v, attn.num_heads, packed, last=True),
               attn.wo.w, attn.wo.b) + index(z, rows)
    x = layer_norm(h, block.ln2.gamma, block.ln2.beta)
    return linear(relu(linear(x, ffn.fc1.w, ffn.fc1.b)), ffn.fc2.w,
                  ffn.fc2.b) + h


def composed_layer_norm(x, gamma, beta, eps=1e-5):
    scale = 1.0 / x.shape[-1]   # a mean as the fused layer norm takes it
    mu = sum_axis(x, -1, keepdims=True) * scale
    xc = x + mu * -1.0   # a Tensor has no subtraction; the bits are x - mu
    var = sum_axis(xc * xc, -1, keepdims=True) * scale
    inv = power(var + eps, -0.5)
    return xc * inv * gamma + beta


def composed_total_loss(outs, targets, lam=1.0, strict_positive_only=False):
    """total_loss of a batch of one video (whose anchors are all of them)
    from smaller nodes."""
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
