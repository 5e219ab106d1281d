"""Parameter containers and the attention/convolution blocks built on autograd.

The same pre-norm attention block serves both the subject aggregation stack
(over a `Packed` layout of the valid slots) and the temporal pyramid (over a
sliding `Window`). `Linear`, `LayerNorm`, `FeedForward` and
`MultiHeadSelfAttention` only hold a block's Parameters, under the names its
checkpoint entries carry; the block runs them as one `prenorm_block` node.
"""

from __future__ import annotations

import math

import numpy as np

from .autograd import (DimensionError, Parameter, conv1d, depthwise_conv1d,
                       prenorm_block)


class Module:
    """Minimal container: any attribute that is a Parameter, a Module or a
    list of Modules is discovered by named_parameters() in insertion
    order."""

    def named_parameters(self, prefix: str = ""):
        for name, val in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(val, Parameter):
                yield full, val
            elif isinstance(val, Module):
                yield from val.named_parameters(full + ".")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]


def uniform_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """x @ w + b; with `bias` false, x @ w and `b` is None."""

    def __init__(self, rng, d_in, d_out, name="", bias=True):
        self.w = Parameter(uniform_init(rng, (d_in, d_out), d_in, d_out),
                           name + ".w")
        self.b = Parameter(np.zeros(d_out), name + ".b") if bias else None


class LayerNorm(Module):
    def __init__(self, dim):
        self.gamma = Parameter(np.ones(dim), "ln.gamma")
        self.beta = Parameter(np.zeros(dim), "ln.beta")


class FeedForward(Module):
    """linear -> ReLU -> linear, FFN width `hidden`."""

    def __init__(self, rng, dim, hidden, name="ffn"):
        self.fc1 = Linear(rng, dim, hidden, name + ".fc1")
        self.fc2 = Linear(rng, hidden, dim, name + ".fc2")


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention's q, k, v and output projections and its
    head count. The key projection has no bias: it would add q . b_k to
    every score of a query, which the softmax cancels."""

    def __init__(self, rng, dim, num_heads, name="attn"):
        if dim % num_heads != 0:
            raise DimensionError("embed dim must be divisible by num_heads")
        self.num_heads = num_heads
        self.wq = Linear(rng, dim, dim, name + ".q")
        self.wk = Linear(rng, dim, dim, name + ".k", bias=False)
        self.wv = Linear(rng, dim, dim, name + ".v")
        self.wo = Linear(rng, dim, dim, name + ".o")


class PreNormBlock(Module):
    """z -> z + MHSA(LN(z)); then h -> h + FFN(LN(h)), FFN width 4 * dim, as
    one `autograd.prenorm_block` node over the modules' Parameters; `layout`
    is the rows' `Window` or `Packed` layout. `last_rows` computes only
    each snippet's last row of a Packed layout."""

    def __init__(self, rng, dim, num_heads, name="block"):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(rng, dim, num_heads, name + ".attn")
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(rng, dim, 4 * dim, name + ".ffn")

    def __call__(self, z, layout):
        return prenorm_block(z, layout, self.node_params(),
                             self.attn.num_heads)

    def last_rows(self, z, packed):
        """The block's output rows of each snippet's last slot, [T, D]."""
        return prenorm_block(z, packed, self.node_params(),
                             self.attn.num_heads, last=True)

    def node_params(self):
        """The 15 Parameters in `prenorm_block`'s order."""
        attn, ffn = self.attn, self.ffn
        return (self.ln1.gamma, self.ln1.beta, attn.wq.w, attn.wq.b,
                attn.wk.w, attn.wv.w, attn.wv.b, attn.wo.w, attn.wo.b,
                self.ln2.gamma, self.ln2.beta, ffn.fc1.w, ffn.fc1.b,
                ffn.fc2.w, ffn.fc2.b)


class ConvLayer(Module):
    """conv1d with its own weights, kernel [k, D_in, D_out], and the ReLU
    after it when called with `relu`."""

    def __init__(self, rng, k, d_in, d_out, name="conv"):
        self.w = Parameter(
            uniform_init(rng, (k, d_in, d_out), k * d_in, k * d_out), name + ".w")
        self.b = Parameter(np.zeros(d_out), name + ".b")

    def __call__(self, x, index=None, relu=False):
        return conv1d(x, self.w, self.b, index, relu=relu)


class DepthwiseDownsample(Module):
    """Learned strided depth-wise convolution, kernel size == stride > 1."""

    def __init__(self, rng, dim, stride, name="down"):
        self.stride = stride
        init = np.full((stride, dim), 1.0 / stride)
        init += rng.uniform(-0.01, 0.01, size=init.shape)
        self.w = Parameter(init, name + ".w")

    def __call__(self, x, lengths):
        """x [sum(lengths), D], sequences `lengths` long back to back: the
        down-sampled sequences, each right-padded on its own, and their
        lengths ceil(lengths / stride)."""
        return (depthwise_conv1d(x, self.w, self.stride, lengths),
                -(-lengths // self.stride))
