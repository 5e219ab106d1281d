"""Parameter containers and the attention/convolution blocks built on autograd.

The same masked multi-head attention block serves both the subject aggregation
stack (mask = token validity) and the temporal pyramid (a sliding `Window`).
"""

from __future__ import annotations

import math

import numpy as np

from .autograd import (DimensionError, Parameter, Tensor, attention, conv1d,
                       depthwise_conv1d, layer_norm, linear, prenorm_block)


class Module:
    """Minimal container: any attribute that is a Parameter, Module, or a
    list of those is discovered by named_parameters() in insertion order."""

    def named_parameters(self, prefix: str = ""):
        for name, val in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(val, Parameter):
                yield full, val
            elif isinstance(val, Module):
                yield from val.named_parameters(full + ".")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]


def uniform_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, rng, d_in, d_out, name=""):
        self.w = Parameter(uniform_init(rng, (d_in, d_out), d_in, d_out),
                           name + ".w")
        self.b = Parameter(np.zeros(d_out), name + ".b")

    def __call__(self, x):
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim):
        self.gamma = Parameter(np.ones(dim), "ln.gamma")
        self.beta = Parameter(np.zeros(dim), "ln.beta")

    def __call__(self, x):
        return layer_norm(x, self.gamma, self.beta)


class FeedForward(Module):
    """linear -> ReLU -> linear."""

    def __init__(self, rng, dim, hidden, name="ffn"):
        self.fc1 = Linear(rng, dim, hidden, name + ".fc1")
        self.fc2 = Linear(rng, hidden, dim, name + ".fc2")

    def __call__(self, x):
        return self.fc2(self.fc1(x).relu())


class MultiHeadSelfAttention(Module):
    """Masked multi-head self-attention over axis -2 of z [..., N, D]: four
    linears around `autograd.attention`, which reads the mask or Window
    `allowed`."""

    def __init__(self, rng, dim, num_heads, name="attn"):
        if dim % num_heads != 0:
            raise DimensionError("embed dim must be divisible by num_heads")
        self.num_heads = num_heads
        self.wq = Linear(rng, dim, dim, name + ".q")
        self.wk = Linear(rng, dim, dim, name + ".k")
        self.wv = Linear(rng, dim, dim, name + ".v")
        self.wo = Linear(rng, dim, dim, name + ".o")

    def __call__(self, z: Tensor, allowed: np.ndarray) -> Tensor:
        return self.wo(attention(self.wq(z), self.wk(z), self.wv(z),
                                 self.num_heads, allowed))


class PreNormBlock(Module):
    """z -> z + MHSA(LN(z)); then h -> h + FFN(LN(h)), FFN width 4 * dim, as
    one `autograd.prenorm_block` node over the modules' Parameters."""

    def __init__(self, rng, dim, num_heads, name="block"):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(rng, dim, num_heads, name + ".attn")
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(rng, dim, 4 * dim, name + ".ffn")

    def __call__(self, z, allowed):
        attn, ffn = self.attn, self.ffn
        return prenorm_block(
            z, allowed,
            (self.ln1.gamma, self.ln1.beta, attn.wq.w, attn.wq.b, attn.wk.w,
             attn.wk.b, attn.wv.w, attn.wv.b, attn.wo.w, attn.wo.b,
             self.ln2.gamma, self.ln2.beta, ffn.fc1.w, ffn.fc1.b, ffn.fc2.w,
             ffn.fc2.b),
            attn.num_heads)


class ConvLayer(Module):
    """conv1d with its own weights; kernel [k, D_in, D_out]."""

    def __init__(self, rng, k, d_in, d_out, name="conv"):
        self.w = Parameter(
            uniform_init(rng, (k, d_in, d_out), k * d_in, k * d_out), name + ".w")
        self.b = Parameter(np.zeros(d_out), name + ".b")

    def __call__(self, x, index=None):
        return conv1d(x, self.w, self.b, index)


class DepthwiseDownsample(Module):
    """Learned strided depth-wise convolution, kernel size == stride."""

    def __init__(self, rng, dim, stride, name="down"):
        self.stride = stride
        init = np.full((stride, dim), 1.0 / stride)
        init += rng.uniform(-0.01, 0.01, size=init.shape)
        self.w = Parameter(init, name + ".w")

    def __call__(self, x):
        if self.stride == 1:
            return x
        return depthwise_conv1d(x, self.w, self.stride)
