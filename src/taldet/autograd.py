"""Dense float64 tensors with reverse-mode gradients.

Everything downstream (attention blocks, convolution towers) is composed
from the primitives here; the training loss is one node of the same kind in
`heads`. The finite-difference harness at the bottom of the file is the
single source of truth for gradient correctness.
Graphs are built explicitly per forward pass; there is no global tape.
Tensors do not check finiteness: non-finite values are caught where numbers
enter (dataio's file readers, the CLI settings) and where training consumes
them (the loss and the global gradient norm in `training.fit`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class DimensionError(ValueError):
    """Shape or dimensionality precondition violated."""


class InvalidMaskError(ValueError):
    """An attention row had no allowed position."""


class ProbeError(RuntimeError):
    """The loss was non-finite at a gradient-check probe point."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Immutable-by-convention dense array plus the closure that backpropagates
    through the op that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # numpy raises TypeError for ndarray * Tensor etc. instead of building an
    # object array: a Tensor goes on the left of its operators
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        topo, seen = [], set()
        stack = [(self, False)]
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
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementary ops ----------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _binary(self, other, fwd, bwd_a, bwd_b):
        other = Tensor._lift(other)
        out_data = fwd(self.data, other.data)
        req = self.requires_grad or other.requires_grad
        if not req:
            return Tensor(out_data)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(bwd_a(g, self.data, other.data), self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(bwd_b(g, self.data, other.data), other.shape))

        return Tensor(out_data, True, (self, other), backward)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b,
                            lambda g, a, b: g, lambda g, a, b: g)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b,
                            lambda g, a, b: g * b, lambda g, a, b: g * a)

    def __matmul__(self, other):
        other = Tensor._lift(other)
        if self.data.shape[-1] != other.data.shape[-2]:
            raise DimensionError(
                f"matmul inner dims differ: {self.shape} @ {other.shape}")
        out_data = self.data @ other.data
        req = self.requires_grad or other.requires_grad
        if not req:
            return Tensor(out_data)

        def backward(g):
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accum(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accum(_unbroadcast(gb, other.shape))

        return Tensor(out_data, True, (self, other), backward)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self.requires_grad:
            return Tensor(out_data)

        def backward(g):
            self._accum(g.reshape(self.shape))

        return Tensor(out_data, True, (self,), backward)

    def __getitem__(self, key):
        out_data = self.data[key]
        if not self.requires_grad:
            return Tensor(out_data)

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            self._accum(full)

        return Tensor(out_data, True, (self,), backward)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not self.requires_grad:
            return Tensor(out_data)

        def backward(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.shape).copy())

        return Tensor(out_data, True, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- pointwise nonlinearity --------------------------------------------

    def relu(self):
        out_data = np.maximum(self.data, 0.0)
        if not self.requires_grad:
            return Tensor(out_data)

        def backward(g):
            self._accum(g * (self.data > 0).astype(np.float64))

        return Tensor(out_data, True, (self,), backward)


class Parameter(Tensor):
    """A named, trainable tensor; `.grad` holds the accumulated gradient."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name


# -- n-ary structural ops ---------------------------------------------------


def concat(tensors, axis=0):
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors)
    if not req:
        return Tensor(out_data)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                t._accum(g[tuple(sl)])

    return Tensor(out_data, True, tuple(tensors), backward)


def _with_zero_row(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.zeros((1,) + x.shape[1:])])


def window_index(lengths: np.ndarray, k: int) -> np.ndarray:
    """[A, k] rows read by each same-padded window over sequences `lengths`
    long, back to back; A = sum(lengths) stands for a padding zero."""
    if (lengths < 1).any():
        raise DimensionError("window_index: lengths must be positive")
    A = int(lengths.sum())
    idx = np.arange(A)[:, None] + np.arange(-(k // 2), k // 2 + 1)
    ends = np.cumsum(lengths)
    end = np.repeat(ends, lengths)[:, None]   # one past each row's sequence
    start = np.repeat(ends - lengths, lengths)[:, None]
    return np.where((idx >= start) & (idx < end), idx, A)


def _scatter_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """The gradient of x[idx] for an x of n rows, where the index n reads a
    row of zeros; g is [len(idx), idx.shape[1], ...]."""
    # within a column every row but the zero row is read at most once, so
    # one buffered add per column is exact; last column first sums each row
    # in np.add.at's order
    full = np.zeros((n + 1,) + g.shape[2:])
    for j in reversed(range(idx.shape[1])):
        full[idx[:, j]] += g[:, j]
    return full[:n]


def _gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """x[idx] along axis 0, where the index len(x) reads a row of zeros."""
    out_data = _with_zero_row(x.data)[idx]
    if not x.requires_grad:
        return Tensor(out_data)

    def backward(g):
        x._accum(_scatter_rows(g, idx, x.shape[0]))

    return Tensor(out_data, True, (x,), backward)


# -- analytic forwards and backwards ------------------------------------------
# numpy on arrays, shared by the single-op nodes below and the nodes that
# chain them (conv1d, prenorm_block), so each formula exists once. The
# backwards add parameter gradients into the Tensors that need them and
# return the input's gradient.


def _linear_forward(x2: np.ndarray, w: Tensor, b: Tensor | None) -> np.ndarray:
    """x2 @ w (+ b) over the rows of 2-D x2; a kernel of more than two axes
    (conv1d's) is read as its [x2 columns, outputs] view."""
    out2 = x2 @ w.data.reshape(x2.shape[1], -1)
    if b is not None:
        out2 += b.data
    return out2


def _linear_backward(g2: np.ndarray, x2: np.ndarray, w: Tensor,
                     b: Tensor | None, need_x: bool = True):
    """Adds x2ᵀ g2 into w and g2's column sums into b; returns g2 wᵀ, the
    gradient of x2, when `need_x`."""
    if w.requires_grad:
        w._accum((x2.T @ g2).reshape(w.shape))
    if b is not None and b.requires_grad:
        b._accum(g2.sum(axis=0))
    return g2 @ w.data.reshape(x2.shape[1], -1).T if need_x else None


def _layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                        eps: float):
    """(xhat * gamma + beta, xhat, inv) with xhat = (x - mean) * inv over the
    last axis and inv the inverse std."""
    if x.shape[-1] == 0:
        raise DimensionError("layer_norm over empty last axis")
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = ((xc * xc).sum(axis=-1, keepdims=True) * (1.0 / n) + eps) ** -0.5
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def _layer_norm_backward(g: np.ndarray, gamma: Tensor, beta: Tensor,
                         xhat: np.ndarray, inv: np.ndarray, need_x: bool):
    if gamma.requires_grad:
        gamma._accum(_unbroadcast(g * xhat, gamma.shape))
    if beta.requires_grad:
        beta._accum(_unbroadcast(g, beta.shape))
    if not need_x:
        return None
    # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gamma
    n = g.shape[-1]
    gh = g * gamma.data
    proj = (gh * xhat).sum(axis=-1, keepdims=True) * (1.0 / n)
    gh -= gh.sum(axis=-1, keepdims=True) * (1.0 / n)
    gh -= xhat * proj
    gh *= inv
    return gh


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc's reduce over a's last axis, kept as a length-1 axis, taken one
    slot at a time from the left. numpy's own reduce over a short last axis
    costs several times as much; for at most 7 slots it adds in this order
    too, so a sum gives the same bits."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out[..., None]


def _dense_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     heads: int, allowed):
    """Attention of q, k, v [..., N, D] under the mask `allowed`: the
    merged-heads output and its backward, which keeps the per-head views of
    q, k, v and the attention weights."""
    allowed = np.asarray(allowed, dtype=bool)
    if not allowed.any(axis=-1).all():
        raise InvalidMaskError("attention row with no allowed position")
    shape = q.shape
    split = shape[:-1] + (heads, shape[-1] // heads)
    scale = 1.0 / math.sqrt(split[-1])
    # [..., N, H, d] -> [..., H, N, d]; the same swap merges the heads again
    qh, kh, vh = (t.reshape(split).swapaxes(-2, -3) for t in (q, k, v))
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    # -inf once, broadcast over the heads axis, so exp gives exact zeros
    np.copyto(s, -np.inf, where=~allowed[..., None, :, :])
    e = np.exp(s - _fold(np.maximum, s))
    p = e / _fold(np.add, e)

    def backward(g):
        # the gradients in C order as g's shape: k's merged heads are
        # otherwise a strided view, whose sums round differently
        gh = g.reshape(g.shape[:-1] + (heads, split[-1])).swapaxes(-2, -3)
        gp = gh @ vh.swapaxes(-1, -2)
        gs = p * (gp - _fold(np.add, gp * p)) * scale
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return [np.ascontiguousarray(gt.swapaxes(-2, -3).reshape(g.shape))
                for gt in (gs @ kh, gk, p.swapaxes(-1, -2) @ gh)]

    return (p @ vh).swapaxes(-2, -3).reshape(shape), backward


class Window(NamedTuple):
    """The tables of sliding-window attention over one sequence of T rows,
    w = 2h + 1 slots per query, slot-major: in slot s query t reads row
    `index[s, t]`, which is t + s - h, or T (a zero row) where that falls
    off the sequence, as `outside[s, t]` marks."""
    index: np.ndarray     # int [w, T]
    outside: np.ndarray   # bool [w, T]


def window_tables(T: int, w: int) -> Window:
    """The Window of size w (odd) over T rows."""
    index = window_index(np.array([T]), w).T
    return Window(index, index == T)


def _add_window_slots(x: np.ndarray) -> np.ndarray:
    """The gradient of the rows a Window gathered into x [w, T, D]: slot s
    of query t goes to row t + s - h, so each slot is one shifted slice-add
    into a zero-padded [T + 2h, D] buffer, in slot order, as a sum over
    the gathered copies of each row would add them."""
    w, T = x.shape[:2]
    buf = np.zeros((T + w - 1,) + x.shape[2:])
    for s in range(w):
        buf[s:s + T] += x[s]
    return buf[w // 2:w // 2 + T]


def _window_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      heads: int, win: Window):
    """Attention of q, k, v [T, D] over the keys in each query's window:
    the merged-heads output and its backward, which keeps q, k, v and the
    [w, T, H] weights and gathers the key and value windows again."""
    w, T = win.index.shape
    if q.ndim != 2 or q.shape[0] != T:
        raise DimensionError(f"window attention: {q.shape} rows for a "
                             f"window over {T}")
    D = q.shape[1]
    scale = 1.0 / math.sqrt(D // heads)
    hsum = np.repeat(np.eye(heads), D // heads, axis=0)   # 0/1 [D, H]
    s = ((_with_zero_row(k)[win.index] * q) @ hsum) * scale   # [w, T, H]
    np.copyto(s, -np.inf, where=win.outside[..., None])
    p = np.exp(s - s.max(axis=0))
    p /= p.sum(axis=0)
    out = ((p @ hsum.T) * _with_zero_row(v)[win.index]).sum(axis=0)

    def backward(g):
        gp = (_with_zero_row(v)[win.index] * g) @ hsum
        gs = (p * (gp - (gp * p).sum(axis=0)) * scale) @ hsum.T   # [w, T, D]
        # k's and v's slots go back side by side, in one pass
        gkv = _add_window_slots(np.concatenate([gs * q, (p @ hsum.T) * g],
                                               axis=-1))
        return [(gs * _with_zero_row(k)[win.index]).sum(axis=0),
                gkv[:, :D], gkv[:, D:]]

    return out, backward


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                       heads: int, allowed):
    """The merged-heads output and its backward, which maps the output's
    gradient to q's, k's and v's: windowed when `allowed` is a Window,
    dense under the mask otherwise."""
    if isinstance(allowed, Window):
        return _window_attention(q, k, v, heads, allowed)
    return _dense_attention(q, k, v, heads, allowed)


# -- composite primitives ----------------------------------------------------

LAYER_NORM_EPS = 1e-5   # the epsilon of every LayerNorm and pre-norm block


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """out[..., j] = sum_i x[..., i] w[i, j] (+ b[j]), as one node.

    The leading axes of x are flattened, so the forward and every gradient
    are single 2-D products over its rows.
    """
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear: {x.shape} incompatible with {w.shape}")
    d_out = w.shape[1]
    x2 = x.data.reshape(-1, w.shape[0])
    out_data = _linear_forward(x2, w, b).reshape(x.shape[:-1] + (d_out,))
    parents = (x, w) if b is None else (x, w, b)
    if not any(p.requires_grad for p in parents):
        return Tensor(out_data)

    def backward(g):
        gx = _linear_backward(g.reshape(-1, d_out), x2, w, b, x.requires_grad)
        if x.requires_grad:
            x._accum(gx.reshape(x.shape))

    return Tensor(out_data, True, parents, backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              allowed) -> Tensor:
    """Masked multi-head scaled dot-product attention as one node.

    q, k, v are [..., N, D], each split into `heads` heads of D / heads
    channels. `allowed` is either a bool mask, whose `[..., i, j]`
    (broadcastable over the leading axes) lets position i attend to
    position j, or a `Window` over q, k, v [T, D], which lets each position
    attend to the keys in its window. Positions outside get weight exactly
    0. Returns [..., N, D], heads merged.
    """
    out_data, attn_backward = _attention_forward(q.data, k.data, v.data,
                                                 heads, allowed)
    if not (q.requires_grad or k.requires_grad or v.requires_grad):
        return Tensor(out_data)

    def backward(g):
        for t, gt in zip((q, k, v), attn_backward(g)):
            if t.requires_grad:
                t._accum(gt)

    return Tensor(out_data, True, (q, k, v), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = LAYER_NORM_EPS) -> Tensor:
    """Standardize the last axis, then scale by gamma and shift by beta, as
    one node. x is [..., D]; gamma and beta are [D]. Backward keeps only the
    standardized input and the inverse std."""
    out_data, xhat, inv = _layer_norm_forward(x.data, gamma.data, beta.data,
                                              eps)
    if not (x.requires_grad or gamma.requires_grad or beta.requires_grad):
        return Tensor(out_data)

    def backward(g):
        gx = _layer_norm_backward(g, gamma, beta, xhat, inv, x.requires_grad)
        if gx is not None:
            x._accum(gx)

    return Tensor(out_data, True, (x, gamma, beta), backward)


def prenorm_block(z: Tensor, allowed, params, heads: int) -> Tensor:
    """h = z + MHSA(LN1(z)), then h + FFN(LN2(h)), as one node.

    z is [..., N, D] and `allowed` is attention's mask or Window. `params`
    are the 16 Parameters in the order LN1 gamma, beta; the q, k, v and
    output projections, each weight then bias; LN2 gamma, beta; the FFN's
    two linears, weight then bias. The forward runs the numpy operations of
    layer_norm, linear, attention and relu in the order the composition of
    those nodes runs them, and the backward chains their analytic backwards
    with every gradient summed in the composition's order, so both give the
    same bits.
    """
    (gamma1, beta1, wq, bq, wk, bk, wv, bv, wo, bo,
     gamma2, beta2, w1, b1, w2, b2) = params
    shape = z.shape
    d = shape[-1]
    ln1, xhat1, inv1 = _layer_norm_forward(z.data, gamma1.data, beta1.data,
                                           LAYER_NORM_EPS)
    ln1 = ln1.reshape(-1, d)
    att, attn_backward = _attention_forward(
        *(_linear_forward(ln1, w, b).reshape(shape)
          for w, b in ((wq, bq), (wk, bk), (wv, bv))), heads, allowed)
    att = att.reshape(-1, d)
    h = _linear_forward(att, wo, bo).reshape(shape) + z.data
    ln2, xhat2, inv2 = _layer_norm_forward(h, gamma2.data, beta2.data,
                                           LAYER_NORM_EPS)
    ln2 = ln2.reshape(-1, d)
    pre = _linear_forward(ln2, w1, b1)   # the FFN's pre-activation
    out_data = _linear_forward(np.maximum(pre, 0.0), w2, b2).reshape(shape) + h
    if not (z.requires_grad or any(p.requires_grad for p in params)):
        return Tensor(out_data)

    def backward(g):
        gpre = _linear_backward(g.reshape(-1, d), np.maximum(pre, 0.0), w2, b2)
        gpre *= pre > 0
        gln2 = _linear_backward(gpre, ln2, w1, b1).reshape(shape)
        gh = g + _layer_norm_backward(gln2, gamma2, beta2, xhat2, inv2, True)
        gatt = _linear_backward(gh.reshape(-1, d), att, wo, bo)
        gq, gk, gv = attn_backward(gatt.reshape(shape))
        # (q + k) + v: the order the composition's graph walk adds them in
        gln1 = (_linear_backward(gq.reshape(-1, d), ln1, wq, bq)
                + _linear_backward(gk.reshape(-1, d), ln1, wk, bk)
                + _linear_backward(gv.reshape(-1, d), ln1, wv, bv))
        gz = _layer_norm_backward(gln1.reshape(shape), gamma1, beta1, xhat1,
                                  inv1, z.requires_grad)
        if z.requires_grad:
            # the residual first, then LN1's, as the composition adds them
            z._accum(gh)
            z._accum(gz)

    return Tensor(out_data, True, (z,) + tuple(params), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None,
           index: np.ndarray | None = None) -> Tensor:
    """Same-padded stride-1 convolution over axis 0 of x[A, D_in] with kernel
    w[k, D_in, D_out], k odd, as one node: a window gather, then one 2-D
    product against the kernel's [k * D_in, D_out] view.

    x may hold several sequences back to back: `index` is then their
    `window_index(lengths, k)` (default: one sequence of A rows), which
    zero-pads each on its own, so no window reads across a boundary.
    """
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise DimensionError("conv1d expects x[A,Din], w[k,Din,Dout]")
    A, d_in = x.shape
    k, wd_in, d_out = w.shape
    if A < 1:
        raise DimensionError("conv1d: empty input")
    if d_in != wd_in:
        raise DimensionError(f"conv1d channel mismatch: {d_in} vs {wd_in}")
    if k % 2 == 0:
        raise DimensionError("conv1d: same padding requires odd kernel")
    idx = window_index(np.array([A]), k) if index is None else index
    if idx.shape != (A, k):
        raise DimensionError(f"conv1d: window index {idx.shape} for "
                             f"{A} rows and kernel {k}")
    windows = _with_zero_row(x.data)[idx].reshape(A, k * d_in)
    out_data = _linear_forward(windows, w, b)
    parents = (x, w) if b is None else (x, w, b)
    if not any(p.requires_grad for p in parents):
        return Tensor(out_data)

    def backward(g):
        gwin = _linear_backward(g, windows, w, b, x.requires_grad)
        if x.requires_grad:
            x._accum(_scatter_rows(gwin.reshape(A, k, d_in), idx, A))

    return Tensor(out_data, True, parents, backward)


def depthwise_conv1d(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """Per-channel strided convolution, x[T, D] * w[k, D] -> [ceil(T/s), D].

    Pads on the right only, so output t always reads inputs starting at
    t*stride.
    """
    T = x.shape[0]
    idx = np.arange(-(-T // stride))[:, None] * stride + np.arange(w.shape[0])
    windows = _gather_rows(x, np.minimum(idx, T))   # [T_out, k, D]
    return (windows * w).sum(axis=1)


# -- gradient checking -------------------------------------------------------


def grad_check(f, params, h: float = 1e-5, max_coords: int = 8,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must rebuild its graph on every call and return a scalar Tensor.
    Samples up to `max_coords` coordinates per parameter. A non-finite
    analytic gradient scores inf; a non-finite loss raises ProbeError.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    loss = f()
    if not np.isfinite(loss.data).all():
        raise ProbeError("non-finite loss at probe point")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    if not all(np.isfinite(an).all() for an in analytic):
        return np.inf   # max() below would drop a NaN error

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        coords = (np.arange(n) if n <= max_coords
                  else rng.choice(n, size=max_coords, replace=False))
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            hi = float(f().data)
            flat[c] = orig - h
            lo = float(f().data)
            flat[c] = orig
            fd = (hi - lo) / (2 * h)
            if not np.isfinite(fd):
                raise ProbeError("non-finite loss near probe point")
            err = abs(an.reshape(-1)[c] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    return worst
