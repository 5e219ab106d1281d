"""Dense float64 tensors with reverse-mode gradients.

The model's graph is built from the nodes here: one `prenorm_block` per
attention block, one `conv1d` or `depthwise_conv1d` per convolution, the
structural `concat`, `gather_rows` and `reshape`, and the Tensor operators
that pooling uses; the training loss is one node of the same kind in
`heads`. A `checkpoint` node runs the subject aggregator's blocks chunk by
chunk and keeps the graph of the last chunk only. The finite-difference
harness at the bottom of the file is the single source of truth for
gradient correctness.
Graphs are built explicitly per forward pass, and `Tensor.backward` frees
each one as it runs; there is no global tape.
Tensors do not check finiteness: non-finite values are caught where numbers
enter (dataio's file readers, the CLI settings) and where training consumes
them (the loss and the global gradient norm in `training.fit`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np


class DimensionError(ValueError):
    """Shape or dimensionality precondition violated."""


class InvalidMaskError(ValueError):
    """A query had no key to attend to."""


class ProbeError(RuntimeError):
    """The loss was non-finite at a gradient-check probe point."""


def _freed(g):
    """The backward of an op node whose graph an earlier backward() freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() "
                       "already freed; run the forward again")


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

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Adds d self / d leaf into the `.grad` of every leaf that requires
        it. Each op node's backward closure, parent links and gradient are
        dropped as soon as its backward has run, so the graph is freed as
        the sweep goes (PyTorch's default); a second backward through it
        raises."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        self._backprop(np.ones_like(self.data))

    def _op_nodes(self) -> list:
        """self and the op nodes (those with a backward) it reaches through op
        nodes, each after those among its parents, by a depth-first walk;
        leaves get their gradients from their consumers' _accum."""
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
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))
        return topo

    def _backprop(self, grad: np.ndarray):
        """The sweep of `backward` from a root of any shape whose gradient
        is `grad`."""
        self._accum(grad)
        if self._backward is None:   # a leaf root: its gradient is `grad`
            return
        topo = self._op_nodes()
        while topo:
            node = topo.pop()
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _freed, (), None

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

    # -- reductions --------------------------------------------------------

    def sum(self):
        """The sum of every entry, as a 0-d Tensor."""
        out_data = self.data.sum()
        if not self.requires_grad:
            return Tensor(out_data)

        def backward(g):
            self._accum(np.broadcast_to(g, self.shape).copy())

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


# The index tables of a batch are stacked from pieces of one sequence each,
# built once per sequence length and kept: the caches grow to the pieces a
# data set's distinct video lengths need at each pyramid level, however its
# videos are paired into batches, and each piece is a small bool array.


@functools.cache
def _window_outside(T: int, k: int) -> np.ndarray:
    """bool [T, k]: slot j of the same-padded k-window of row t, row
    t + j - k // 2, falls off a sequence of T rows. Read-only."""
    if T < 1:
        raise DimensionError("window tables: lengths must be positive")
    rows = np.arange(T)[:, None] + np.arange(-(k // 2), k // 2 + 1)
    out = (rows < 0) | (rows >= T)
    out.setflags(write=False)
    return out


@functools.cache
def _stride_outside(T: int, stride: int, k: int) -> np.ndarray:
    """bool [ceil(T / stride), k]: row t * stride + j of strided window t
    falls past the end of a sequence of T rows. Read-only."""
    if T < 1:
        raise DimensionError("window tables: lengths must be positive")
    rows = np.arange(0, T, stride)[:, None] + np.arange(k)
    out = rows >= T
    out.setflags(write=False)
    return out


def _stacked(pieces, first: np.ndarray, k: int, A: int) -> np.ndarray:
    """[n, k] rows `first` + j of the stacked outside `pieces`, or A where a
    piece marks the slot outside its own sequence."""
    outside = np.concatenate(pieces)
    return np.where(outside, A, first[:, None] + np.arange(k))


def window_index(lengths, k: int) -> np.ndarray:
    """[A, k] rows read by each same-padded window over sequences `lengths`
    long, back to back; A = sum(lengths) stands for a padding zero, so no
    window reads across a boundary."""
    pieces = [_window_outside(int(T), k) for T in lengths]
    A = sum(map(len, pieces))
    return _stacked(pieces, np.arange(-(k // 2), A - k // 2), k, A)


def stride_index(lengths, stride: int, k: int) -> np.ndarray:
    """[sum ceil(T / stride), k]: strided window t of a sequence of T rows
    reads its rows t * stride + j, for each of the sequences `lengths` long
    back to back; A = sum(lengths) stands for the zero that right-pads each
    sequence on its own."""
    lengths = np.asarray(lengths, dtype=int)
    pieces = [_stride_outside(int(T), stride, k) for T in lengths]
    n = np.array([len(p) for p in pieces])
    # window r of a sequence whose rows start at `row` and whose windows at
    # `window` reads from row + (r - window) * stride on
    row, window = np.cumsum(lengths) - lengths, np.cumsum(n) - n
    first = np.arange(n.sum()) * stride + np.repeat(row - window * stride, n)
    return _stacked(pieces, first, k, int(lengths.sum()))


def _scatter_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """The gradient of x[idx] for an x of n rows, where the index n reads a
    row of zeros; idx is [A] or [A, k], and g is idx.shape + a row's shape."""
    if idx.ndim == 1:
        idx, g = idx[:, None], g[:, None]
    # within a column every row but the zero row is read at most once, so
    # one buffered add per column is exact; last column first sums each row
    # in np.add.at's order
    full = np.zeros((n + 1,) + g.shape[2:])
    for j in reversed(range(idx.shape[1])):
        full[idx[:, j]] += g[:, j]
    return full[:n]


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """x[idx] along axis 0 as one node, where the index len(x) reads a row of
    zeros; idx is [A] or [A, k]."""
    out_data = _with_zero_row(x.data)[idx]
    if not x.requires_grad:
        return Tensor(out_data)

    def backward(g):
        x._accum(_scatter_rows(g, idx, x.shape[0]))

    return Tensor(out_data, True, (x,), backward)


# -- analytic forwards and backwards ------------------------------------------
# numpy on arrays, shared by the nodes that chain them (conv1d,
# prenorm_block), so each formula exists once. The backwards add parameter
# gradients into the Tensors that need them and return the input's gradient.


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
    """(xhat * gamma + beta, xhat, mean, inv) with xhat = (x - mean) * inv
    over the last axis and inv the inverse std; `(x - mean) * inv` rebuilds
    xhat with the same bits."""
    if x.shape[-1] == 0:
        raise DimensionError("layer_norm over empty last axis")
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * (1.0 / n)
    xc = x - mean
    inv = ((xc * xc).sum(axis=-1, keepdims=True) * (1.0 / n) + eps) ** -0.5
    xhat = xc * inv
    return xhat * gamma + beta, xhat, mean, inv


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


def _merge_heads(t: np.ndarray) -> np.ndarray:
    """[..., H, N, d] per-head rows as [..., N, H * d]."""
    t = t.swapaxes(-2, -3)
    return t.reshape(t.shape[:-2] + (-1,))


def _dense_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     heads: int):
    """Attention of queries q [..., M, D] over every one of the keys and
    values k, v [..., N, D]: the merged-heads output and its backward,
    which keeps the per-head views of q, k, v and the attention weights."""
    d = q.shape[-1] // heads
    scale = 1.0 / math.sqrt(d)
    # [..., N, H, d] -> [..., H, N, d]; the same swap merges the heads again
    qh, kh, vh = (t.reshape(t.shape[:-1] + (heads, d)).swapaxes(-2, -3)
                  for t in (q, k, v))
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    e = np.exp(s - _fold(np.maximum, s))
    p = e / _fold(np.add, e)

    def backward(g):
        gh = g.reshape(g.shape[:-1] + (heads, d)).swapaxes(-2, -3)
        gp = gh @ vh.swapaxes(-1, -2)
        gs = p * (gp - _fold(np.add, gp * p)) * scale
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return [_merge_heads(gt) for gt in (gs @ kh, gk,
                                            p.swapaxes(-1, -2) @ gh)]

    return _merge_heads(p @ vh), backward


class Window(NamedTuple):
    """The tables of sliding-window attention over T rows, w = 2h + 1 slots
    per query, slot-major: in slot s query t reads row `index[s, t]`, which
    is t + s - h, or T (a zero row) where that falls off the query's own
    sequence, as `outside[s, t]` marks."""
    index: np.ndarray     # int [w, T]
    outside: np.ndarray   # bool [w, T]


def window_tables(lengths, w: int) -> Window:
    """The Window of size w (odd) over sequences `lengths` long, back to
    back: a slot outside its own query's sequence reads the zero row."""
    index = window_index(lengths, w).T
    return Window(index, index == index.shape[1])


def _add_window_slots(x: np.ndarray) -> np.ndarray:
    """The gradient of the rows a Window gathered into x [w, T, D]: slot s
    of query t goes to row t + s - h, so each slot is one shifted slice-add
    into a zero-padded [T + 2h, D] buffer, in slot order, as a sum over
    the gathered copies of each row would add them. A slot outside its
    query's own sequence has weight exactly 0, so the ±0 it adds to the
    neighbouring sequence's row changes nothing."""
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


class Packed(NamedTuple):
    """The layout of the rows of T snippets, R rows back to back, each
    snippet's rows together, in runs of snippets with as many rows each:
    run b holds the rows `rows[b]:rows[b + 1]` of the snippets
    `snippets[b]:snippets[b + 1]`, so its rows are the view [t, c, D] of
    t snippets of c rows. The aggregator sorts its snippets by their row
    count, which makes one run per count."""
    rows: np.ndarray       # int [B + 1]
    snippets: np.ndarray   # int [B + 1]

    def runs(self):
        """Each run's slices of the rows and of the snippets."""
        for r0, r1, s0, s1 in zip(self.rows[:-1], self.rows[1:],
                                  self.snippets[:-1], self.snippets[1:]):
            yield slice(r0, r1), slice(s0, s1)

    def last_rows(self) -> np.ndarray:
        """int [T]: the last row of each snippet."""
        counts = np.diff(self.rows) // np.diff(self.snippets)
        return np.cumsum(np.repeat(counts, np.diff(self.snippets))) - 1


def packed_layout(valid: np.ndarray) -> Packed:
    """The Packed layout of the true slots of valid [T, N], each snippet's
    rows in slot order, snippet after snippet; a snippet with none raises
    InvalidMaskError."""
    counts = valid.sum(axis=1)
    if not counts.all():
        raise InvalidMaskError("a snippet with no valid slot to attend to")
    snippets = np.append(np.flatnonzero(np.diff(counts, prepend=0)),
                         len(counts))
    return Packed(np.concatenate([[0], np.cumsum(counts)])[snippets],
                  snippets)


def _packed_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      heads: int, packed: Packed, last: bool = False):
    """Attention of q, k, v [R, D] among the rows of each snippet: over
    each run of snippets of c rows, dense attention on the views [t, c, D]
    of its rows, with no padding and no mask. With `last`, q [T, D] holds
    one query per snippet, for its last row, the view [t, 1, D] per run."""
    R, T = packed.rows[-1], packed.snippets[-1]
    if q.ndim != 2 or q.shape[0] != (T if last else R) or k.shape[0] != R:
        raise DimensionError(f"packed attention: {q.shape} queries and "
                             f"{k.shape} keys for a layout of {R} rows of "
                             f"{T} snippets")
    D = q.shape[1]
    out = np.empty(q.shape)
    runs = []
    for rows, snippets in packed.runs():
        t = snippets.stop - snippets.start
        # the run's slices of q, k and v; [t, -1, D] views of C-ordered rows
        slices = (snippets if last else rows, rows, rows)
        run_out, run_backward = _dense_attention(
            *(x[s].reshape(t, -1, D) for x, s in zip((q, k, v), slices)),
            heads)
        out[slices[0]].reshape(run_out.shape)[...] = run_out
        runs.append((t, slices, run_backward))

    def backward(g):
        grads = [np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)]
        for t, slices, run_backward in runs:
            run_grads = run_backward(g[slices[0]].reshape(t, -1, D))
            for grad, s, run_grad in zip(grads, slices, run_grads):
                grad[s].reshape(run_grad.shape)[...] = run_grad
        return grads

    return out, backward


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                       heads: int, layout: Window | Packed,
                       last: bool = False):
    """The merged-heads output and its backward, which maps the output's
    gradient to q's, k's and v's: windowed over a Window, within each
    snippet over a Packed layout (with `last`, for each snippet's last row
    only)."""
    if isinstance(layout, Window):
        return _window_attention(q, k, v, heads, layout)
    return _packed_attention(q, k, v, heads, layout, last)


# -- composite primitives ----------------------------------------------------

LAYER_NORM_EPS = 1e-5   # the epsilon of both norms of every pre-norm block


def prenorm_block(z: Tensor, layout: Window | Packed, params, heads: int,
                  last: bool = False) -> Tensor:
    """h = z + MHSA(LN1(z)), then h + FFN(LN2(h)), as one node.

    z is [N, D] rows and `layout` says which rows each row attends to: a
    Window over T = N rows or a Packed layout of N valid slots; every
    other step works row by row. `params` are the 15 Parameters in the
    order LN1 gamma, beta; the q, k, v and output projections, each weight
    then bias, but the key projection has no bias; LN2 gamma, beta; the
    FFN's two linears, weight then bias.

    With `last` (a Packed layout of T snippets), the node computes only
    each snippet's last row and returns [T, D]: LN1, K and V cover all N
    rows, as every query reads them, while Q, the attention (one query per
    snippet), the output projection, the residual, LN2 and the FFN cover
    the T last rows. The aggregator reads nothing else of its last block.

    The forward runs the numpy operations of layer norm, linear, attention
    and ReLU nodes in the order their composition (kept as a test oracle)
    runs them, and the backward chains their analytic backwards with every
    gradient summed in the composition's order, so both give the same bits.
    (The `last` variant agrees with the full node's last rows within
    1e-12: its products over fewer rows round differently.)
    For its backward the node keeps LN1's row means and inverse std, LN2's
    standardised input `xhat` and inverse std, the attention's per-head q,
    k, v and weights, the attention output and the FFN's activation. It
    keeps nothing it can rebuild from z with the forward's own operations:
    the backward rebuilds LN1's `xhat` as `(z - mean) * inv` and each
    norm's output as `xhat * gamma + beta`, and takes the ReLU's mask from
    the activation.
    """
    (gamma1, beta1, wq, bq, wk, wv, bv, wo, bo,
     gamma2, beta2, w1, b1, w2, b2) = params
    ln1, _, mean1, inv1 = _layer_norm_forward(z.data, gamma1.data,
                                              beta1.data, LAYER_NORM_EPS)
    rows = layout.last_rows() if last else slice(None)
    att, attn_backward = _attention_forward(
        _linear_forward(ln1[rows], wq, bq), _linear_forward(ln1, wk, None),
        _linear_forward(ln1, wv, bv), heads, layout, last)
    h = _linear_forward(att, wo, bo) + z.data[rows]
    ln2, xhat2, _, inv2 = _layer_norm_forward(h, gamma2.data, beta2.data,
                                              LAYER_NORM_EPS)
    act = np.maximum(_linear_forward(ln2, w1, b1), 0.0)   # the FFN's ReLU
    out_data = _linear_forward(act, w2, b2) + h
    if not (z.requires_grad or any(p.requires_grad for p in params)):
        return Tensor(out_data)

    def backward(g):
        gact = _linear_backward(g, act, w2, b2)
        gact *= act > 0
        gln2 = _linear_backward(gact, xhat2 * gamma2.data + beta2.data,
                                w1, b1)
        gh = g + _layer_norm_backward(gln2, gamma2, beta2, xhat2, inv2, True)
        gq, gk, gv = attn_backward(_linear_backward(gh, att, wo, bo))
        xhat1 = (z.data - mean1) * inv1
        ln1 = xhat1 * gamma1.data + beta1.data
        gq = _linear_backward(gq, ln1[rows], wq, bq)
        if last:   # the queries' rows of ln1's gradient, zero elsewhere
            gq = _scatter_rows(gq, rows, len(ln1))
        # (q + k) + v: the order the composition's graph walk adds them in
        gln1 = (gq + _linear_backward(gk, ln1, wk, None)
                + _linear_backward(gv, ln1, wv, bv))
        gz = _layer_norm_backward(gln1, gamma1, beta1, xhat1, inv1,
                                  z.requires_grad)
        if z.requires_grad:
            # the residual first, then LN1's, as the composition adds them
            z._accum(_scatter_rows(gh, rows, len(ln1)) if last else gh)
            z._accum(gz)

    return Tensor(out_data, True, (z,) + tuple(params), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None,
           index: np.ndarray | None = None, relu: bool = False) -> Tensor:
    """Same-padded stride-1 convolution over axis 0 of x[A, D_in] with kernel
    w[k, D_in, D_out], k odd, as one node: a window gather, then one 2-D
    product against the kernel's [k * D_in, D_out] view; with `relu`, the
    ReLU that follows it too, applied in place, whose backward masks by the
    output.

    x may hold several sequences back to back: `index` is then their
    `window_index(lengths, k)` (default: one sequence of A rows), which
    zero-pads each on its own, so no window reads across a boundary. A
    1-wide kernel without an index reads x itself, with no gather.
    The node keeps no windows: they are three times x for a 3-wide kernel,
    and the backward gathers them again from x for the kernel's gradient.
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
    if k == 1 and index is None:
        idx = None
    else:
        idx = window_index([A], k) if index is None else index
        if idx.shape != (A, k):
            raise DimensionError(f"conv1d: window index {idx.shape} for "
                                 f"{A} rows and kernel {k}")

    def windows():
        """[A, k * D_in]: the rows each output reads."""
        return (x.data if idx is None else
                _with_zero_row(x.data)[idx].reshape(A, k * d_in))

    out_data = _linear_forward(windows(), w, b)
    if relu:   # in place: the backward keeps the output only
        np.maximum(out_data, 0.0, out=out_data)
    parents = (x, w) if b is None else (x, w, b)
    if not any(p.requires_grad for p in parents):
        return Tensor(out_data)

    def backward(g):
        if relu:   # out > 0 exactly where the pre-activation is
            g = g * (out_data > 0)
        gwin = _linear_backward(g, windows(), w, b, x.requires_grad)
        if x.requires_grad:
            x._accum(gwin if idx is None else
                     _scatter_rows(gwin.reshape(A, k, d_in), idx, A))

    return Tensor(out_data, True, parents, backward)


def depthwise_conv1d(x: Tensor, w: Tensor, stride: int,
                     lengths) -> Tensor:
    """Per-channel strided convolution over each of the sequences `lengths`
    long that x [A, D] holds back to back, with kernel w [k, D], as one node:
    output t of a sequence reads its rows t * stride + j, and each sequence
    is right-padded with zeros on its own, so a sequence of T rows gives
    ceil(T / stride) outputs. Returns [sum ceil(T / stride), D]. The node
    keeps no [n, k, D] windows: the backward gathers them again from x for
    the kernel's gradient."""
    A, k = x.shape[0], w.shape[0]
    if sum(lengths) != A:
        raise DimensionError(f"depthwise_conv1d: lengths {list(lengths)} "
                             f"for {A} rows")
    idx = stride_index(lengths, stride, k)
    out_data = (_with_zero_row(x.data)[idx] * w.data).sum(axis=1)
    if not (x.requires_grad or w.requires_grad):
        return Tensor(out_data)

    def backward(g):
        g = g[:, None]
        if w.requires_grad:
            w._accum((g * _with_zero_row(x.data)[idx]).sum(axis=0))
        if x.requires_grad:
            x._accum(_scatter_rows(g * w.data, idx, A))

    return Tensor(out_data, True, (x, w), backward)


def checkpoint(fn, x: Tensor, cuts, params) -> Tensor:
    """fn over each piece of x's rows between consecutive `cuts`, the
    pieces' outputs back to back, as one node that keeps the graph of one
    piece only: gradient checkpointing, after Chen et al., "Training Deep
    Nets with Sublinear Memory Cost", arXiv 1604.06174.

    fn(piece, i) builds piece i's output from `piece`, a leaf holding its
    rows of x, and from the Parameters `params`, and must give the same
    values each time it runs; no output row may read another piece's rows.
    The forward builds and drops the graph of every piece but the last and
    keeps their output values; it keeps the last piece's graph. The
    backward first runs that graph's backward, which frees it, then
    rebuilds each other piece's graph in turn and runs its backward, so
    one piece's graph at a time is alive. Without a gradient to carry, fn
    runs once per piece and no node is built.
    """
    spans = list(zip(cuts[:-1], cuts[1:]))

    def run(i):
        lo, hi = spans[i]
        piece = Tensor(x.data[lo:hi], x.requires_grad)
        return piece, fn(piece, i)

    last = len(spans) - 1
    outs = [run(i)[1].data for i in range(last)]
    kept = run(last)
    out_data = np.concatenate(outs + [kept[1].data])
    parents = (x,) + tuple(params)
    if not any(p.requires_grad for p in parents):
        return Tensor(out_data)
    bounds = np.cumsum([0] + [len(o) for o in outs] + [len(kept[1].data)])

    def backward(g):
        gx = np.zeros_like(x.data) if x.requires_grad else None
        for i in [last] + list(range(last)):
            piece, out = kept if i == last else run(i)
            out._backprop(g[bounds[i]:bounds[i + 1]])
            if gx is not None:
                gx[spans[i][0]:spans[i][1]] = piece.grad
        if gx is not None:
            x._accum(gx)

    return Tensor(out_data, True, parents, backward)


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
