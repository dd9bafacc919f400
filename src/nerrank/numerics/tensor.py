"""Reverse-mode autodiff over dense numpy float64 arrays.

Each op records its parents and a closure that routes the output gradient
back to them; `backward` walks the recorded graph in reverse topological
order. The op set is exactly what a recurrent/convolutional sentence scorer
needs: matmul, elementwise arithmetic, sigmoid/tanh, row/column assembly,
row gather with scatter-add gradients, temporal max-pooling, and inverted
dropout. Activations are matrices with one row per item; a batch of
sequences lays its items end to end as the rows of one matrix, and
`max_pool_time` reads it as runs of given lengths.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(g, self.data.shape)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # operator sugar; numbers multiply via scale
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward_fn
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatchError(f"add: {a.data.shape} vs {b.data.shape}") from None

    def bw(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g)

    return _node(data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatchError(f"sub: {a.data.shape} vs {b.data.shape}") from None

    def bw(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(-g)

    return _node(data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatchError(f"mul: {a.data.shape} vs {b.data.shape}") from None

    def bw(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return _node(data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        a._accum(g * c)

    return _node(a.data * c, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return _node(data, (a, b), bw)


def sigmoid(a: Tensor) -> Tensor:
    # the stable two-branch form in one expression: exp(min(x, 0)) is 1 for
    # x >= 0 and exp(x) below, exp(-|x|) never overflows
    x = a.data
    out = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))

    def bw(g):
        a._accum(g * out * (1.0 - out))

    return _node(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        a._accum(g * (1.0 - out * out))

    return _node(out, (a,), bw)


def concat_cols(parts: list) -> Tensor:
    """Join matrices side by side (same row count)."""
    if not parts:
        raise ValueError("concat_cols of nothing")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeMismatchError(
                f"concat_cols: {p.data.shape} does not stack beside ({rows}, *)"
            )
    data = np.concatenate([p.data for p in parts], axis=1)
    widths = [p.data.shape[1] for p in parts]

    def bw(g):
        at = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accum(g[:, at : at + w])
            at += w

    return _node(data, tuple(parts), bw)


def stack_rows(parts: list) -> Tensor:
    """Join matrices top to bottom (same column count)."""
    if not parts:
        raise ValueError("stack_rows of nothing")
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise ShapeMismatchError(
                f"stack_rows: {p.data.shape} does not stack above (*, {cols})"
            )
    data = np.concatenate([p.data for p in parts], axis=0)
    heights = [p.data.shape[0] for p in parts]

    def bw(g):
        at = 0
        for p, h in zip(parts, heights):
            if p.requires_grad:
                p._accum(g[at : at + h])
            at += h

    return _node(data, tuple(parts), bw)


def max_pool_time(a: Tensor, lengths) -> Tensor:
    """Per-column max over each run of rows: (sum(lengths), C) -> (B, C) for
    B runs laid end to end; the gradient goes to the argmax row of each
    column within its run (first row on ties)."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if a.data.ndim != 2 or lengths.ndim != 1 or lengths.sum() != a.data.shape[0]:
        raise ShapeMismatchError(
            f"max_pool_time: runs of lengths {lengths.tolist()} over {a.data.shape}"
        )
    if lengths.size == 0 or lengths.min() < 1:
        raise ShapeMismatchError("max_pool_time needs runs of at least one row")
    # (B, max length) row ids; a short run repeats its last row, which the
    # first-occurrence argmax never prefers over the real one
    starts = np.cumsum(lengths) - lengths
    ids = starts[:, None] + np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
    best = np.argmax(a.data[ids], axis=1)
    rows = np.take_along_axis(ids, best, axis=1)
    cols = np.arange(a.data.shape[1])
    data = a.data[rows, cols]

    def bw(g):
        back = np.zeros_like(a.data)
        back[rows, cols] = g
        a._accum(back)

    return _node(data, (a,), bw)


def lookup_rows(table: Tensor, ids) -> Tensor:
    """Gather rows by index; gradients scatter-add back (sparse: only the
    touched rows are updated, without materializing a dense table)."""
    ids = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeMismatchError(f"lookup_rows needs a matrix, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"row id out of range for table with {table.data.shape[0]} rows")
    data = table.data[ids]

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _node(data, (table,), bw)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scaling by 1/(1-rate) at train time keeps the
    expected activation unchanged; evaluation mode is the identity. The
    degenerate rate 1.0 drops everything (zero output)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1]: {rate}")
    if not training or rate == 0.0:
        return a
    if rate == 1.0:
        mask = np.zeros(a.data.shape)
    else:
        mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

    def bw(g):
        a._accum(g * mask)

    return _node(a.data * mask, (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    data = np.array([[a.data.sum()]])

    def bw(g):
        a._accum(np.full_like(a.data, g[0, 0]))

    return _node(data, (a,), bw)


def backward(loss: Tensor):
    """Seed d(loss)/d(loss)=1 and run every recorded closure in reverse
    topological order, accumulating into .grad on the way down."""
    if loss.data.size != 1:
        raise ShapeMismatchError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
