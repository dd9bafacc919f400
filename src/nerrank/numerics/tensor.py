"""Reverse-mode autodiff over dense numpy float64 arrays.

Each op records its parents and a closure that routes the output gradient
back to them; `backward` walks the recorded graph in reverse topological
order. The op set is exactly what a recurrent/convolutional sentence scorer
needs: matmul, elementwise arithmetic, sigmoid, concatenation, row gather
with scatter-add gradients, temporal max-pooling, inverted dropout, a whole
LSTM recurrence as one node (its backward pass is hand-written
backpropagation through time), and the L2 penalty of a parameter list as
one node. Activations are matrices with one row per item; a batch of
sequences lays its items end to end as the rows of one matrix, and
`max_pool_time` and `lstm` read it as runs of given lengths.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

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
        return f"Tensor(shape={self.data.shape})"

    # operator sugar for the elementwise ops between two tensors; scaling
    # by a number and matrix products are spelled `scale` and `matmul`
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


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


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    # the stable two-branch form in one expression: exp(min(x, 0)) is 1 for
    # x >= 0 and exp(x) below, exp(-|x|) never overflows
    return np.divide(np.exp(np.minimum(x, 0.0)), 1.0 + np.exp(-np.abs(x)), out=out)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def bw(g):
        a._accum(g * out * (1.0 - out))

    return _node(out, (a,), bw)


def concat(parts: list, axis: int) -> Tensor:
    """Join matrices top to bottom (axis 0) or side by side (axis 1) in one
    node; the backward pass gives each part its own slice of the gradient."""
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeMismatchError(
            f"concat on axis {axis}: {[p.data.shape for p in parts]}"
        ) from None
    cuts = np.cumsum([p.data.shape[axis] for p in parts[:-1]])

    def bw(g):
        for p, piece in zip(parts, np.split(g, cuts, axis=axis)):
            if p.requires_grad:
                p._accum(piece)

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


def lstm(inputs, recurrent, biases, peepholes, lengths) -> Tensor:
    """Final hidden state of each of B runs of rows, shape (B, h), in one node.

    `inputs` are the input projections x W2, x W4, x W6, x W8 of the runs'
    rows laid end to end, each (sum(lengths), h); `recurrent` are W1, W3,
    W5, W7, each (h, h); `biases` are b1..b4, each (1, h); `peepholes` is
    (mu1, mu2), each (1, h), or None. All runs step together on one (B, h)
    state from h = M = 0:

        i = sigmoid(h W1 + x W2 + b1 [+ mu1 * M])
        f = sigmoid(h W3 + x W4 + b2 [+ mu2 * M])
        m~ = tanh(h W5 + x W6 + b3)        M = i * m~ + f * M
        o = sigmoid(h W7 + x W8 + b4)      h = tanh(M) * o

    Each gate is summed in that order, so the result equals these
    expressions to the bit. Step t reads row t of every run, or its last
    row once the run has ended; run b's result is its state after step
    ``lengths[b] - 1``, so the steps an ended run takes past that get
    exactly zero gradient. The node keeps each step's gates and the (h, M)
    it started from, and its backward pass runs backpropagation through
    time over them.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    rows, hidden = inputs[0].shape
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != rows:
        raise ShapeMismatchError(f"lstm: runs of lengths {lengths.tolist()} over {rows} rows")
    batch, steps = len(lengths), int(lengths.max())
    starts = np.cumsum(lengths) - lengths
    # row of x each run reads at each step, (steps, B)
    at = starts + np.minimum(np.arange(steps)[:, None], lengths - 1)
    # the gates are kept in the order i, f, o, m~ (arguments 0, 1, 3, 2),
    # so that the three sigmoid gates are one contiguous block
    order = (0, 1, 3, 2)
    xs = [inputs[k].data for k in order]
    ws = [recurrent[k].data for k in order]
    bias = np.stack([biases[k].data for k in order])
    mu = None if peepholes is None else np.stack([p.data for p in peepholes])
    gates = np.empty((steps, 4, batch, hidden))
    hs = np.zeros((steps + 1, batch, hidden))  # hs[t], ms[t]: the state step t reads
    ms = np.zeros((steps + 1, batch, hidden))
    pre = np.empty((4, batch, hidden))
    for t in range(steps):
        for k in range(4):
            np.matmul(hs[t], ws[k], out=pre[k])
            pre[k] += xs[k][at[t]]
        pre += bias
        if mu is not None:
            pre[:2] += mu * ms[t]
        i, f, o, cand = gates[t]
        _sigmoid(pre[:3], out=gates[t, :3])
        np.tanh(pre[3], out=cand)
        np.multiply(i, cand, out=ms[t + 1])
        ms[t + 1] += f * ms[t]
        np.tanh(ms[t + 1], out=hs[t + 1])
        hs[t + 1] *= o
    data = hs[lengths, np.arange(batch)]

    def bw(g):
        cols = [slice(j * hidden, (j + 1) * hidden) for j in range(4)]
        w_t = np.concatenate(ws, axis=1).T
        d = np.empty((steps, batch, 4 * hidden))  # gradients of the pre-activations
        dh = np.zeros((batch, hidden))
        dm = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            ends = lengths == t + 1
            dh[ends] += g[ends]
            i, f, o, cand = gates[t]
            tanh_m = np.tanh(ms[t + 1])
            dm += dh * o * (1.0 - tanh_m * tanh_m)
            dt = d[t]
            dt[:, cols[0]] = dm * cand * i * (1.0 - i)
            dt[:, cols[1]] = dm * ms[t] * f * (1.0 - f)
            dt[:, cols[2]] = dh * tanh_m * o * (1.0 - o)
            dt[:, cols[3]] = dm * i * (1.0 - cand * cand)
            dm = dm * f
            if mu is not None:
                dm += dt[:, cols[0]] * mu[0] + dt[:, cols[1]] * mu[1]
            dh = dt @ w_t
        # each row of x is read at exactly one step before its run ends
        valid = np.arange(steps)[:, None] < lengths
        d_x = np.empty((rows, 4 * hidden))
        d_x[at[valid]] = d[valid]
        d_w = hs[:-1].reshape(-1, hidden).T @ d.reshape(-1, 4 * hidden)
        d_b = d.reshape(-1, 4 * hidden).sum(axis=0, keepdims=True)
        for col, k in zip(cols, order):
            for p, grad in ((inputs[k], d_x[:, col]), (recurrent[k], d_w[:, col]), (biases[k], d_b[:, col])):
                if p.requires_grad:
                    p._accum(grad)
        if peepholes is not None:
            for p, col in zip(peepholes, cols):
                if p.requires_grad:
                    p._accum((d[:, :, col] * ms[:-1]).reshape(-1, hidden).sum(axis=0, keepdims=True))

    parents = (*inputs, *recurrent, *biases, *(peepholes or ()))
    return _node(data, parents, bw)


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


def l2_penalty(params, l2: float) -> Tensor:
    """(l2/2) * the sum of squares of every entry of `params`, as one node;
    the squares are summed per parameter in the given order. Its backward
    pass adds l2 * p to each parameter's gradient."""
    l2 = float(l2)
    total = 0.0
    for p in params:
        total += (p.data * p.data).sum()

    def bw(g):
        for p in params:
            if p.requires_grad:
                p._accum(p.data * (l2 * g[0, 0]))

    return _node(np.array([[total * (l2 / 2.0)]]), tuple(params), bw)


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
