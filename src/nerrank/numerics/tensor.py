"""Reverse-mode autodiff over dense numpy float64 arrays.

Each op records its parents and a closure that routes the output gradient
back to them; `backward` walks the recorded graph in reverse topological
order. The op set is exactly what the pattern scorer and its loss need,
one node per layer, each with a hand-written backward pass: row gather
with scatter-add gradients (`lookup_rows`), concatenation, inverted
dropout, a windowed convolution with max-pooling over time (`conv_pool`),
a whole LSTM with its input projections and recurrence (`lstm`,
backpropagation through time), the sigmoid output unit (`head`), the
batch's mean squared error (`mse`), the L2 penalty of a parameter list
and the sum of two same-shaped tensors (`add`). Activations are matrices
with one row per item; a batch of sequences lays its items end to end as
the rows of one matrix, and `conv_pool` and `lstm` read it as runs of
given lengths.

Inside `no_tape()` the ops compute the same values to the bit but record
nothing: a result has no parents and no backward closure, so evaluation
keeps no graph, and `conv_pool` and `lstm` drop each intermediate (the
window matrix, each step's gates and state) as soon as the forward pass
is done with it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from ..errors import NerrankError, ShapeMismatchError


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


_TAPE = ContextVar("nerrank_tape", default=True)


@contextmanager
def no_tape():
    """Run ops without recording them: for a forward pass that no
    `backward` follows. Results carry no graph, and `backward` rejects
    them."""
    token = _TAPE.set(False)
    try:
        yield
    finally:
        _TAPE.reset(token)


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if _TAPE.get():
        out._parents = parents
        out._backward = backward_fn
    return out


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    # the stable two-branch form in one expression: exp(min(x, 0)) is 1 for
    # x >= 0 and exp(x) below, exp(-|x|) never overflows
    return np.divide(np.exp(np.minimum(x, 0.0)), 1.0 + np.exp(-np.abs(x)), out=out)


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
            p._accum(piece)

    return _node(data, tuple(parts), bw)


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


def _runs(lengths, rows: int, op: str):
    """Checked lengths of B >= 1 runs of at least one row that tile `rows`
    rows, and the row each run is at on each step of the longest one,
    (steps, B): a run that has ended stays on its last row."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1:
        raise ShapeMismatchError(f"{op} cannot read an empty sequence")
    if lengths.ndim != 1 or lengths.sum() != rows:
        raise ShapeMismatchError(f"{op}: runs of lengths {lengths.tolist()} over {rows} rows")
    starts = np.cumsum(lengths) - lengths
    return lengths, starts + np.minimum(np.arange(lengths.max())[:, None], lengths - 1)


def conv_pool(source: Tensor, ids, lengths, w: Tensor, b: Tensor) -> Tensor:
    """Max-pooled window responses of B runs, shape (B, filters), in one node.

    Position p of the runs laid end to end reads row ``ids[p]`` of source;
    its response is [x_{p-half}, ..., x_{p+half}] @ w + b, with zero vectors
    beyond the edges of p's run, and each run keeps each column's max (the
    first on ties). A recorded node keeps the window matrix and the argmax
    rows; its backward pass scatter-adds the window gradient into the
    source rows one window position after another, -half first.
    """
    ids = np.asarray(ids, dtype=np.intp)
    width, filters = source.data.shape[-1], b.data.shape[-1]
    taps = w.data.shape[0] // width if width else 0
    if (ids.ndim != 1 or source.data.ndim != 2 or taps % 2 == 0
            or w.data.shape != (taps * width, filters) or b.data.shape != (1, filters)):
        raise ShapeMismatchError(f"conv_pool: source {source.data.shape}, w {w.data.shape}, b {b.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= source.data.shape[0]):
        raise IndexError(f"row id out of range for source with {source.data.shape[0]} rows")
    n = ids.size
    lengths, at = _runs(lengths, n, "conv_pool")
    first = np.repeat(at[0], lengths)
    end = first + np.repeat(lengths, lengths)
    taped = _TAPE.get()
    windows = np.zeros((n, taps * width))
    gathers = []  # per window position: the positions inside their run and the rows they read
    for j in range(taps):
        pos = np.arange(n) + (j - taps // 2)
        inside = (pos >= first) & (pos < end)
        read = ids[pos[inside]]
        windows[inside, j * width:(j + 1) * width] = source.data[read]
        if taped:
            gathers.append((inside, read))
    resp = windows @ w.data + b.data
    if not taped:
        del windows  # only the backward pass reads it again
    # the first-occurrence argmax never prefers an ended run's repeated last row
    rows = np.take_along_axis(at.T, np.argmax(resp[at.T], axis=1), axis=1)
    cols = np.arange(filters)
    data = resp[rows, cols]

    def bw(g):
        d_resp = np.zeros((n, filters))
        d_resp[rows, cols] = g
        b._accum(d_resp.sum(axis=0, keepdims=True))
        w._accum(windows.T @ d_resp)
        d_windows = d_resp @ w.data.T
        back = np.zeros_like(source.data)
        for j, (inside, read) in enumerate(gathers):
            np.add.at(back, read, d_windows[inside, j * width:(j + 1) * width])
        source._accum(back)

    return _node(data, (source, w, b), bw)


def lstm(x: Tensor, weights, biases, peepholes, lengths) -> Tensor:
    """Final hidden state of each of B runs of rows of x, shape (B, h), in
    one node.

    x holds the runs' rows laid end to end; `weights` are W1..W8; `biases`
    are b1..b4, each (1, h); `peepholes` is (mu1, mu2), each (1, h), or
    None. The input projections x W2, x W4, x W6, x W8 are one matmul each,
    and all runs step together on one (B, h) state from h = M = 0:

        i = sigmoid(h W1 + x W2 + b1 [+ mu1 * M])
        f = sigmoid(h W3 + x W4 + b2 [+ mu2 * M])
        m~ = tanh(h W5 + x W6 + b3)        M = i * m~ + f * M
        o = sigmoid(h W7 + x W8 + b4)      h = tanh(M) * o

    Each gate is summed in that order, so the result equals these
    expressions to the bit. Step t reads row t of every run, or its last
    row once the run has ended; run b's result is its state after step
    ``lengths[b] - 1``, so the steps an ended run takes past that get
    exactly zero gradient. A recorded node keeps each step's gates and the
    (h, M) it started from, and its backward pass runs backpropagation
    through time over them; x's gradients are added in the order W2, W4,
    W6, W8. Under `no_tape` the same loop cycles through one gate buffer
    and two state slots instead, copying each run's h out at its last step.
    """
    rows, hidden = x.data.shape[0], weights[0].data.shape[0]
    lengths, at = _runs(lengths, rows, "lstm")  # at: the row of x each run reads at each step
    recurrent, projections = weights[0::2], weights[1::2]
    steps, batch = at.shape
    # the gates are kept in the order i, f, o, m~ (arguments 0, 1, 3, 2),
    # so that the three sigmoid gates are one contiguous block
    order = (0, 1, 3, 2)
    xs = [x.data @ projections[k].data for k in order]
    ws = [recurrent[k].data for k in order]
    bias = np.stack([biases[k].data for k in order])
    mu = None if peepholes is None else np.stack([p.data for p in peepholes])
    # recorded: one gate slot per step and hs[t], ms[t], the state step t
    # reads; under no_tape, step t uses gate slot 0 and state slots t % 2
    kept = steps if _TAPE.get() else 1
    gates = np.empty((kept, 4, batch, hidden))
    hs = np.zeros((kept + 1, batch, hidden))
    ms = np.zeros((kept + 1, batch, hidden))
    pre = np.empty((4, batch, hidden))
    data = np.empty((batch, hidden))
    for t in range(steps):
        gate, a, z = gates[t % kept], t % (kept + 1), (t + 1) % (kept + 1)
        for k in range(4):
            np.matmul(hs[a], ws[k], out=pre[k])
            pre[k] += xs[k][at[t]]
        pre += bias
        if mu is not None:
            pre[:2] += mu * ms[a]
        i, f, o, cand = gate
        _sigmoid(pre[:3], out=gate[:3])
        np.tanh(pre[3], out=cand)
        np.multiply(i, cand, out=ms[z])
        ms[z] += f * ms[a]
        np.tanh(ms[z], out=hs[z])
        hs[z] *= o
        ends = lengths == t + 1
        data[ends] = hs[z, ends]

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
        d_w = hs[:-1].reshape(-1, hidden).T @ d.reshape(-1, 4 * hidden)
        d_b = d.reshape(-1, 4 * hidden).sum(axis=0, keepdims=True)
        for col, k in zip(cols, order):
            recurrent[k]._accum(d_w[:, col])
            biases[k]._accum(d_b[:, col])
        if peepholes is not None:
            for p, col in zip(peepholes, cols):
                p._accum((d[:, :, col] * ms[:-1]).reshape(-1, hidden).sum(axis=0, keepdims=True))
        # each row of x is read at exactly one step before its run ends
        valid = np.arange(steps)[:, None] < lengths
        d_x = np.empty((rows, 4 * hidden))
        d_x[at[valid]] = d[valid]
        for k in range(4):
            d_xk = np.ascontiguousarray(d_x[:, cols[order.index(k)]])
            x._accum(d_xk @ projections[k].data.T)
            projections[k]._accum(x.data.T @ d_xk)

    parents = (x, *weights, *biases, *(peepholes or ()))
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


def head(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The sigmoid unit sigmoid(h @ w + b) of each row of h, shape
    (B, outputs), in one node; b is one row (1, outputs)."""
    if (h.data.ndim != 2 or w.data.ndim != 2 or h.data.shape[1] != w.data.shape[0]
            or b.data.shape != (1, w.data.shape[1])):
        raise ShapeMismatchError(f"head: {h.data.shape} @ {w.data.shape} + {b.data.shape}")
    out = _sigmoid(h.data @ w.data + b.data)

    def bw(g):
        d = g * out * (1.0 - out)
        b._accum(d.sum(axis=0, keepdims=True))
        w._accum(h.data.T @ d)
        h._accum(d @ w.data.T)

    return _node(out, (h, w, b), bw)


def mse(scores: Tensor, targets) -> Tensor:
    """sum((scores - targets)^2) / rows, the mean over a batch of its rows'
    squared errors, as a (1, 1) node; `targets` is a plain array of the
    scores' shape."""
    targets = np.asarray(targets, dtype=np.float64)
    if scores.data.ndim != 2 or targets.shape != scores.data.shape:
        raise ShapeMismatchError(f"mse: scores {scores.data.shape} vs targets {targets.shape}")
    diff = scores.data - targets
    c = 1.0 / diff.shape[0]

    def bw(g):
        scores._accum(2.0 * (diff * (g[0, 0] * c)))

    return _node(np.array([[(diff * diff).sum() * c]]), (scores,), bw)


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
            p._accum(p.data * (l2 * g[0, 0]))

    return _node(np.array([[total * (l2 / 2.0)]]), tuple(params), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for two tensors of one shape (the loss and its L2 term)."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"add: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        a._accum(g)
        b._accum(g)

    return _node(a.data + b.data, (a, b), bw)


def backward(loss: Tensor):
    """Seed d(loss)/d(loss)=1 and run every recorded closure in reverse
    topological order, accumulating into .grad on the way down."""
    if loss.data.size != 1:
        raise ShapeMismatchError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._backward is None:
        raise NerrankError(
            "backward needs a result recorded on the tape, not a leaf or an op run under no_tape()"
        )
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
