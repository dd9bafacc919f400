"""The Adam optimizer and the row-compact gradient it takes."""

from __future__ import annotations

from math import prod
from typing import NamedTuple

import numpy as np

from .tensor import Tensor


# elements per block of an update. Adam and the CRF's L2 term go through a
# parameter one block at a time, so no temporary they make is larger than a
# block whatever the parameter's size; every operation is elementwise, so
# the bits are those of the whole-array expressions. On a (32000, 9) table
# a step took 2.7 ms whole and 4.4, 2.6, 2.2, 2.3 and 2.8 ms in blocks of
# 2**11, 2**13, 2**15, 2**16 and 2**17 (best of 7 x 50 steps, 2 vCPUs)
BLOCK = 1 << 15


class RowGrad(NamedTuple):
    """A parameter's gradient held by the rows it touches. It stands for
    the dense array g of the parameter's shape with g[rows] = values and
    0.0 in every other row, then `g /= divisor`, then `g += p * l2` for
    the parameter p: a batch's summed gradient, averaged, plus the L2
    term's. `AdamState.step` forms g one block at a time, so a table whose
    batch touches few rows needs no gradient array of the table's size."""

    rows: np.ndarray  # sorted distinct row indices
    values: np.ndarray  # (len(rows), *the parameter's row shape)
    divisor: float
    l2: float

    def block(self, start: int, p: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Flat elements start .. start + out.size of g, in `out`, by the
        operations above in their order; `p` holds the parameter's same
        elements and `scratch` is a buffer of their size."""
        out.fill(0.0)
        width = prod(self.values.shape[1:])
        # the rows that overlap the block, then their elements inside it
        lo, hi = np.searchsorted(self.rows, (start // width, -(-(start + out.size) // width)))
        flat = (self.rows[lo:hi, None] * width + np.arange(width)).reshape(-1)
        values = self.values[lo:hi].reshape(-1)
        first, last = np.searchsorted(flat, (start, start + out.size))
        out[flat[first:last] - start] = values[first:last]
        out /= self.divisor
        out += np.multiply(p, self.l2, out=scratch)
        return out


class AdamState:
    """Adam with bias correction over a fixed parameter list.

    update = lr * m_hat / (sqrt(v_hat) + eps). Every hyperparameter is
    given by the caller: the reranker passes its `TrainConfig` values
    (beta1 = 0.1 by default there) and the CRF the conventional 0.9.

    A step allocates nothing: it goes through each parameter one block of
    BLOCK elements at a time and forms the block's update with ufunc
    `out=` in two scratch buffers of one block each, shared by all
    parameters, by the operations of
    `m = m * beta1 + (1 - beta1) * g`, `v = v * beta2 + ((1 - beta2) * g) * g`
    and `p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)` in their order. Each
    is elementwise, so the weights equal those of these expressions on
    whole arrays to the bit. The moments are kept flat, in the C order of
    the parameter's elements; a gradient in another layout is copied to
    that order first.

    A parameter's gradient is a dense array of its shape or a `RowGrad`,
    whose block of g is formed in the second scratch buffer just before
    the block's update reads it (only the index arrays of the block's
    rows are allocated); the update is the same for both.
    """

    def __init__(self, params: list[Tensor], *, lr: float, beta1: float, beta2: float, eps: float):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros(p.data.size) for p in self.params]
        self.v = [np.zeros(p.data.size) for p in self.params]
        size = min(BLOCK, max((p.data.size for p in self.params), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            by_rows = isinstance(g, RowGrad)
            shape = (len(p.data), *g.values.shape[1:]) if by_rows else g.shape
            if shape != p.data.shape:
                raise ValueError(f"gradient shape {shape} differs from the parameter's {p.data.shape}")
            if not p.data.flags.c_contiguous:  # its flat view is written below
                raise ValueError("a parameter's data must be C-contiguous")
            data = p.data.reshape(-1)
            if not by_rows:
                g = g.reshape(-1)
            for start in range(0, m.size, BLOCK):
                block = slice(start, start + BLOCK)
                m_block, v_block = m[block], v[block]
                a = self._scratch[0][: m_block.size]
                b = self._scratch[1][: m_block.size]
                # a row gradient's block is formed in b, which is first
                # written below after the last read of g_block
                g_block = g.block(start, data[block], out=b, scratch=a) if by_rows else g[block]
                m_block *= self.beta1
                m_block += np.multiply(g_block, 1.0 - self.beta1, out=a)
                v_block *= self.beta2
                np.multiply(g_block, 1.0 - self.beta2, out=a)
                v_block += np.multiply(a, g_block, out=a)
                np.divide(m_block, bc1, out=a)
                a *= self.lr
                np.divide(v_block, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                data[block] -= np.divide(a, b, out=a)
