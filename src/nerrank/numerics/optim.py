"""Parameter registry and the Adam optimizer."""

from __future__ import annotations

import numpy as np

from ..errors import CheckpointMismatchError
from .tensor import Tensor


class ParamStore:
    """Ordered, named registry of trainable tensors.

    Insertion order is the serialization order, so two stores built by the
    same model code always align parameter-for-parameter.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data)
        self._params[name] = t
        return t

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        if set(arrays) != set(self._params):
            missing = sorted(set(self._params) - set(arrays))
            extra = sorted(set(arrays) - set(self._params))
            raise CheckpointMismatchError(f"parameter names differ (missing {missing}, extra {extra})")
        for name, t in self._params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise CheckpointMismatchError(
                    f"parameter {name!r}: shape {arr.shape} vs expected {t.data.shape}"
                )
            if not np.isfinite(arr).all():
                raise CheckpointMismatchError(f"parameter {name!r} holds a non-finite value")
            t.data = arr.copy()


# elements per block of an update. Adam and the CRF's L2 term go through a
# parameter one block at a time, so no temporary they make is larger than a
# block whatever the parameter's size; every operation is elementwise, so
# the bits are those of the whole-array expressions. On a (32000, 9) table
# a step took 2.7 ms whole and 4.4, 2.6, 2.2, 2.3 and 2.8 ms in blocks of
# 2**11, 2**13, 2**15, 2**16 and 2**17 (best of 7 x 50 steps, 2 vCPUs)
BLOCK = 1 << 15


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
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} differs from the parameter's {p.data.shape}")
            if not p.data.flags.c_contiguous:  # its flat view is written below
                raise ValueError("a parameter's data must be C-contiguous")
            data = p.data.reshape(-1)
            g = g.reshape(-1)
            for start in range(0, m.size, BLOCK):
                block = slice(start, start + BLOCK)
                g_block, m_block, v_block = g[block], m[block], v[block]
                a = self._scratch[0][: g_block.size]
                b = self._scratch[1][: g_block.size]
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
