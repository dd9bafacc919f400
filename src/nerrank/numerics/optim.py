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
        t = Tensor(data, requires_grad=True)
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


class AdamState:
    """Adam with bias correction over a fixed parameter list.

    update = lr * m_hat / (sqrt(v_hat) + eps). Every hyperparameter is
    given by the caller: the reranker passes its `TrainConfig` values
    (beta1 = 0.1 by default there) and the CRF the conventional 0.9.

    A step allocates nothing: each parameter's update is formed with
    ufunc `out=` in two scratch buffers of the largest parameter's size,
    shared by all parameters, by the operations of
    `m = m * beta1 + (1 - beta1) * g`, `v = v * beta2 + ((1 - beta2) * g) * g`
    and `p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)` in their order, so
    the weights equal those of these expressions to the bit.
    """

    def __init__(self, params: list[Tensor], *, lr: float, beta1: float, beta2: float, eps: float):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        size = max((p.data.size for p in self.params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            a = self._scratch[0][: m.size].reshape(m.shape)
            b = self._scratch[1][: m.size].reshape(m.shape)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            p.data -= np.divide(a, b, out=a)
