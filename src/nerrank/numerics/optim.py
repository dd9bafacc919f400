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
        t = data if isinstance(data, Tensor) else Tensor(data)
        t.requires_grad = True
        t.name = name
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
            t.data = arr.copy()


class AdamState:
    """Adam with bias correction over a fixed parameter list.

    update = lr * m_hat / (sqrt(v_hat) + eps). The default beta1 is 0.1,
    the reranker's training default; pass 0.9 for the conventional
    setting.
    """

    def __init__(self, params: list[Tensor], lr=0.001, beta1=0.1, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
