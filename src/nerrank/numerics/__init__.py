"""Dense float64 tensors with reverse-mode autodiff, a parameter store and Adam."""

from .tensor import (
    Tensor,
    backward,
    concat,
    dropout,
    lookup_rows,
    matmul,
    max_pool_time,
    scale,
    sigmoid,
    sum_all,
    tanh,
)
from .optim import AdamState, ParamStore

__all__ = [
    "AdamState",
    "ParamStore",
    "Tensor",
    "backward",
    "concat",
    "dropout",
    "lookup_rows",
    "matmul",
    "max_pool_time",
    "scale",
    "sigmoid",
    "sum_all",
    "tanh",
]
