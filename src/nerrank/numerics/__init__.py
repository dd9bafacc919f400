"""Dense float64 tensors with reverse-mode autodiff, a parameter store and Adam."""

from .tensor import (
    Tensor,
    backward,
    concat,
    dropout,
    l2_penalty,
    lookup_rows,
    lstm,
    matmul,
    max_pool_time,
    scale,
    sigmoid,
    sum_all,
)
from .optim import AdamState, ParamStore

__all__ = [
    "AdamState",
    "ParamStore",
    "Tensor",
    "backward",
    "concat",
    "dropout",
    "l2_penalty",
    "lookup_rows",
    "lstm",
    "matmul",
    "max_pool_time",
    "scale",
    "sigmoid",
    "sum_all",
]
