"""Dense float64 tensors with reverse-mode autodiff, a parameter store and Adam."""

from .tensor import (
    Tensor,
    backward,
    concat_cols,
    dropout,
    lookup_rows,
    matmul,
    max_pool_time,
    scale,
    sigmoid,
    stack_rows,
    sum_all,
    tanh,
)
from .optim import AdamState, ParamStore

__all__ = [
    "AdamState",
    "ParamStore",
    "Tensor",
    "backward",
    "concat_cols",
    "dropout",
    "lookup_rows",
    "matmul",
    "max_pool_time",
    "scale",
    "sigmoid",
    "stack_rows",
    "sum_all",
    "tanh",
]
