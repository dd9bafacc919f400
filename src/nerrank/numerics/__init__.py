"""Dense float64 tensors with reverse-mode autodiff, a parameter store and Adam."""

from .tensor import (
    Tensor,
    backward,
    concat,
    conv_pool,
    dropout,
    l2_penalty,
    lookup_rows,
    lstm,
    matmul,
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
    "conv_pool",
    "dropout",
    "l2_penalty",
    "lookup_rows",
    "lstm",
    "matmul",
    "scale",
    "sigmoid",
    "sum_all",
]
