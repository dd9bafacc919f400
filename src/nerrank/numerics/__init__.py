"""Dense float64 tensors with reverse-mode autodiff, Adam, and gradient checks."""

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
from .gradcheck import GradCheckReport, grad_check

__all__ = [
    "AdamState",
    "GradCheckReport",
    "ParamStore",
    "Tensor",
    "backward",
    "concat_cols",
    "dropout",
    "grad_check",
    "lookup_rows",
    "matmul",
    "max_pool_time",
    "scale",
    "sigmoid",
    "stack_rows",
    "sum_all",
    "tanh",
]
