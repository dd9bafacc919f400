"""Dense float64 tensors with reverse-mode autodiff, Adam, and gradient checks."""

from .tensor import (
    Tensor,
    backward,
    concat_cols,
    dropout,
    lookup_row,
    lookup_rows,
    matmul,
    max_pool_time,
    maximum,
    scale,
    shift_rows,
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
    "lookup_row",
    "lookup_rows",
    "matmul",
    "max_pool_time",
    "maximum",
    "scale",
    "shift_rows",
    "sigmoid",
    "stack_rows",
    "sum_all",
    "tanh",
]
