"""Dense float64 tensors with reverse-mode autodiff, and Adam."""

from .tensor import (
    Tensor,
    add,
    backward,
    concat,
    conv_pool,
    dropout,
    head,
    l2_penalty,
    lookup_rows,
    lstm,
    mse,
    no_tape,
)
from .optim import AdamState, RowGrad

__all__ = [
    "AdamState",
    "RowGrad",
    "Tensor",
    "add",
    "backward",
    "concat",
    "conv_pool",
    "dropout",
    "head",
    "l2_penalty",
    "lookup_rows",
    "lstm",
    "mse",
    "no_tape",
]
