"""Dense float64 tensors with reverse-mode autodiff, a parameter store and Adam."""

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
from .optim import AdamState, ParamStore, RowGrad

__all__ = [
    "AdamState",
    "ParamStore",
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
