"""Dense float64 tensors with reverse-mode autodiff, Adam, and the npz encoder."""

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
from .npz import write_npz

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
    "write_npz",
]
