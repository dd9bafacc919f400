"""Central-difference gradient verification for the autodiff tests, and a
linear scalarizer for tests that read exact gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nerrank.errors import NerrankError
from nerrank.numerics import Tensor, backward


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: tuple
    checked: int

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol

    def __str__(self):
        return (
            f"grad check: max relative error {self.max_rel_err:.3e} "
            f"at {self.worst_param}{list(self.worst_index)} over {self.checked} coordinates"
        )


def grad_check(loss_fn, params, h=1e-5, max_coords_per_param=None, rng=None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_fn` builds a fresh graph and returns a scalar Tensor; it must be
    deterministic (dropout off, fixed inputs) — two forward passes are
    compared bit-for-bit to enforce that. `params` is a list of (name,
    Tensor) pairs or an object with .items(). Relative error uses
    |a - n| / max(|a|, |n|, 1e-6) so near-zero gradients compare on an
    absolute scale.
    """
    if hasattr(params, "items"):
        params = list(params.items())
    tensors: list[tuple[str, Tensor]] = list(params)
    if rng is None:
        rng = np.random.default_rng(0)

    loss = loss_fn()
    again = loss_fn()
    if loss.data.tobytes() != again.data.tobytes():
        raise NerrankError("loss closure is not deterministic; cannot gradient-check")

    for _, t in tensors:
        t.grad = None
    loss = loss_fn()
    backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in tensors
    }

    worst = 0.0
    worst_param = ""
    worst_index = ()
    checked = 0
    for name, t in tensors:
        flat = t.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        a_flat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn().item()
            flat[i] = orig - h
            fm = loss_fn().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            checked += 1
            if rel > worst:
                worst = rel
                worst_param = name
                worst_index = np.unravel_index(i, t.data.shape)
    return GradCheckReport(worst, worst_param, tuple(int(j) for j in worst_index), checked)


def weighted_sum(out: Tensor, w) -> Tensor:
    """sum(out * w) as a (1, 1) node whose backward pass hands `out` the
    gradient `w` exactly: tests that assert where and how much gradient
    lands use it, since the scorer's own loss (`mse`) is not linear."""
    w = np.asarray(w, dtype=np.float64)
    loss = Tensor(np.array([[(out.data * w).sum()]]))
    loss._parents = (out,)
    loss._backward = lambda g: out._accum(g[0, 0] * w)
    return loss
