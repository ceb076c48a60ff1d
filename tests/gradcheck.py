"""Central finite-difference verification of tape gradients.

Used by the test suite to certify every learned component: the analytic
gradient from the tape must match a two-sided difference quotient of the
same scalar loss, parameter by parameter, at 64-bit precision.  fmash runs
in float32; a check casts the module under test with ``as_float64`` and
feeds float64 inputs, and ``max_relative_error`` refuses a loss or a
parameter that is not float64, so no check can pass at 32 bits.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from fmash.nn import Module
from fmash.tape import Tensor


def as_float64(item: Module | Tensor) -> Module | Tensor:
    """``item`` with every tensor it holds cast to float64 in place."""
    tensors = [item] if isinstance(item, Tensor) else [t for _, t in item.named_tensors()]
    for t in tensors:
        t.data = t.data.astype(np.float64)
    return item


def finite_difference_grads(loss_fn: Callable[[], Tensor],
                            params: Sequence[Tensor],
                            h: float = 1e-5) -> list[np.ndarray]:
    """Two-sided difference quotients of ``loss_fn`` for every entry of every
    parameter.  Each entry is perturbed in place by its multi-index, so a
    parameter whose data is a strided view (a transpose, a slice) is
    perturbed where the loss reads it."""
    grads = []
    for p in params:
        g = np.zeros(p.data.shape, dtype=p.data.dtype)
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + h
            hi = loss_fn().item()
            p.data[idx] = orig - h
            lo = loss_fn().item()
            p.data[idx] = orig
            g[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(loss_fn: Callable[[], Tensor],
                       params: Sequence[Tensor],
                       h: float = 1e-5,
                       backward: Callable[[], object] | None = None) -> float:
    """Worst-case relative error between tape and finite-difference gradients.

    The tape's gradients are those ``backward()`` leaves in ``params``, by
    default ``loss_fn().backward()``; pass another to certify a different
    backward pass of the same loss (``nn.accumulate_gradients``).  Each
    entry is compared relative to the larger of the two gradients, floored
    at a small fraction of the tensor's overall gradient scale so that
    difference-quotient noise on near-zero entries does not register as
    disagreement.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    dtypes = {loss.data.dtype} | {p.data.dtype for p in params}
    if dtypes != {np.dtype(np.float64)}:
        raise TypeError(f"gradient checks run in float64; the loss or a "
                        f"parameter is {sorted(map(str, dtypes))}")
    if backward is None:
        loss.backward()
    else:
        backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    numeric = finite_difference_grads(loss_fn, params, h=h)
    scale = max((float(np.max(np.abs(a))) for a in analytic), default=0.0)
    floor = max(1e-6, 1e-3 * scale)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
