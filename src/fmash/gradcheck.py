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

from .nn import Module
from .tape import Tensor


def as_float64(item: Module | Tensor) -> Module | Tensor:
    """``item`` with every tensor it holds cast to float64 in place."""
    tensors = [item] if isinstance(item, Tensor) else [t for _, t in item.named_tensors()]
    for t in tensors:
        t.data = t.data.astype(np.float64)
    return item


def finite_difference_grads(loss_fn: Callable[[], Tensor],
                            params: Sequence[Tensor],
                            h: float = 1e-5) -> list[np.ndarray]:
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn().item()
            flat[i] = orig - h
            lo = loss_fn().item()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(loss_fn: Callable[[], Tensor],
                       params: Sequence[Tensor],
                       h: float = 1e-5) -> float:
    """Worst-case relative error between tape and finite-difference gradients.

    Each entry is compared relative to the larger of the two gradients,
    floored at a small fraction of the tensor's overall gradient scale so
    that difference-quotient noise on near-zero entries does not register
    as disagreement.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    dtypes = {loss.data.dtype} | {p.data.dtype for p in params}
    if dtypes != {np.dtype(np.float64)}:
        raise TypeError(f"gradient checks run in float64; the loss or a "
                        f"parameter is {sorted(map(str, dtypes))}")
    loss.backward()
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
