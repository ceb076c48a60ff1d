"""The two loss nodes training called before each head fused its output
projection into its loss: the oracles of ``tape.linear_cross_entropy``
and ``tape.linear_bce``, which must equal ``linear`` followed by one of
these bit for bit, in value and in every gradient."""

import numpy as np

from fmash.tape import Tensor, _as_array, _node


def masked_cross_entropy(logits: Tensor, targets: np.ndarray,
                         mask: np.ndarray) -> Tensor:
    """Mean of ``-log softmax(logits)[..., target]`` over the positions where
    ``mask`` is True, as one node with the closed-form backward
    ``(softmax - onehot) * mask / count``."""
    v = logits.shape[-1]
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    count = float(mask.sum())
    x = logits.data.reshape(-1, v)
    shift = x - x.max(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    picked = shift[rows, targets]
    e = np.exp(shift, out=shift)
    total = e.sum(axis=1, keepdims=True)
    picked -= np.log(total[:, 0])
    out = _node(-((picked * mask).sum() / count), (logits,))
    if out._parents:
        def bw(g):
            grad = np.divide(e, total, out=e)
            grad[rows, targets] -= 1.0
            grad *= (mask * (g / count))[:, None]
            logits._accumulate(grad.reshape(logits.shape))
        out._backward = bw
    return out


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy ``mean(softplus(x) - t x)`` as one node
    whose backward hands ``logits`` the composite's two gradients in its
    order, ``(g/N) sigmoid(x)`` and then ``-(g/N) t``; the forward takes
    softplus as ``log1p(exp(-|x|)) + max(x, 0)``."""
    x = logits.data
    t = _as_array(targets)
    n = _as_array(float(x.size))
    e = np.exp(-np.abs(x))
    sp = np.log1p(e)
    sp += np.maximum(x, 0.0)
    sp -= t * x
    out = _node(sp.sum() / n, (logits,))
    if out._parents:
        def bw(g):
            gn = g / n
            sig = np.exp(np.minimum(x, 0.0))
            sig /= np.add(e, 1.0, out=e)
            sig *= gn
            logits._accumulate(sig)
            logits._accumulate(-gn * t)
        out._backward = bw
    return out
