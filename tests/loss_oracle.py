"""The loss node the sequence head called before it fused its output
projection into its loss: the oracle of ``tape.linear_cross_entropy``,
which must equal ``linear`` followed by this node bit for bit, in value
and in every gradient."""

import numpy as np

from fmash.tape import Tensor, _record


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of ``-log softmax(logits)[..., target]`` over every position, as
    one node with the closed-form backward ``(softmax - onehot) / count``."""
    v = logits.shape[-1]
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    count = float(targets.size)
    x = logits.data.reshape(-1, v)
    shift = x - x.max(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    picked = shift[rows, targets]
    e = np.exp(shift, out=shift)
    total = e.sum(axis=1, keepdims=True)
    picked -= np.log(total[:, 0])
    out, (s,) = _record(-(picked.sum() / count), logits)
    if out.requires_grad:
        shape = logits.shape

        def bw(g):
            grad = np.divide(e, total, out=e)
            grad[rows, targets] -= 1.0
            grad *= g / count
            s._accumulate(grad.reshape(shape))
        out._slot._backward = bw
    return out
