"""Reverse-mode automatic differentiation over float32 or float64 numpy
arrays.

Every operation that touches a gradient-carrying tensor records a closure
that routes the upstream gradient to its parents; ``Tensor.backward()``
walks the recorded graph in reverse topological order.  A tensor keeps a
float32 or float64 array as given and turns anything else (lists, ints,
bools, Python floats) into float32, so the dtype follows the data: the
pipeline, both heads and serving run in float32, and the finite-difference
gradient checks (``gradcheck``) feed float64 to certify the same code at
tight tolerances.  Results are byte-identical from run to run for a fixed
config and a fixed BLAS thread count; another thread count may sum GEMM
blocks in another order.

Only the operations the models actually need are implemented.  Reductions,
broadcasts and fancy indexing follow numpy semantics exactly.

Importing the module fixes glibc's heap thresholds (``_keep_freed_memory``)
so that memory a training step frees stays in the process for the next one.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Iterable, Sequence

import numpy as np

_grad_enabled = True

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process for reuse (glibc only).

    Every training step allocates and frees the same arrays.  Under glibc's
    default, adaptive thresholds (128 KiB rising to at most 64 MiB) the free
    top of the heap that a step leaves goes back to the system, and the next
    step faults the same pages in again: thousands of page faults a step,
    whose cost follows the host's memory load rather than the work.  Fixed
    thresholds keep arrays below ``MMAP_THRESHOLD`` on the heap and return
    free heap only beyond ``TRIM_THRESHOLD``; larger arrays are still mapped
    and unmapped one by one, as under the default.  Freed memory is reused,
    so the peak does not grow.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):     # no C library or not glibc
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # a value glibc refuses (return 0) leaves its default in place
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_memory()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / optimizer steps)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_array(x) -> np.ndarray:
    """``x`` as is if it is a float32 or float64 array, a numpy scalar of
    either as a 0-d array, and anything else as float32."""
    if isinstance(x, np.ndarray):
        if x.dtype in _FLOAT_DTYPES:
            return x
    elif isinstance(x, np.generic) and x.dtype in _FLOAT_DTYPES:
        return np.asarray(x)
    return np.asarray(x, dtype=np.float32)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the adjoint of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float32 (or float64) ndarray plus an optional slot in the autodiff
    graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def ensure(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    # -- bookkeeping -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        # the first gradient is stored as is and later ones are added out of
        # place: a stored array may be shared (``+`` hands one array to both
        # parents) or a read-only broadcast view, so it is never written
        self.grad = g if self.grad is None else self.grad + g

    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(_as_array(grad), self.data.shape)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        # drop intermediate grads and closures right away; leaves (no
        # parents) keep their gradients for the optimizer
        for node in topo:
            if node._parents:
                node._parents = ()
                node._backward = None
                node.grad = None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = Tensor.ensure(other)
        out = _node(self.data + other.data, (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g, other.data.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _node(-self.data, (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other):
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other):
        other = Tensor.ensure(other)
        out = _node(self.data * other.data, (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g * self.data, other.data.shape))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.ensure(other)
        out = _node(self.data / other.data, (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g / other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-g * self.data / (other.data ** 2), other.data.shape)
                    )
            out._backward = bw
        return out

    def __rtruediv__(self, other):
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = _node(self.data ** exponent, (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(
                g * exponent * self.data ** (exponent - 1)
            )
        return out

    def __matmul__(self, other):
        other = Tensor.ensure(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        a, b = self.data, other.data
        out = _node(a @ b, (self, other))
        if out._parents:
            def bw(g):
                # with a 2-D right operand (a weight) the batch axes fold
                # into rows: one 2-D product each, and the weight gradient
                # needs no sum over the batch afterwards
                if self.requires_grad:
                    if b.ndim == 2:
                        ga = (g.reshape(-1, b.shape[1]) @ b.T).reshape(a.shape)
                    else:
                        ga = _unbroadcast(g @ b.swapaxes(-1, -2), a.shape)
                    self._accumulate(ga)
                if other.requires_grad:
                    if b.ndim == 2:
                        gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, b.shape[1])
                    else:
                        gb = _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape)
                    other._accumulate(gb)
            out._backward = bw
        return out

    # -- elementwise functions ---------------------------------------------------

    def exp(self):
        # backward closures capture plain arrays, never the output node
        # itself: a closure referencing its own node is a reference cycle,
        # and cycles holding large buffers stall memory release on gc
        out = _node(np.exp(self.data), (self,))
        if out._parents:
            val = out.data
            out._backward = lambda g: self._accumulate(g * val)
        return out

    def log(self):
        out = _node(np.log(self.data), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g / self.data)
        return out

    def sqrt(self):
        out = _node(np.sqrt(self.data), (self,))
        if out._parents:
            val = out.data
            out._backward = lambda g: self._accumulate(g * 0.5 / val)
        return out

    def sigmoid(self):
        out = _node(_sigmoid(self.data), (self,))
        if out._parents:
            val = out.data
            out._backward = lambda g: self._accumulate(g * val * (1.0 - val))
        return out

    def relu(self):
        out = _node(np.maximum(self.data, 0.0), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g * (self.data > 0.0))
        return out

    def softplus(self):
        out = _node(np.logaddexp(0.0, self.data), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g * _sigmoid(self.data))
        return out

    def silu(self):
        return self * self.sigmoid()

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            def bw(g):
                gg = g
                if axis is not None and not keepdims:
                    gg = np.expand_dims(gg, axis)
                self._accumulate(np.broadcast_to(gg, self.data.shape))
            out._backward = bw
        return out

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    # -- shape manipulation ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = _node(self.data.transpose(axes), (self,))
        if out._parents:
            inv = tuple(np.argsort(axes))
            out._backward = lambda g: self._accumulate(g.transpose(inv))
        return out

    def flip(self, axis: int):
        out = _node(np.flip(self.data, axis=axis).copy(), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(np.flip(g, axis=axis))
        return out

    def __getitem__(self, idx):
        out = _node(self.data[idx].copy() if isinstance(self.data[idx], np.ndarray)
                    else self.data[idx], (self,))
        if out._parents:
            def bw(g):
                buf = np.zeros_like(self.data)
                np.add.at(buf, idx, g)
                self._accumulate(buf)
            out._backward = bw
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|) <= 1 so
    # neither branch overflows; in-place updates keep temporaries to two
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor.ensure(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(sl)])
        out._backward = bw
    return out


def selective_scan(delta: Tensor, a: Tensor, b_in: Tensor, c_out: Tensor,
                   x: Tensor) -> Tensor:
    """Diagonal selective scan over an (L, d) sequence, as one node.

    With ``delta``, ``x`` (L, d), ``a`` (d, n) and ``b_in``, ``c_out``
    (L, n): ``h_t = exp(delta_t a) * h_{t-1} + (delta_t B_t) * x_t`` per
    channel from ``h_{-1} = 0``, and ``y_t = <C_t, h_t>``; returns y (L, d).
    The forward runs the recurrence one (d, n) state at a time over
    precomputed ``exp(delta a)`` and ``delta B x``; the backward runs the
    adjoint recurrence ``gH_t = gy_t C_t + exp(delta_{t+1} a) * gH_{t+1}``
    in reverse and gives each input its gradient in closed form.
    """
    delta, a, b_in, c_out, x = (Tensor.ensure(t) for t in (delta, a, b_in, c_out, x))
    dt, b, c, xs = delta.data, b_in.data, c_out.data, x.data
    # every product and sum runs in the order of a step-by-step evaluation,
    # (delta B) x, exp(delta a) h + delta B x, then a sum over n, so y is
    # bit-identical to composing the recurrence from per-timestep ops
    a_bar = dt[:, :, None] * a.data                         # (L, d, n)
    np.exp(a_bar, out=a_bar)
    states = dt[:, :, None] * b[:, None, :]                 # delta B x, then h_t
    states *= xs[:, :, None]
    h = np.zeros(a.data.shape, dtype=states.dtype)
    for t in range(len(states)):
        states[t] += a_bar[t] * h
        h = states[t]
    out = _node((states * c[:, None, :]).sum(axis=2), (delta, a, b_in, c_out, x))
    if out._parents:
        def bw(g):
            gh = g[:, :, None] * c[:, None, :]              # (L, d, n)
            for t in range(len(gh) - 2, -1, -1):
                gh[t] += a_bar[t + 1] * gh[t + 1]
            if c_out.requires_grad:
                c_out._accumulate((g[:, None, :] @ states)[:, 0, :])
            # adjoint of the exponent delta a: gH_t h_{t-1} exp(delta_t a)
            gz = gh * a_bar
            gz[0] = 0.0
            gz[1:] *= states[:-1]
            gbx = (gh @ b[:, :, None])[:, :, 0]             # sum_n gH_t B_t
            if delta.requires_grad:
                delta._accumulate((gz * a.data).sum(axis=2) + gbx * xs)
            if a.requires_grad:
                a._accumulate(np.einsum("ldn,ld->dn", gz, dt))
            if b_in.requires_grad:
                b_in._accumulate(((dt * xs)[:, None, :] @ gh)[:, 0, :])
            if x.requires_grad:
                x._accumulate(gbx * dt)
        out._backward = bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # Subtracting the (constant) row max leaves both the value and the exact
    # gradient unchanged; it only guards exp from overflow.
    shift = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shift.exp()
    return e / e.sum(axis=axis, keepdims=True)


def masked_cross_entropy(logits: Tensor, targets: np.ndarray,
                         mask: np.ndarray) -> Tensor:
    """Mean of ``-log softmax(logits)[..., target]`` over the positions where
    ``mask`` is True, as one node.

    ``logits`` is (..., V); ``targets`` (integer ids) and ``mask`` are (...).
    Masked positions contribute exactly zero value and gradient.  The
    backward is ``(softmax - onehot) * mask / count``, written into the
    forward's ``exp`` buffer, so the backward allocates no (..., V) array.
    """
    v = logits.shape[-1]
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    count = float(mask.sum())
    x = logits.data.reshape(-1, v)
    shift = x - x.max(axis=1, keepdims=True)
    e = np.exp(shift)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    picked = shift[rows, targets] - np.log(total[:, 0])
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
    """Mean binary cross-entropy, computed in the numerically stable form."""
    t = Tensor.ensure(targets)
    return (logits.softplus() - t * logits).mean()
