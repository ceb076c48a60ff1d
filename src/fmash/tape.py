"""Reverse-mode automatic differentiation over float32 or float64 numpy
arrays.

Every operation that touches a gradient-carrying tensor records a closure
that routes the upstream gradient to its parents; ``Tensor.backward()``
walks the recorded graph in reverse topological order and releases each
node once its closure has run, so only leaves keep a gradient.  A tensor
keeps a float32 or float64 array as given and turns anything else (lists,
ints, bools, Python floats) into float32, so the dtype follows the data: the
pipeline, both heads and serving run in float32, and the finite-difference
gradient checks (``gradcheck``) feed float64 to certify the same code at
tight tolerances.  Results are byte-identical from run to run for a fixed
config and a fixed BLAS thread count; another thread count may sum GEMM
blocks in another order.

Only the operations the models actually need are implemented.  Reductions,
broadcasts and fancy indexing follow numpy semantics exactly.

The layers the models call most are single nodes: ``linear``,
``layer_norm``, ``softmax``, ``Tensor.silu`` and multi-head ``attention``
each record one closure in place of the chain of primitive nodes they
stand for.  Such a fused node reproduces the bits of that composite:
forward and backward run the composite's array operations in its order,
with its constants, and hand each input its gradients in the composite's
accumulation order.  Its test keeps the composite, built from primitive
ops, as the oracle it must equal bit for bit.  ``bce_with_logits`` is one
node with the gradient bits of its composite and a forward whose softplus
may differ from ``Tensor.softplus`` in the last bits.
``masked_cross_entropy`` and ``selective_scan`` are fused with their own
closed-form backward, certified by finite differences.

Importing the module fixes glibc's heap thresholds (``_keep_freed_memory``)
so that memory a training step frees stays in the process for the next one.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
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
        # take the nodes off the list one at a time and, once a node's closure
        # has run, clear its gradient, closure and parents: an intermediate
        # gradient, and an array only that closure saved, is freed as soon as
        # no later closure reads it; leaves (no parents) keep their gradients
        # for the optimizer
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
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
        if other.data.ndim == 2:
            # a 2-D right operand (a weight) is a linear map without bias
            return linear(self, other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        a, b = self.data, other.data
        out = _node(a @ b, (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g @ b.swapaxes(-1, -2), a.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(a.swapaxes(-1, -2) @ g, b.shape))
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
        x = self.data
        sig = _sigmoid(x)
        out = _node(x * sig, (self,))
        if out._parents:
            # the composite x * sigmoid(x): the product's gradient first,
            # then the sigmoid's
            def bw(g):
                self._accumulate(g * sig)
                gs = g * x
                gs *= sig
                gs *= 1.0 - sig
                self._accumulate(gs)
            out._backward = bw
        return out

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
        picked = self.data[idx]
        # a basic index returns a view; the node owns its data
        if isinstance(picked, np.ndarray) and np.may_share_memory(picked, self.data):
            picked = picked.copy()
        out = _node(picked, (self,))
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
    # exp(min(x, 0)) / (1 + exp(-|x|)): 1/(1+e) for x >= 0 and e/(1+e)
    # below, with e = exp(-|x|) <= 1 so neither branch overflows; the same
    # bits as selecting between the two branches, without the select
    e = np.exp(-np.abs(x))
    e += 1.0
    out = np.exp(np.minimum(x, 0.0))
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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for an (..., d_in) ``x`` and a 2-D ``w``, as one node
    with the bits of the composite ``(x @ w) + b`` of matmul and add nodes."""
    x = Tensor.ensure(x)
    if x.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    xd, wd = x.data, w.data
    y = xd @ wd
    if b is not None:
        y += b.data
    out = _node(y, (x, w) if b is None else (x, w, b))
    if out._parents:
        def bw(g):
            if b is not None and b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))
            # the batch axes fold into rows: one 2-D product per gradient
            g2 = g.reshape(-1, wd.shape[1])
            if x.requires_grad:
                x._accumulate((g2 @ wd.T).reshape(xd.shape))
            if w.requires_grad:
                w._accumulate(xd.reshape(-1, xd.shape[-1]).T @ g2)
        out._backward = bw
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis,
    as one node.

    Forward and backward run the array operations of the composite of
    primitive nodes (mean, centering, variance, sqrt, divide, scale, shift)
    in its order, with its float32 constants, so values and gradients keep
    its bits.
    """
    xd = x.data
    n = _as_array(float(xd.shape[-1]))
    eps = _as_array(eps)
    mu = xd.sum(axis=-1, keepdims=True) / n
    c = xd + (-mu)
    sd = np.sqrt((c * c).sum(axis=-1, keepdims=True) / n + eps)
    q = c / sd
    out = _node(q * gamma.data + beta.data, (x, gamma, beta))
    if out._parents:
        def bw(g):
            if beta.requires_grad:
                beta._accumulate(_unbroadcast(g, beta.data.shape))
            if gamma.requires_grad:
                gamma._accumulate(_unbroadcast(g * q, gamma.data.shape))
            if not x.requires_grad:
                return
            gq = g * gamma.data
            gc = gq / sd
            gsd = -gq
            gsd *= c
            gsd /= sd ** 2
            gsd = _unbroadcast(gsd, sd.shape)
            gvar = gsd * 0.5 / sd / n
            # the variance's product c * c hands c the same gradient twice
            gcc = np.broadcast_to(gvar, c.shape) * c
            gc += gcc
            gc += gcc
            # the centered path first, then the mean's broadcast
            x._accumulate(gc)
            x._accumulate(np.broadcast_to(-_unbroadcast(gc, mu.shape) / n, xd.shape))
        out._backward = bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` as one node, with the bits of the composite
    ``e / sum(e)`` over ``e = exp(x - max(x))``.  Subtracting the (constant)
    max leaves both the value and the exact gradient unchanged; it only
    guards exp from overflow."""
    xd = x.data
    e = np.exp(xd + (-xd.max(axis=axis, keepdims=True)))
    s = e.sum(axis=axis, keepdims=True)
    out = _node(e / s, (x,))
    if out._parents:
        def bw(g):
            gs = -g
            gs *= e
            gs /= s ** 2
            gs = _unbroadcast(gs, s.shape)
            gx = g / s
            gx += np.broadcast_to(gs, e.shape)
            gx *= e
            x._accumulate(gx)
        out._backward = bw
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None,
              n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` is (B, Lq, d) and ``k``, ``v`` are (B, Lk, d); each splits into
    ``n_heads`` heads of ``d / n_heads`` columns.  The (B, h, Lq, Lk) scores
    ``q kᵀ / sqrt(d_head)`` get ``bias`` added by broadcasting (nothing when
    it is None) before a softmax over the keys weights the values; the
    heads merge back into a (B, Lq, d) output.  Forward and backward run the
    array operations of the composite of primitive nodes (head split,
    ``@``, divide, add, softmax, ``@``, head merge) in its order, so values
    and gradients keep its bits.
    """
    qd, kd, vd = q.data, k.data, v.data
    b, lq, d = qd.shape
    lk = kd.shape[1]
    dh = d // n_heads
    q4 = qd.reshape(b, lq, n_heads, dh).transpose(0, 2, 1, 3)    # (B, h, Lq, dh)
    k4 = kd.reshape(b, lk, n_heads, dh).transpose(0, 2, 1, 3)    # (B, h, Lk, dh)
    v4 = vd.reshape(b, lk, n_heads, dh).transpose(0, 2, 1, 3)
    scale = _as_array(math.sqrt(dh))
    z = (q4 @ k4.transpose(0, 1, 3, 2)) / scale
    if bias is not None:
        z += bias
    # in place: z - m rounds as z + (-m) does
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z, out=z)
    s = e.sum(axis=-1, keepdims=True)
    a = e / s
    out = _node((a @ v4).transpose(0, 2, 1, 3).reshape(b, lq, d), (q, k, v))
    if out._parents:
        def bw(g):
            g4 = g.reshape(b, lq, n_heads, dh).transpose(0, 2, 1, 3)
            ga = g4 @ v4.swapaxes(-1, -2)
            # the softmax node's backward, then the divide's
            gs = -ga
            gs *= e
            gs /= s ** 2
            gs = _unbroadcast(gs, s.shape)
            gz = ga / s
            gz += np.broadcast_to(gs, e.shape)
            gz *= e
            gz /= scale
            # the parents in the composite's order: queries, keys, values
            if q.requires_grad:
                q._accumulate((gz @ k4).transpose(0, 2, 1, 3).reshape(qd.shape))
            if k.requires_grad:
                k._accumulate((q4.swapaxes(-1, -2) @ gz).transpose(0, 3, 1, 2)
                              .reshape(kd.shape))
            if v.requires_grad:
                v._accumulate((a.swapaxes(-1, -2) @ g4).transpose(0, 2, 1, 3)
                              .reshape(vd.shape))
        out._backward = bw
    return out


def masked_cross_entropy(logits: Tensor, targets: np.ndarray,
                         mask: np.ndarray) -> Tensor:
    """Mean of ``-log softmax(logits)[..., target]`` over the positions where
    ``mask`` is True, as one node.

    ``logits`` is (..., V); ``targets`` (integer ids) and ``mask`` are (...).
    Masked positions contribute exactly zero value and gradient.  The
    forward reads the targets' shifted logits and then takes ``exp`` in
    place, so it allocates one (..., V) buffer; the backward is
    ``(softmax - onehot) * mask / count``, written into that buffer, so it
    allocates no (..., V) array.
    """
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
    """Mean binary cross-entropy ``mean(softplus(x) - t x)`` as one node.

    The backward hands ``logits`` the two gradients of that composite of
    primitive nodes in its order, ``(g/N) sigmoid(x)`` and then
    ``-(g/N) t``, with its bits.  The forward takes softplus in the stable
    form ``log1p(exp(-|x|)) + max(x, 0)``, which can differ from
    ``Tensor.softplus`` in the last bits; no gradient reads it.
    """
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
            # sigmoid(x) as ``_sigmoid`` takes it, from the forward's exp(-|x|)
            sig = np.exp(np.minimum(x, 0.0))
            sig /= np.add(e, 1.0, out=e)
            sig *= gn
            logits._accumulate(sig)
            logits._accumulate(-gn * t)
        out._backward = bw
    return out
