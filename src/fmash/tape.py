"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation that touches a gradient-carrying tensor records a closure
that routes the upstream gradient to its parents; ``Tensor.backward()``
walks the recorded graph in reverse topological order.  All arithmetic is
done in float64, which is what makes the finite-difference gradient checks
in the test suite meaningful at tight tolerances.

Only the operations the models actually need are implemented.  Reductions,
broadcasts and fancy indexing follow numpy semantics exactly.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

_grad_enabled = True


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


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        if x.dtype == np.float64:
            return x
        return x.astype(np.float64)
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the adjoint of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 ndarray plus an optional slot in the autodiff graph."""

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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
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
        out = _node(self.data @ other.data, (self, other))
        if out._parents:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(
                        _unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape)
                    )
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape)
                    )
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

    def tanh(self):
        out = _node(np.tanh(self.data), (self,))
        if out._parents:
            val = out.data
            out._backward = lambda g: self._accumulate(g * (1.0 - val ** 2))
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
                self._accumulate(np.broadcast_to(gg, self.data.shape).copy())
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


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor.ensure(t) for t in tensors]
    expanded = []
    for t in tensors:
        shape = list(t.data.shape)
        shape.insert(axis if axis >= 0 else t.data.ndim + 1 + axis, 1)
        expanded.append(t.reshape(shape))
    return concat(expanded, axis=axis)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    cond = np.asarray(cond, dtype=bool)
    out = _node(np.where(cond, a.data, b.data), (a, b))
    if out._parents:
        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * cond, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * ~cond, b.data.shape))
        out._backward = bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # Subtracting the (constant) row max leaves both the value and the exact
    # gradient unchanged; it only guards exp from overflow.
    shift = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shift.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shift - shift.exp().sum(axis=axis, keepdims=True).log()


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy, computed in the numerically stable form."""
    t = Tensor.ensure(targets)
    return (logits.softplus() - t * logits).mean()
