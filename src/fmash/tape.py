"""Reverse-mode automatic differentiation over float32 or float64 numpy
arrays.

Every operation that touches a gradient-carrying tensor gives its result a
slot in the graph (``_Slot``): the result's gradient, the slots of its
parents and a closure that routes the gradient to them.  A leaf that takes
a gradient is its own slot.  A slot holds no array: each closure captures,
when the forward runs, the arrays and shapes its backward reads and the
parent slots it adds into, never an input tensor, so a result that no
backward reads (a residual sum, an attention output projection, a
feed-forward output, a packed projection the attention node copies) is
freed as soon as the forward drops it.  ``Tensor.backward()`` walks the
slots in reverse topological order and releases each once its closure has
run, so only leaves keep a gradient.  A tensor keeps a float32 or float64
array as given and turns anything else (lists, ints, bools, Python floats)
into float32, so the dtype follows the data: the pipeline, both heads and
serving run in float32, and the finite-difference gradient checks
(``tests/gradcheck.py``) feed float64 to certify the same code at tight
tolerances.  Results are byte-identical from run to run for a fixed config
and a fixed BLAS thread count; another thread count may sum GEMM blocks in
another order.

Only the operations the models actually need are implemented.  Reductions,
broadcasts and fancy indexing follow numpy semantics exactly.

The layers the models call most are single nodes, each recording one
closure in place of the chain of primitive nodes it stands for: ``linear``,
``layer_norm``, ``softmax``, ``Tensor.silu``, multi-head ``attention``, the
transformer ``feed_forward`` block, each head's output projection and loss
(``linear_cross_entropy``, ``linear_bce``) and ``selective_scan``.  A fused
node's forward computes what the chain computes; its backward is the node's
closed-form gradient, certified by float64 finite differences.  A fused node
keeps only the arrays its backward reads: ``linear`` its input and weight;
``layer_norm`` the normalized input and the deviation; ``softmax`` and
``attention`` the weights, and ``attention`` views of its unpacked inputs
as well; ``feed_forward`` its input, the pre-activation and its sigmoid;
the two loss nodes compute the logits inside, so no ``linear`` node holds
them as well.

Importing the module fixes glibc's heap thresholds (``_keep_freed_memory``)
so that memory a training step frees stays in the process for the next one.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from typing import Iterable

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


class _Slot:
    """A recorded result's entry in the autodiff graph: the gradient that
    reaches it, the slots of its parents that take a gradient, and the
    closure that routes its gradient to them.

    A slot holds no array: its closure keeps what its backward reads, and
    the result's own array lives only as long as the forward holds its
    tensor.  A leaf that takes a gradient is its own slot, so its gradient
    stays on the tensor (``p.grad``) for the optimizer.
    """

    __slots__ = ("grad", "_parents", "_backward")
    requires_grad = True

    def __init__(self, parents: tuple):
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = None

    def _accumulate(self, g: np.ndarray) -> None:
        # the first gradient is stored as is and later ones are added out of
        # place: a stored array may be shared (``+`` hands one array to both
        # parents) or a read-only broadcast view, so it is never written
        self.grad = g if self.grad is None else self.grad + g


class Tensor:
    """A float32 (or float64) ndarray plus an optional slot in the autodiff
    graph: the tensor itself for a leaf that takes a gradient, a ``_Slot``
    for a recorded result."""

    __slots__ = ("data", "grad", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._slot: _Slot | None = None

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

    @property
    def _parents(self) -> tuple:
        """The slots of the inputs this result takes a gradient from; ()
        for a leaf."""
        return () if self._slot is None else self._slot._parents

    @property
    def _backward(self):
        return None if self._slot is None else self._slot._backward

    def _accumulate(self, g: np.ndarray) -> None:
        # a leaf adds into its own gradient, a result into its slot's
        _Slot._accumulate(self if self._slot is None else self._slot, g)

    def backward(self, grad: np.ndarray | float) -> None:
        """Run the recorded graph backward from this tensor, seeded with
        ``grad`` cast to this tensor's dtype and broadcast to its shape."""
        grad = np.broadcast_to(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        root = self if self._slot is None else self._slot
        topo: list = []
        seen: set[int] = set()
        stack: list = [(root, False)]
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
                if id(p) not in seen:
                    stack.append((p, False))
        root._accumulate(grad)
        # take the slots off the list one at a time and, once a slot's
        # closure has run, clear its gradient, closure and parents: an
        # intermediate gradient, and an array only that closure saved, is
        # freed as soon as no later closure reads it; leaves (no parents)
        # keep their gradients for the optimizer
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
            if node._parents:
                node._parents = ()
                node._backward = None
                node.grad = None

    # -- arithmetic -------------------------------------------------------------
    #
    # a closure captures arrays, shapes and slots, never an input tensor,
    # which would keep that input's array alive, nor its own result, which
    # would be a reference cycle: cycles holding large buffers stall memory
    # release until gc runs

    def __add__(self, other):
        other = Tensor.ensure(other)
        out, (sa, sb) = _record(self.data + other.data, self, other)
        if out.requires_grad:
            shape_a, shape_b = self.data.shape, other.data.shape

            def bw(g):
                if sa is not None:
                    sa._accumulate(_unbroadcast(g, shape_a))
                if sb is not None:
                    sb._accumulate(_unbroadcast(g, shape_b))
            out._slot._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out, (s,) = _record(-self.data, self)
        if out.requires_grad:
            out._slot._backward = lambda g: s._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other):
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other):
        other = Tensor.ensure(other)
        a, b = self.data, other.data
        out, (sa, sb) = _record(a * b, self, other)
        if out.requires_grad:
            def bw(g):
                if sa is not None:
                    sa._accumulate(_unbroadcast(g * b, a.shape))
                if sb is not None:
                    sb._accumulate(_unbroadcast(g * a, b.shape))
            out._slot._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.ensure(other)
        a, b = self.data, other.data
        out, (sa, sb) = _record(a / b, self, other)
        if out.requires_grad:
            def bw(g):
                if sa is not None:
                    sa._accumulate(_unbroadcast(g / b, a.shape))
                if sb is not None:
                    sb._accumulate(_unbroadcast(-g * a / (b ** 2), b.shape))
            out._slot._backward = bw
        return out

    def __matmul__(self, other):
        other = Tensor.ensure(other)
        if other.data.ndim == 2:
            # a 2-D right operand (a weight) is a linear map without bias
            return linear(self, other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        a, b = self.data, other.data
        out, (sa, sb) = _record(a @ b, self, other)
        if out.requires_grad:
            def bw(g):
                if sa is not None:
                    sa._accumulate(_unbroadcast(g @ b.swapaxes(-1, -2), a.shape))
                if sb is not None:
                    sb._accumulate(_unbroadcast(a.swapaxes(-1, -2) @ g, b.shape))
            out._slot._backward = bw
        return out

    # -- elementwise functions ---------------------------------------------------

    def exp(self):
        out, (s,) = _record(np.exp(self.data), self)
        if out.requires_grad:
            val = out.data
            out._slot._backward = lambda g: s._accumulate(g * val)
        return out

    def sigmoid(self):
        out, (s,) = _record(_sigmoid(self.data), self)
        if out.requires_grad:
            val = out.data
            out._slot._backward = lambda g: s._accumulate(g * val * (1.0 - val))
        return out

    def relu(self):
        x = self.data
        out, (s,) = _record(np.maximum(x, 0.0), self)
        if out.requires_grad:
            out._slot._backward = lambda g: s._accumulate(g * (x > 0.0))
        return out

    def softplus(self):
        x = self.data
        out, (s,) = _record(np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0), self)
        if out.requires_grad:
            out._slot._backward = lambda g: s._accumulate(g * _sigmoid(x))
        return out

    def silu(self):
        x = self.data
        sig = _sigmoid(x)
        out, (s,) = _record(x * sig, self)
        if out.requires_grad:
            out._slot._backward = lambda g: s._accumulate(_silu_backward(g, x, sig))
        return out

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis: int | None = None):
        shape = self.data.shape
        out, (s,) = _record(self.data.sum(axis=axis), self)
        if out.requires_grad:
            def bw(g):
                if axis is not None:
                    g = np.expand_dims(g, axis)
                s._accumulate(np.broadcast_to(g, shape))
            out._slot._backward = bw
        return out

    def mean(self):
        return self.sum() / float(self.data.size)

    # -- shape manipulation ----------------------------------------------------------

    def reshape(self, *shape):
        before = self.data.shape
        out, (s,) = _record(self.data.reshape(shape), self)
        if out.requires_grad:
            out._slot._backward = lambda g: s._accumulate(g.reshape(before))
        return out

    def transpose(self, *axes):
        out, (s,) = _record(self.data.transpose(axes), self)
        if out.requires_grad:
            inv = tuple(np.argsort(axes))
            out._slot._backward = lambda g: s._accumulate(g.transpose(inv))
        return out

    def __getitem__(self, idx):
        src = self.data
        picked = src[idx]
        # a basic index returns a view; the node owns its data
        basic = isinstance(picked, np.ndarray) and np.may_share_memory(picked, src)
        if basic:
            picked = picked.copy()
        out, (s,) = _record(picked, self)
        if out.requires_grad:
            shape, dtype = src.shape, src.dtype

            def bw(g):
                buf = np.zeros(shape, dtype=dtype)
                # a basic index picks each element once, so adding into its
                # view is ``add.at``'s ``0 + g`` without the unbuffered loop;
                # integer-array and boolean ids may repeat and must accumulate
                if basic:
                    buf[idx] += g
                else:
                    np.add.at(buf, idx, g)
                s._accumulate(buf)
            out._slot._backward = bw
        return out


def _record(data: np.ndarray, *inputs: Tensor | None) -> tuple[Tensor, list]:
    """A result holding ``data``, computed from ``inputs``, and each input's
    slot: the one its gradient is added into, None for an input that takes
    no gradient (or is None) and for every input while recording is off.
    The result takes a ``_Slot`` over the inputs' slots when any is not
    None; its op then sets the slot's closure."""
    out = Tensor(data)
    if not _grad_enabled:
        return out, [None] * len(inputs)
    # a plain loop: this runs once per recorded op
    slots, parents = [], []
    for t in inputs:
        if t is not None and t.requires_grad:
            s = t if t._slot is None else t._slot
            slots.append(s)
            parents.append(s)
        else:
            slots.append(None)
    if parents:
        out.requires_grad = True
        out._slot = _Slot(tuple(parents))
    return out, slots


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)): 1/(1+e) for x >= 0 and e/(1+e)
    # below, with e = exp(-|x|) <= 1 so neither branch overflows; the same
    # bits as selecting between the two branches, without the select
    e = np.exp(-np.abs(x))
    e += 1.0
    out = np.exp(np.minimum(x, 0.0))
    out /= e
    return out


def _silu_backward(g: np.ndarray, h: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """The gradient of ``h`` for ``g``, the gradient of ``h sigmoid(h)``,
    given ``sig = sigmoid(h)``: ``g sig (1 + h (1 - sig))``."""
    gh = 1.0 - sig
    gh *= h
    gh += 1.0
    gh *= sig
    gh *= g
    return gh


def _softmax_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a softmax's input for ``g``, the gradient of its
    output ``y`` along the last axis: ``y (g - sum(g y))``."""
    gx = g - (g * y).sum(axis=-1, keepdims=True)
    gx *= y
    return gx


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor.ensure(t) for t in tensors]
    out, slots = _record(np.concatenate([t.data for t in tensors], axis=axis), *tensors)
    if out.requires_grad:
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

        def bw(g):
            for s, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
                if s is not None:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    s._accumulate(g[tuple(sl)])
        out._slot._backward = bw
    return out


_SCAN_ROWS = 64


def selective_scan(delta: Tensor, a: Tensor, b_in: Tensor, c_out: Tensor,
                   x: Tensor) -> Tensor:
    """Diagonal selective scan over an (L, d) sequence, as one node.

    With ``delta``, ``x`` (L, d), ``a`` (d, n) and ``b_in``, ``c_out``
    (L, n): ``h_t = exp(delta_t a) * h_{t-1} + (delta_t B_t) * x_t`` per
    channel from ``h_{-1} = 0``, and ``y_t = <C_t, h_t>``; returns y (L, d).
    The forward runs in blocks of ``_SCAN_ROWS`` timesteps: each block
    computes its ``exp(delta a)`` and ``delta B x``, runs the recurrence one
    (d, n) state at a time, carrying ``h`` into the next block, and
    contracts its states with C, so that no (L, d, n) array forms.  Only a
    node that records a backward keeps its blocks; its backward joins them
    and runs the adjoint recurrence
    ``gH_t = gy_t C_t + exp(delta_{t+1} a) * gH_{t+1}`` in reverse, giving
    each input its gradient in closed form.
    """
    inputs = tuple(Tensor.ensure(t) for t in (delta, a, b_in, c_out, x))
    dt, ad, b, c, xs = (t.data for t in inputs)
    record = _grad_enabled and any(t.requires_grad for t in inputs)
    # every product and sum runs in the order of a step-by-step evaluation,
    # (delta B) x, exp(delta a) h + delta B x, then a sum over n, so y is
    # bit-identical to composing the recurrence from per-timestep ops
    h = np.zeros(ad.shape, dtype=np.result_type(dt, b))
    a_bars, blocks, ys = [], [], []
    for lo in range(0, len(dt), _SCAN_ROWS):
        rows = slice(lo, lo + _SCAN_ROWS)
        a_bar = dt[rows, :, None] * ad                     # (rows, d, n)
        np.exp(a_bar, out=a_bar)
        states = dt[rows, :, None] * b[rows, None, :]       # delta B x, then h_t
        states *= xs[rows, :, None]
        for t in range(len(states)):
            states[t] += a_bar[t] * h
            h = states[t]
        ys.append((states * c[rows, None, :]).sum(axis=2))
        if record:
            a_bars.append(a_bar)
            blocks.append(states)
    out, (s_delta, s_a, s_b, s_c, s_x) = _record(np.concatenate(ys), *inputs)
    if out.requires_grad:
        def bw(g):
            a_bar, states = np.concatenate(a_bars), np.concatenate(blocks)
            gh = g[:, :, None] * c[:, None, :]              # (L, d, n)
            for t in range(len(gh) - 2, -1, -1):
                gh[t] += a_bar[t + 1] * gh[t + 1]
            if s_c is not None:
                s_c._accumulate((g[:, None, :] @ states)[:, 0, :])
            # adjoint of the exponent delta a: gH_t h_{t-1} exp(delta_t a)
            gz = gh * a_bar
            gz[0] = 0.0
            gz[1:] *= states[:-1]
            gbx = (gh @ b[:, :, None])[:, :, 0]             # sum_n gH_t B_t
            if s_delta is not None:
                s_delta._accumulate((gz * ad).sum(axis=2) + gbx * xs)
            if s_a is not None:
                s_a._accumulate(np.einsum("ldn,ld->dn", gz, dt))
            if s_b is not None:
                s_b._accumulate(((dt * xs)[:, None, :] @ gh)[:, 0, :])
            if s_x is not None:
                s_x._accumulate(gbx * dt)
        out._slot._backward = bw
    return out


def _linear_backward(g: np.ndarray, xd: np.ndarray, wd: np.ndarray, slots: tuple,
                     b_shape: tuple[int, ...]) -> None:
    """``linear``'s backward for ``g``, the gradient of ``x @ w + b`` given
    the arrays ``xd`` and ``wd`` of ``x`` and ``w``, their slots and the
    bias's (``slots``, each None when it takes no gradient) and the bias's
    shape: the bias, the input, then the weight."""
    sx, sw, sb = slots
    if sb is not None:
        sb._accumulate(_unbroadcast(g, b_shape))
    # the batch axes fold into rows: one 2-D product per gradient
    g2 = g.reshape(-1, wd.shape[1])
    if sx is not None:
        sx._accumulate((g2 @ wd.T).reshape(xd.shape))
    if sw is not None:
        sw._accumulate(xd.reshape(-1, xd.shape[-1]).T @ g2)


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
    out, slots = _record(y, x, w, b)
    if out.requires_grad:
        b_shape = b.data.shape if b is not None else ()
        out._slot._backward = lambda g: _linear_backward(g, xd, wd, slots, b_shape)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis,
    as one node.

    The node keeps the normalized input ``xh`` and the deviation ``sd``;
    the input's gradient is ``(gxh - sum(gxh)/n - xh sum(gxh xh)/n) / sd``
    with ``gxh = g gamma``.
    """
    xd = x.data
    n = _as_array(float(xd.shape[-1]))
    eps = _as_array(eps)
    mu = xd.sum(axis=-1, keepdims=True) / n
    c = xd + (-mu)
    sd = np.sqrt((c * c).sum(axis=-1, keepdims=True) / n + eps)
    xh = np.divide(c, sd, out=c)
    gd = gamma.data
    out, (sx, s_gamma, s_beta) = _record(xh * gd + beta.data, x, gamma, beta)
    if out.requires_grad:
        beta_shape = beta.data.shape

        def bw(g):
            if s_beta is not None:
                s_beta._accumulate(_unbroadcast(g, beta_shape))
            if s_gamma is not None:
                s_gamma._accumulate(_unbroadcast(g * xh, gd.shape))
            if sx is not None:
                gxh = g * gd
                gx = gxh - gxh.sum(axis=-1, keepdims=True) / n
                gxh *= xh
                gx -= xh * (gxh.sum(axis=-1, keepdims=True) / n)
                gx /= sd
                sx._accumulate(gx)
        out._slot._backward = bw
    return out


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis as one node: ``e / sum(e)`` over
    ``e = exp(x - max(x))``.  Subtracting the (constant) max leaves both the
    value and the exact gradient unchanged; it only guards exp from
    overflow."""
    xd = x.data
    y = np.exp(xd + (-xd.max(axis=-1, keepdims=True)))
    y /= y.sum(axis=-1, keepdims=True)
    out, (s,) = _record(y, x)
    if out.requires_grad:
        out._slot._backward = lambda g: s._accumulate(_softmax_backward(y, g))
    return out


# score rows per key beyond which ``attention`` takes the row max column by
# column (``_column_max``)
_ROW_MAX_ROWS_PER_KEY = 16


def _column_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)`` as ``np.maximum`` over the columns:
    the same values and NaNs, though a zero max may take the other sign,
    which ``exp(z - max)`` does not see.  numpy's reduction costs about
    60 ns a row over a short last axis, which this avoids when the rows
    are many; over few rows, as in a decoding step or a one-instance
    score, the reduction is the faster."""
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    return m


def _scatter_rows(packed: np.ndarray, marked: tuple[np.ndarray, np.ndarray],
                  shape: tuple[int, int]) -> np.ndarray:
    """A zero (B, T, d) buffer, ``shape`` being (B, T), holding the (N, d)
    ``packed`` rows at the ``marked`` (batch, position) pairs."""
    buf = np.zeros(shape + packed.shape[-1:], dtype=packed.dtype)
    buf[marked] = packed
    return buf


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None,
              n_heads: int, rows: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` is (B, Lq, d), or (B, d) for one query per row, and ``k``, ``v``
    are (B, Lk, d); each splits into ``n_heads`` heads of ``d / n_heads``
    columns.  The (B, h, Lq, Lk) scores ``q kᵀ / sqrt(d_head)`` get ``bias``
    added by broadcasting (nothing when it is None) before a softmax over
    the keys weights the values; the heads merge back into an output of
    ``q``'s shape.  The node keeps the weights.

    With ``rows``, a (B, T) mask, ``q`` is packed: its (N, d) rows are the
    N positions the mask marks, in row-major order, and so are ``k`` and
    ``v`` when they are 2-D (self-attention keys and values).  The node
    scatters the packed inputs into zero (B, T, d) buffers, runs the
    arithmetic above there and returns the (N, d) output rows of the marked
    positions; its backward scatters the output gradient and gathers the
    inputs' gradients the same way.  The rows left zero must stay out of the
    marked queries' view, through ``bias``: a prefix mask under a causal
    bias puts them after every marked position.
    """
    qd, kd, vd = q.data, k.data, v.data
    kv_packed = rows is not None and kd.ndim == 2
    if rows is not None:
        marked = np.nonzero(rows)
        qd = _scatter_rows(qd, marked, rows.shape)
        if kv_packed:
            kd, vd = (_scatter_rows(t, marked, rows.shape) for t in (kd, vd))
    b, lk, d = kd.shape
    lq = qd.shape[1] if qd.ndim == 3 else 1
    dh = d // n_heads
    q4 = qd.reshape(b, lq, n_heads, dh).transpose(0, 2, 1, 3)    # (B, h, Lq, dh)
    k4 = kd.reshape(b, lk, n_heads, dh).transpose(0, 2, 1, 3)    # (B, h, Lk, dh)
    v4 = vd.reshape(b, lk, n_heads, dh).transpose(0, 2, 1, 3)
    scale = _as_array(math.sqrt(dh))
    z = (q4 @ k4.transpose(0, 1, 3, 2)) / scale
    if bias is not None:
        z += bias
    # in place: z - m rounds as z + (-m) does
    z -= (z.max(axis=-1, keepdims=True) if z.size <= _ROW_MAX_ROWS_PER_KEY * lk * lk
          else _column_max(z))
    wts = np.exp(z, out=z)
    wts /= wts.sum(axis=-1, keepdims=True)
    heads = (wts @ v4).transpose(0, 2, 1, 3)
    out, (sq, sk, sv) = _record(
        heads.reshape(qd.shape) if rows is None else heads[marked].reshape(-1, d), q, k, v)
    if out.requires_grad:
        q_shape, k_shape, v_shape = qd.shape, kd.shape, vd.shape

        def bw(g):
            if rows is not None:
                g = _scatter_rows(g, marked, rows.shape)
            g4 = g.reshape(b, lq, n_heads, dh).transpose(0, 2, 1, 3)
            gz = _softmax_backward(wts, g4 @ v4.swapaxes(-1, -2))
            gz /= scale
            # (B, L, h, dh) gradient heads: the marked rows of packed inputs
            if sq is not None:
                gq = (gz @ k4).transpose(0, 2, 1, 3)
                sq._accumulate(gq.reshape(q_shape) if rows is None
                               else gq[marked].reshape(-1, d))
            if sk is not None:
                gk = (q4.swapaxes(-1, -2) @ gz).transpose(0, 3, 1, 2)
                sk._accumulate(gk[marked].reshape(-1, d) if kv_packed
                               else gk.reshape(k_shape))
            if sv is not None:
                gv = (wts.swapaxes(-1, -2) @ g4).transpose(0, 2, 1, 3)
                sv._accumulate(gv[marked].reshape(-1, d) if kv_packed
                               else gv.reshape(v_shape))
        out._slot._backward = bw
    return out


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``silu(x @ w1 + b1) @ w2 + b2`` as one node.

    It keeps the pre-activation ``h`` and its sigmoid; the backward
    recomputes the activation ``h * sigmoid(h)`` for ``w2``'s gradient.
    """
    xd, w1d, w2d = x.data, w1.data, w2.data
    h = xd @ w1d
    h += b1.data
    sig = _sigmoid(h)
    y = (h * sig) @ w2d
    y += b2.data
    out, (sx, sw1, sb1, sw2, sb2) = _record(y, x, w1, b1, w2, b2)
    if out.requires_grad:
        b1_shape, b2_shape = b1.data.shape, b2.data.shape

        def bw(g):
            if sb2 is not None:
                sb2._accumulate(_unbroadcast(g, b2_shape))
            g2 = g.reshape(-1, w2d.shape[1])
            if sw2 is not None:
                sw2._accumulate((h * sig).reshape(-1, h.shape[-1]).T @ g2)
            gh = _silu_backward((g2 @ w2d.T).reshape(h.shape), h, sig)
            _linear_backward(gh, xd, w1d, (sx, sw1, sb1), b1_shape)
        out._slot._backward = bw
    return out


def linear_cross_entropy(x: Tensor, w: Tensor, b: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of ``-log softmax(x @ w + b)[..., target]`` over every position,
    as one node: an output projection and its cross-entropy.

    ``x`` is (..., d) and ``w`` (d, V); ``targets`` (integer ids) is (...);
    a caller with positions that do not count passes only the rows that do.
    The forward shifts the logits by their row maxima and takes ``exp`` in
    place, so the node keeps one (..., V) buffer and not the logits; the
    backward writes ``(softmax - onehot) / count`` into that buffer and
    hands it to ``linear``'s backward.  The loss and every gradient equal,
    bit for bit, those of a ``linear`` node followed by a node that computes
    this closed-form cross-entropy of its output.
    """
    v = w.data.shape[1]
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    count = float(targets.size)
    xd, wd = x.data, w.data
    y = xd @ wd
    y += b.data
    shape = y.shape
    e = y.reshape(-1, v)
    e -= e.max(axis=1, keepdims=True)
    rows = np.arange(e.shape[0])
    picked = e[rows, targets]
    np.exp(e, out=e)
    total = e.sum(axis=1, keepdims=True)
    picked -= np.log(total[:, 0])
    out, slots = _record(-(picked.sum() / count), x, w, b)
    if out.requires_grad:
        b_shape = b.data.shape

        def bw(g):
            grad = np.divide(e, total, out=e)
            grad[rows, targets] -= 1.0
            grad *= g / count
            _linear_backward(grad.reshape(shape), xd, wd, slots, b_shape)
        out._slot._backward = bw
    return out


def linear_bce(x: Tensor, w: Tensor, b: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy ``mean(softplus(z) - t z)`` of the logits
    ``z = x @ w + b``, as one node: an output projection and its loss.

    The forward takes softplus as ``Tensor.softplus`` does,
    ``log1p(exp(-|z|)) + max(z, 0)``, and the node keeps ``z`` and
    ``exp(-|z|)``.  The backward writes the logits' gradient
    ``(sigmoid(z) - t) g / N`` into those two buffers and hands it to
    ``linear``'s backward.
    """
    xd, wd = x.data, w.data
    z = xd @ wd
    z += b.data
    t = _as_array(targets)
    n = _as_array(float(z.size))
    e = np.exp(-np.abs(z))
    sp = np.log1p(e)
    sp += np.maximum(z, 0.0)
    sp -= t * z
    out, slots = _record(sp.sum() / n, x, w, b)
    if out.requires_grad:
        b_shape = b.data.shape

        def bw(g):
            # sigmoid(z) as ``_sigmoid`` takes it, from the forward's exp(-|z|)
            sig = np.exp(np.minimum(z, 0.0, out=z), out=z)
            sig /= np.add(e, 1.0, out=e)
            sig -= t
            sig *= g / n
            _linear_backward(sig, xd, wd, slots, b_shape)
        out._slot._backward = bw
    return out
