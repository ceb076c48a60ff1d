"""Parameter containers, layers, the optimizer and the training loop used
across the models.

Modules are plain objects whose Tensor attributes (and nested Modules) are
discovered by reflection, torch-style.  Every component draws its
initialization from a named RNG stream derived from ``(seed, stage name)``,
so toggling one pipeline stage never shifts the random draws of another.
A module about to be loaded from a checkpoint is built with seed ``None``
and draws nothing.

Parameters are float32, the one run dtype: each initialization is drawn in
float64, as every stream always drew it, and rounded by ``parameter``.

``fit`` trains with ``Adam``, which copies the parameters into one flat
buffer and, for the optimizer's life, leaves each parameter's data a view
into it that every step updates in place; ``state_dict`` returns copies.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NumericError
from .tape import Tensor, attention, concat, layer_norm, linear


class ShapesOnly:
    """Stands in for a generator when every tensor of a module is about to be
    loaded from a checkpoint: ``normal`` returns an uninitialized array of
    the requested size.  ``Module.load_state_dict`` then replaces every
    tensor, and rejects a missing or misshapen one, so none of these arrays
    is ever read."""

    def normal(self, loc: float = 0.0, scale: float = 1.0,
               size: int | tuple[int, ...] = ()) -> np.ndarray:
        return np.empty(size, dtype=np.float32)


def stage_rng(seed: int | None, name: str) -> np.random.Generator | ShapesOnly:
    """An independent generator for one named pipeline stage; for seed
    ``None``, a ``ShapesOnly`` stand-in that draws nothing."""
    if seed is None:
        return ShapesOnly()
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    lo = int.from_bytes(digest[:4], "little")
    hi = int.from_bytes(digest[4:], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(lo, hi)))


def parameter(values) -> Tensor:
    """A trainable tensor holding ``values`` rounded to float32."""
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


class Module:
    """Minimal parameter registry: walks attributes for Tensors and Modules."""

    def named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_tensors(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_tensors(f"{full}.{i}.")
                    elif isinstance(item, Tensor):
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors() if t.requires_grad]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_tensors()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_tensors())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, t in own.items():
            arr = np.array(state[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {t.data.shape}")
            t.data = arr


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 scale: float | None = None):
        std = (1.0 / math.sqrt(d_in)) if scale is None else scale
        self.weight = parameter(rng.normal(0.0, std, size=(d_in, d_out)))
        self.bias = parameter(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    eps = 1e-5

    def __init__(self, d: int):
        self.gamma = parameter(np.ones(d))
        self.beta = parameter(np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


NEG_INF = -1e9


def key_mask_bias(key_mask: np.ndarray, dtype) -> np.ndarray:
    """(B, 1, 1, Lk) additive attention bias in ``dtype``: 0 on the valid
    keys of a (B, Lk) mask, ``NEG_INF`` on the others."""
    bias = np.where(np.asarray(key_mask, dtype=bool), 0.0, NEG_INF).astype(dtype)
    return bias[:, None, None, :]


def causal_bias(lq: int, past: int, dtype) -> np.ndarray:
    """(Lq, past + Lq) additive attention bias in ``dtype`` for ``lq``
    queries that follow ``past`` cached keys: query ``i`` sees the cached
    keys and the new ones up to its own, ``past + i``."""
    return np.triu(np.full((lq, past + lq), NEG_INF, dtype=dtype), k=1 + past)


class MultiHeadAttention(Module):
    """Scaled dot-product attention over (B, L, d) inputs, one ``attention``
    tape node per call between the projections.

    ``key_mask`` marks valid key positions (B, Lk); masked logits get a large
    negative additive constant, built in the scores' dtype.  Its ``exp``
    after the row-max shift underflows to exactly zero in float32 as in
    float64, so padded keys neither change values nor receive gradient.

    A call is ``project_kv`` on the keys' source followed by ``attend``; the
    decoder calls the two itself, so that a decode projects its memory once
    and extends cached self-attention keys and values step by step.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        if d_model % n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        self.n_heads = n_heads
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)

    def project_kv(self, keyval: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of a (B, Lk, d) source, each (B, Lk, d)."""
        return self.wk(keyval), self.wv(keyval)

    def attend(self, query: Tensor, k: Tensor, v: Tensor,
               bias: np.ndarray | None) -> Tensor:
        """Attention of a (B, Lq, d) query onto projected keys and values;
        ``bias`` (None for none) is added to the (B, h, Lq, Lk) scores by
        broadcasting."""
        return self.wo(attention(self.wq(query), k, v, bias, self.n_heads))

    def __call__(self, query: Tensor, keyval: Tensor, key_mask: np.ndarray) -> Tensor:
        return self.attend(query, *self.project_kv(keyval),
                           key_mask_bias(key_mask, query.data.dtype))


class FeedForward(Module):
    def __init__(self, d_model: int, d_hidden: int, rng: np.random.Generator):
        self.lin1 = Linear(d_model, d_hidden, rng)
        self.lin2 = Linear(d_hidden, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.lin1(x).silu())


class EncoderLayer(Module):
    """Pre-norm transformer encoder layer (self-attention + feed-forward)."""

    def __init__(self, d_model: int, n_heads: int, d_ff: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln2 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, d_ff, rng)

    def __call__(self, x: Tensor, key_mask: np.ndarray) -> Tensor:
        normed = self.ln1(x)
        x = x + self.attn(normed, normed, key_mask=key_mask)
        return x + self.ff(self.ln2(x))


class DecoderLayer(Module):
    """Pre-norm decoder layer: causal self-attention, cross-attention, FFN.

    The memory comes projected (``cross_attn.project_kv``) with its mask as
    an additive bias (``key_mask_bias``), so a decode projects it once.
    ``past`` holds the (B, L, d) self-attention keys and values of the L
    tokens before ``x``; the call returns the output and those of ``past``
    then ``x``, joined along the token axis.  A one-token ``x`` sees every
    key, so it takes no causal bias (that bias would be all zeros).
    """

    def __init__(self, d_model: int, n_heads: int, d_ff: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(d_model)
        self.self_attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln2 = LayerNorm(d_model)
        self.cross_attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln3 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, d_ff, rng)

    def __call__(self, x: Tensor, memory_kv: tuple[Tensor, Tensor],
                 memory_bias: np.ndarray, past: tuple[Tensor, Tensor] | None = None,
                 ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        normed = self.ln1(x)
        k, v = self.self_attn.project_kv(normed)
        n_past = 0
        if past is not None:
            n_past = past[0].shape[1]
            k, v = concat([past[0], k], axis=1), concat([past[1], v], axis=1)
        lq = x.shape[1]
        bias = causal_bias(lq, n_past, x.data.dtype) if lq > 1 else None
        x = x + self.self_attn.attend(normed, k, v, bias)
        x = x + self.cross_attn.attend(self.ln2(x), *memory_kv, memory_bias)
        return x + self.ff(self.ln3(x)), (k, v)


@functools.cache
def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """``sin`` in the even columns and ``cos`` in the odd ones; columns
    ``2i`` and ``2i + 1`` share the angle ``pos / 10000^(2i / d_model)``,
    so each function runs once over the half table it fills.  Computed in
    float64 and rounded to float32, once per ``(length, d_model)``: every
    caller shares one read-only table."""
    pos = np.arange(length)[:, None]
    angle = pos / np.power(10000.0, np.arange(0, d_model, 2)[None, :] / d_model)
    enc = np.empty((length, d_model), dtype=np.float32)
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle[:, :d_model // 2])
    enc.flags.writeable = False
    return enc


ALIGN_BYTES = 64


def _aligned_zeros(size: int, dtype: np.dtype) -> np.ndarray:
    """A zero-filled 1-d array of ``size`` elements whose first element sits
    on an ``ALIGN_BYTES`` boundary."""
    raw = np.zeros(size + ALIGN_BYTES // dtype.itemsize, dtype=dtype)
    start = (-raw.ctypes.data % ALIGN_BYTES) // dtype.itemsize
    return raw[start:start + size]


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over one flat buffer.

    Construction copies the parameters, which must share one dtype, into one
    flat buffer, each starting on a 64-byte boundary, and rebinds each
    ``p.data`` to its C-contiguous view there.  For the optimizer's life
    every parameter is a view into that buffer and is updated in place;
    ``m[i]`` and ``v[i]`` are views into the flat moments.

    ``step`` gathers every gradient into one flat buffer with a single
    ``concatenate`` and runs one fixed sequence of in-place whole-buffer
    operations, in this order (``t`` counts steps from 1)::

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p = p - (lr * (m / (1-b1**t))) / (sqrt(v / (1-b2**t)) + eps)

    Each operation rounds every element the same whatever the array's
    length, so the result equals, bit for bit, the same update run tensor by
    tensor.  ``step`` reads ``.grad`` and never writes it; a gradient whose
    dtype or shape differs from its parameter's is refused.  A parameter
    whose ``grad`` is None keeps its data and both moments.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise TypeError(f"Adam needs parameters of one dtype; got {sorted(map(str, dtypes))}")
        self._dtype = dtype = dtypes.pop()
        align = ALIGN_BYTES // dtype.itemsize
        starts, end = [], 0
        for p in self.params:
            start = -(-end // align) * align
            starts.append(start)
            end = start + p.data.size
        self._flat = _aligned_zeros(end, dtype)
        self._m, self._v, self._g, self._scratch = (
            _aligned_zeros(end, dtype) for _ in range(4))
        self.m, self.v = [], []
        # the gradient pieces in buffer order, with zero pads over the gaps
        # between segments; ``step`` fills a copy's gradient slots
        self._pieces, self._slots = [], []
        end = 0
        for p, start in zip(self.params, starts):
            if start > end:
                self._pieces.append(np.zeros(start - end, dtype=dtype))
            self._slots.append(len(self._pieces))
            self._pieces.append(None)
            end = start + p.data.size
            segment = slice(start, end)
            view = self._flat[segment].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.m.append(self._m[segment].reshape(view.shape))
            self.v.append(self._v[segment].reshape(view.shape))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        pieces = self._pieces.copy()
        skipped = []
        for i, (p, slot) in enumerate(zip(self.params, self._slots)):
            g = p.grad
            if g is None:
                skipped.append((i, p.data.copy(), self.m[i].copy(), self.v[i].copy()))
                g = np.zeros_like(p.data)
            elif g.dtype != self._dtype or g.shape != p.data.shape:
                error = TypeError if g.dtype != self._dtype else ValueError
                raise error(f"Adam: parameter {i} is {self._dtype} {p.data.shape} but "
                            f"its gradient is {g.dtype} {g.shape}")
            pieces[slot] = g
        self.t += 1
        g, s, m, v, flat = self._g, self._scratch, self._m, self._v, self._flat
        np.concatenate(pieces, axis=None, out=g)
        np.multiply(m, self.b1, out=m)
        np.multiply(g, 1 - self.b1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, self.b2, out=v)
        np.multiply(g, 1 - self.b2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        # the gradient is spent: its buffer holds the denominator from here
        np.divide(m, 1 - self.b1 ** self.t, out=s)
        np.divide(v, 1 - self.b2 ** self.t, out=g)
        np.sqrt(g, out=g)
        np.add(g, self.eps, out=g)
        np.multiply(s, self.lr, out=s)
        np.divide(s, g, out=s)
        np.subtract(flat, s, out=flat)
        for i, data, m_i, v_i in skipped:
            self.params[i].data[...] = data
            self.m[i][...] = m_i
            self.v[i][...] = v_i


def fit(params: list[Tensor], loss_fn: Callable[[np.ndarray], Tensor], n: int, *,
        name: str, epochs: int, lr: float, batch_size: int | None = None,
        rng: np.random.Generator | None = None) -> Iterator[float]:
    """Train ``params`` with Adam on ``loss_fn(indices)``, the mean loss of
    the examples at ``indices`` among ``0..n-1``.

    Each epoch covers every example once: as one batch in index order, or
    with ``batch_size`` in slices of a permutation drawn from ``rng``.
    Yields each epoch's example-weighted mean of its batch losses, each
    computed before that batch's Adam step; so a full-batch epoch's loss is
    the loss before the epoch's only step.  Raises ``NumericError`` instead
    when that mean is not finite, naming the component by ``name``, its
    history key (``fr_sym``, ``rs``, ...).
    """
    opt = Adam(params, lr=lr)
    step = batch_size or n
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n) if batch_size else np.arange(n)
        total = 0.0
        for lo in range(0, n, step):
            sel = order[lo:lo + step]
            opt.zero_grad()
            loss = loss_fn(sel)
            loss.backward()
            opt.step()
            total += loss.item() * len(sel)
        mean = total / n
        if not np.isfinite(mean):
            raise NumericError(f"{name}: non-finite training loss at epoch {epoch}")
        yield mean


@dataclass
class TrainResult:
    """A trained model and its per-epoch losses."""
    params: Module
    losses: list[float]
