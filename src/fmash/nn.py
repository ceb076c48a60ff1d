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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NumericError
from .tape import Tensor, no_grad, softmax


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
                 bias: bool = True, scale: float | None = None):
        std = (1.0 / math.sqrt(d_in)) if scale is None else scale
        self.weight = parameter(rng.normal(0.0, std, size=(d_in, d_out)))
        self.bias = parameter(np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = Tensor.ensure(x) @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    def __init__(self, n: int, d: int, rng: np.random.Generator, std: float = 1.0):
        self.weight = parameter(rng.normal(0.0, std, size=(n, d)))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return self.weight[np.asarray(ids, dtype=np.intp)]


class LayerNorm(Module):
    def __init__(self, d: int, eps: float = 1e-5):
        self.gamma = parameter(np.ones(d))
        self.beta = parameter(np.zeros(d))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / (var + self.eps).sqrt() * self.gamma + self.beta


NEG_INF = -1e9


class MultiHeadAttention(Module):
    """Scaled dot-product attention over (B, L, d) inputs.

    ``key_mask`` marks valid key positions (B, Lk); masked logits get a large
    negative additive constant, built in the scores' dtype.  Its ``exp``
    after the row-max shift underflows to exactly zero in float32 as in
    float64, so padded keys neither change values nor receive gradient.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        if d_model % n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)

    def __call__(self, query: Tensor, keyval: Tensor,
                 key_mask: np.ndarray | None = None, causal: bool = False) -> Tensor:
        b, lq, d = query.shape
        lk = keyval.shape[1]
        h, e = self.n_heads, self.d_head

        def split(t: Tensor, length: int) -> Tensor:
            return t.reshape(b, length, h, e).transpose(0, 2, 1, 3)

        q = split(self.wq(query), lq)
        k = split(self.wk(keyval), lk)
        v = split(self.wv(keyval), lk)
        scores = (q @ k.transpose(0, 1, 3, 2)) / math.sqrt(e)
        bias = np.zeros((b, 1, lq, lk), dtype=scores.data.dtype)
        if key_mask is not None:
            bias += np.where(np.asarray(key_mask, dtype=bool), 0.0, NEG_INF)[:, None, None, :]
        if causal:
            if lq != lk:
                raise ValueError("causal attention requires square score matrices")
            bias += np.triu(np.full((lq, lk), NEG_INF), k=1)
        attn = softmax(scores + Tensor(bias), axis=-1)
        out = (attn @ v).transpose(0, 2, 1, 3).reshape(b, lq, d)
        return self.wo(out)


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

    def __call__(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        normed = self.ln1(x)
        x = x + self.attn(normed, normed, key_mask=key_mask)
        return x + self.ff(self.ln2(x))


class DecoderLayer(Module):
    """Pre-norm decoder layer: causal self-attention, cross-attention, FFN."""

    def __init__(self, d_model: int, n_heads: int, d_ff: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(d_model)
        self.self_attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln2 = LayerNorm(d_model)
        self.cross_attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln3 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, d_ff, rng)

    def __call__(self, x: Tensor, memory: Tensor,
                 memory_mask: np.ndarray | None = None) -> Tensor:
        normed = self.ln1(x)
        x = x + self.self_attn(normed, normed, causal=True)
        x = x + self.cross_attn(self.ln2(x), memory, key_mask=memory_mask)
        return x + self.ff(self.ln3(x))


def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """``sin`` in the even columns and ``cos`` in the odd ones; columns
    ``2i`` and ``2i + 1`` share the angle ``pos / 10000^(2i / d_model)``,
    so each function runs once over the half table it fills.  Computed in
    float64 and rounded to float32."""
    pos = np.arange(length)[:, None]
    angle = pos / np.power(10000.0, np.arange(0, d_model, 2)[None, :] / d_model)
    enc = np.empty((length, d_model), dtype=np.float32)
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle[:, :d_model // 2])
    return enc


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        with no_grad():
            for i, p in enumerate(self.params):
                if p.grad is None:
                    continue
                g = p.grad
                self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
                self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
                m_hat = self.m[i] / (1 - self.b1 ** self.t)
                v_hat = self.v[i] / (1 - self.b2 ** self.t)
                p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
