"""Parameter containers, layers, the optimizer and the training loop used
across the models.

Modules are plain objects whose Tensor attributes (and nested Modules) are
discovered by reflection, torch-style.  Every component draws its
initialization from a named RNG stream derived from ``(seed, stage name)``,
so toggling one pipeline stage never shifts the random draws of another.
Serving builds a module as training does, from the run seed, and
``Module.load_state_dict`` then replaces every tensor.

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
from .tape import Tensor, attention, concat, feed_forward, layer_norm, linear


def stage_rng(seed: int, name: str) -> np.random.Generator:
    """An independent generator for one named pipeline stage."""
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


# every attention of both heads splits its width into this many heads
N_HEADS = 4


class MultiHeadAttention(Module):
    """Scaled dot-product attention over (B, L, d) inputs, one ``attention``
    tape node per call between the projections.

    Keys take no bias: it would shift all of a query's scores alike, which
    the softmax ignores, so its gradient would be rounding noise that Adam
    scales into steps (Namazifar et al., arXiv:2302.08626).

    Every call is ``project_kv`` on the keys' source followed by ``attend``
    with an additive key bias: ``key_mask_bias`` of a padding mask, which
    a caller builds once per forward for all its layers, or a causal one.
    A masked logit's ``exp`` after the row-max shift underflows to exactly
    zero in float32 as in float64, so padded keys neither change values nor
    receive gradient.  The decoder projects its memory once per decode and
    extends cached self-attention keys and values step by step.

    The width splits into ``N_HEADS`` heads.
    """

    def __init__(self, d_model: int, rng: np.random.Generator):
        if d_model % N_HEADS:
            raise ValueError(f"d_model must be divisible by the {N_HEADS} attention heads")
        self.wq = Linear(d_model, d_model, rng)
        self.wk = parameter(rng.normal(0.0, 1.0 / math.sqrt(d_model),
                                       size=(d_model, d_model)))
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)

    def project_kv(self, keyval: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of a (B, Lk, d) source, each (B, Lk, d)."""
        return linear(keyval, self.wk), self.wv(keyval)

    def attend(self, query: Tensor, k: Tensor, v: Tensor,
               bias: np.ndarray | None, rows: np.ndarray | None = None) -> Tensor:
        """Attention of a (B, Lq, d) query, or of a (B, d) one that asks
        one query per row, onto projected keys and values;
        ``bias`` (None for none) is added to the (B, h, Lq, Lk) scores by
        broadcasting.  With ``rows``, a (B, T) mask, the query holds the
        packed rows of the positions it marks (``tape.attention``)."""
        return self.wo(attention(self.wq(query), k, v, bias, N_HEADS, rows))


class FeedForward(Module):
    """``lin2(silu(lin1(x)))`` as one ``tape.feed_forward`` node, through a
    hidden width of ``4 * d_model``, as in every layer of both heads."""

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.lin1 = Linear(d_model, 4 * d_model, rng)
        self.lin2 = Linear(4 * d_model, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return feed_forward(x, self.lin1.weight, self.lin1.bias,
                            self.lin2.weight, self.lin2.bias)


class EncoderLayer(Module):
    """Pre-norm transformer encoder layer (self-attention + feed-forward).

    ``bias`` is the (B, 1, 1, L) additive key bias of the padding mask
    (``key_mask_bias``), built once by the caller for every layer.  With
    ``first_only``, every position still supplies keys and values, but
    only the first one queries: the attention, residual and feed-forward run
    on that row alone, and the layer returns its (B, d) state.  A model that
    reads nothing but the first position after its last layer gets the same
    function, without the rows it would throw away.
    """

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, rng)
        self.ln2 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, rng)

    def __call__(self, x: Tensor, bias: np.ndarray, first_only: bool = False,
                 ) -> Tensor:
        normed = self.ln1(x)
        query = normed
        if first_only:
            x, query = x[:, 0], normed[:, 0]
        x = x + self.attn.attend(query, *self.attn.project_kv(normed), bias)
        return x + self.ff(self.ln2(x))


class DecoderLayer(Module):
    """Pre-norm decoder layer: causal self-attention, cross-attention, FFN.

    The memory comes projected (``cross_attn.project_kv``) with its mask as
    an additive bias (``key_mask_bias``), so a decode projects it once.
    ``past`` holds the (B, L, d) self-attention keys and values of the L
    tokens before ``x``; the call returns the output and those of ``past``
    then ``x``, joined along the token axis.  A one-token ``x`` sees every
    key, so it takes no causal bias (that bias would be all zeros).

    With ``rows``, a (B, T) prefix mask and no ``past``, ``x`` holds the
    packed (N, d) rows of the N positions it marks, and so do the output and
    the returned keys and values: every row-wise step runs on those rows
    alone, and each attention places them at their (B, T) positions inside
    its node, where the causal bias hides the unmarked tail of each row
    from every marked query.
    """

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(d_model)
        self.self_attn = MultiHeadAttention(d_model, rng)
        self.ln2 = LayerNorm(d_model)
        self.cross_attn = MultiHeadAttention(d_model, rng)
        self.ln3 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, rng)

    def __call__(self, x: Tensor, memory_kv: tuple[Tensor, Tensor],
                 memory_bias: np.ndarray, past: tuple[Tensor, Tensor] | None = None,
                 rows: np.ndarray | None = None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        normed = self.ln1(x)
        k, v = self.self_attn.project_kv(normed)
        n_past = 0
        if past is not None:
            n_past = past[0].shape[1]
            k, v = concat([past[0], k], axis=1), concat([past[1], v], axis=1)
        lq = x.shape[1] if rows is None else rows.shape[1]
        bias = causal_bias(lq, n_past, x.data.dtype) if lq > 1 else None
        x = x + self.self_attn.attend(normed, k, v, bias, rows)
        x = x + self.cross_attn.attend(self.ln2(x), *memory_kv, memory_bias, rows)
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


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over one flat buffer.

    Construction copies the parameters, which must share one dtype, into one
    contiguous flat buffer in order and rebinds each ``p.data`` to its view
    there.  For the optimizer's life every parameter is a view into that
    buffer and is updated in place; ``m[i]`` and ``v[i]`` are views into the
    flat moments.

    ``step`` gathers every gradient into one flat buffer with a single
    ``concatenate`` and runs one fixed sequence of in-place whole-buffer
    operations, in this order (``t`` counts steps from 1)::

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p = p - (lr * (m / (1-b1**t))) / (sqrt(v / (1-b2**t)) + eps)

    Each operation rounds every element the same whatever the array's
    length, so the result equals, bit for bit, the same update run tensor by
    tensor.  ``step`` reads ``.grad`` and never writes it.  Before ``t``
    moves, it refuses a parameter whose gradient is None, or whose dtype or
    shape differs from the parameter's, naming the parameter's index.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise TypeError(f"Adam needs parameters of one dtype; got {sorted(map(str, dtypes))}")
        self._flat = np.concatenate([p.data.ravel() for p in self.params])
        self._m, self._v, self._g, self._scratch = (
            np.zeros_like(self._flat) for _ in range(4))
        ends = np.cumsum([p.data.size for p in self.params])[:-1]

        def views(flat: np.ndarray) -> list[np.ndarray]:
            return [part.reshape(p.data.shape)
                    for part, p in zip(np.split(flat, ends), self.params)]

        self.m, self.v = views(self._m), views(self._v)
        for p, view in zip(self.params, views(self._flat)):
            p.data = view

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        grads = [p.grad for p in self.params]
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if g is None:
                raise ValueError(f"Adam: parameter {i} has no gradient")
            if g.dtype != self._flat.dtype or g.shape != p.data.shape:
                error = TypeError if g.dtype != self._flat.dtype else ValueError
                raise error(f"Adam: parameter {i} is {self._flat.dtype} {p.data.shape} but "
                            f"its gradient is {g.dtype} {g.shape}")
        self.t += 1
        g, s, m, v, flat = self._g, self._scratch, self._m, self._v, self._flat
        np.concatenate(grads, axis=None, out=g)
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


# instances per chunk of a head's batch: one chunk's graph is alive at a time
CHUNK = 128


def accumulate_gradients(loss_fn: Callable[[np.ndarray], Tensor], sel: np.ndarray,
                         share: Callable[[np.ndarray], int] | None = None) -> float:
    """Run the batch ``sel`` forward and backward; return its loss.

    Without ``share``, ``loss_fn(sel)`` runs whole.  With it, ``sel`` runs
    in ``ceil(len(sel) / CHUNK)`` consecutive near-equal chunks, one graph
    at a time: ``share(chunk)`` counts the units that chunk's mean loss
    averages over (instances, target tokens), and each chunk's
    ``backward()`` is seeded with its share of the batch's units, so the
    leaves accumulate the gradient of the whole batch's mean loss, which is
    returned as the share-weighted sum of the chunk losses.  A chunk whose
    loss is not finite is returned at once, before its ``backward()``.
    """
    if share is None:
        chunks, units = [sel], [1]
    else:
        chunks = np.array_split(sel, -(-len(sel) // CHUNK))
        units = [share(chunk) for chunk in chunks]
    whole = sum(units)
    total = 0.0
    for chunk, unit in zip(chunks, units):
        loss = loss_fn(chunk)
        value = loss.item()
        if not math.isfinite(value):
            return value
        loss.backward(unit / whole)
        total += value * (unit / whole)
    return total


def fit(params: list[Tensor], loss_fn: Callable[[np.ndarray], Tensor], n: int, *,
        name: str, epochs: int, lr: float, batch_size: int | None = None,
        rng: np.random.Generator | None = None,
        share: Callable[[np.ndarray], int] | None = None) -> Iterator[float]:
    """Train ``params`` with Adam on ``loss_fn(indices)``, the mean loss of
    the examples at ``indices`` among ``0..n-1``.

    Each epoch covers every example once: as one batch in index order, or
    with ``batch_size`` in slices of a permutation drawn from ``rng``.  Each
    batch takes one Adam step on the gradients ``accumulate_gradients``
    leaves, in chunks of ``CHUNK`` weighted by ``share`` if it is given.
    Yields each epoch's example-weighted mean of its batch losses, each
    computed before that batch's Adam step; so a full-batch epoch's loss is
    the loss before the epoch's only step.  Raises ``NumericError`` instead,
    before the batch's Adam step, when a batch loss is not finite, naming
    the component by ``name``, its history key (``fr_sym``, ``rs``, ...),
    the epoch and the batch (from 1).
    """
    opt = Adam(params, lr=lr)
    step = batch_size or n
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n) if batch_size else np.arange(n)
        total = 0.0
        for batch, lo in enumerate(range(0, n, step), start=1):
            sel = order[lo:lo + step]
            opt.zero_grad()
            loss = accumulate_gradients(loss_fn, sel, share)
            if not math.isfinite(loss):
                raise NumericError(f"{name}: non-finite training loss at epoch {epoch}, "
                                   f"batch {batch}")
            opt.step()
            total += loss * len(sel)
        yield total / n


@dataclass
class TrainResult:
    """A trained model and its per-epoch losses."""
    params: Module
    losses: list[float]
