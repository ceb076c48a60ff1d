"""Autoregressive herb-sequence generation.

The symptom set (canonical ascending order plus positional encodings) runs
through a two-layer transformer encoder.  On the target side, herb token
embeddings are initialized row-for-row from the unified herb table, pass an
integration layer (cross-attention onto the symptom memory), then two
stacked decoder layers (causal self-attention + cross-attention), and a
projection onto the herbs plus EOS.  Greedy decoding starts from BOS,
masks already-emitted herbs, and stops at EOS or the length cap.

Decoding is incremental (Vaswani et al., arXiv:1706.03762): ``decoder_cache``
projects the memory's keys and values once for every cross-attention, and
each ``decoder_logits`` call runs only its new tokens, appending their
(B, L, d) self-attention keys and values to the cache.  A one-token step
adds no causal bias: its one query sees every cached key.  Teacher-forced
training runs the whole target prefix through the same call on an empty
cache, packed: the decoder carries one (d,) row per target token, (N, d)
for the N tokens of the batch, so no position past an instance's EOS
runs through the embedding gather, a layer norm, a projection, a
feed-forward block or the output projection and its loss.  Only each
attention node places the rows at their (B, T) positions, inside the node.
A cached step can differ from the same position computed over the full
prefix in the last bits, since a one-row product sums in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataio import symptom_batch
from .errors import DataError, NumericError
from .nn import (DecoderLayer, EncoderLayer, LayerNorm, Linear, Module,
                 MultiHeadAttention, TrainResult, fit, key_mask_bias, parameter,
                 sinusoidal_positions, stage_rng)
from .refine import UnifiedEmbedding
from .tape import Tensor, linear_cross_entropy, no_grad


@dataclass(frozen=True)
class TokenVocab:
    """Herb ``h`` is token ``h`` in both token tables.  BOS, which only
    inputs hold, is the row after the herbs in ``tok_embed``; EOS, which
    only targets hold, is the column after the herbs in ``out``."""
    n_herb: int

    @property
    def bos(self) -> int:
        return self.n_herb

    @property
    def eos(self) -> int:
        return self.n_herb

    def is_herb(self, token: int) -> bool:
        return 0 <= token < self.n_herb


class IntegrationLayer(Module):
    """Cross-attention-only block bridging target embeddings and memory."""

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.ln = LayerNorm(d_model)
        self.cross = MultiHeadAttention(d_model, rng)

    def __call__(self, x: Tensor, memory_kv: tuple[Tensor, Tensor],
                 memory_bias: np.ndarray, rows: np.ndarray | None = None) -> Tensor:
        return x + self.cross.attend(self.ln(x), *memory_kv, memory_bias, rows)


class Seq2SeqParams(Module):
    def __init__(self, emb: UnifiedEmbedding, seed: int):
        d = emb.dim
        self.vocab = TokenVocab(emb.n_herb)
        rng = stage_rng(seed, "seq")
        # the frozen unified symptom table and the positional encodings are
        # plain arrays, rebuilt on load rather than checkpointed; target
        # embeddings start from the unified herb rows and stay trainable; a
        # symptom set holds each symptom once and a target sequence BOS and
        # each herb once, so the table has a row for every reachable position
        self.sym_table = emb.sym()
        self.tok_embed = parameter(np.concatenate(
            [emb.herb(), rng.normal(0.0, 0.1, size=(1, d))], axis=0, dtype=np.float32))
        self.positions = sinusoidal_positions(max(emb.n_sym, emb.n_herb + 1), d)
        self.enc_layers = [EncoderLayer(d, rng) for _ in range(2)]
        self.enc_ln = LayerNorm(d)
        self.integration = IntegrationLayer(d, rng)
        self.dec_layers = [DecoderLayer(d, rng) for _ in range(2)]
        self.dec_ln = LayerNorm(d)
        self.out = Linear(d, emb.n_herb + 1, rng)    # the herbs, then EOS


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def encode_batch(symptom_sets: list, params: Seq2SeqParams,
                 ) -> tuple[Tensor, np.ndarray]:
    """Memory (B, W, d) plus its (B, 1, 1, W) padding bias (``key_mask_bias``),
    built once for every encoder layer and cross-attention."""
    ids, mask = symptom_batch(symptom_sets, params.sym_table.shape[0])
    x = Tensor(params.sym_table[ids] + params.positions[np.arange(ids.shape[1])])
    bias = key_mask_bias(mask, x.data.dtype)
    for layer in params.enc_layers:
        x = layer(x, bias)
    return params.enc_ln(x), bias


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

@dataclass
class DecoderCache:
    """The state a decode carries from step to step: the memory's (B, W, d)
    keys and values for ``integration.cross`` and then each decoder layer's
    ``cross_attn``, the memory's additive key bias, and each decoder
    layer's (B, length, d) self-attention keys and values for the
    ``length`` tokens decoded so far (None before the first)."""
    memory_kv: list[tuple[Tensor, Tensor]]
    memory_bias: np.ndarray
    self_kv: list[tuple[Tensor, Tensor] | None]
    length: int = 0


def decoder_cache(memory: Tensor, memory_bias: np.ndarray,
                  params: Seq2SeqParams) -> DecoderCache:
    """An empty cache over ``encode_batch``'s memory and bias: every memory
    projection, once."""
    attns = [params.integration.cross] + [layer.cross_attn for layer in params.dec_layers]
    return DecoderCache(memory_kv=[attn.project_kv(memory) for attn in attns],
                        memory_bias=memory_bias, self_kv=[None] * len(params.dec_layers))


def decoder_states(cache: DecoderCache, tokens: np.ndarray,
                   params: Seq2SeqParams, rows: np.ndarray | None = None) -> Tensor:
    """The (B, T, d) final decoder states, the input of the output
    projection, for the (B, T) input tokens that follow the
    ``cache.length`` tokens already in ``cache``, at the positions after
    theirs; appends the new tokens' self-attention keys and values to
    ``cache``.

    Teacher forcing passes whole sequences to an empty cache, packed:
    ``rows`` is a (B, T) mask that marks a prefix of each row, ``tokens``
    the (N,) tokens of its N marked positions in row-major order, and the
    states are their packed (N, d) rows.  The cache's self-attention keys
    and values are packed as well, so a packed call ends a cache's use."""
    tokens = np.asarray(tokens, dtype=np.intp)
    start = cache.length
    end = start + (tokens.shape[1] if rows is None else rows.shape[1])
    at = np.arange(start, end) if rows is None else np.nonzero(rows)[1]
    x = params.tok_embed[tokens] + params.positions[at]
    x = params.integration(x, cache.memory_kv[0], cache.memory_bias, rows)
    for i, layer in enumerate(params.dec_layers):
        x, cache.self_kv[i] = layer(x, cache.memory_kv[i + 1], cache.memory_bias,
                                    cache.self_kv[i], rows)
    cache.length = end
    return params.dec_ln(x)


def decoder_logits(cache: DecoderCache, target_tokens: np.ndarray,
                   params: Seq2SeqParams) -> Tensor:
    """Next-token logits (B, T, n_herb + 1), the herbs then EOS:
    ``decoder_states`` (which see) through the output projection."""
    return params.out(decoder_states(cache, target_tokens, params))


@dataclass
class SeqBatch:
    symptom_sets: list
    rows: np.ndarray      # (B, T) True on instance i's first len(herbs) + 1 positions
    inputs: np.ndarray    # (N,) BOS and each instance's herbs, at the marked positions
    targets: np.ndarray   # (N,) each instance's herbs and EOS, at the same positions


def make_batch(instances, vocab: TokenVocab) -> SeqBatch:
    lengths = np.array([len(inst.herbs) + 1 for inst in instances])
    herbs = [inst.herbs for inst in instances]
    return SeqBatch(
        symptom_sets=[inst.symptoms for inst in instances],
        rows=np.arange(lengths.max()) < lengths[:, None],
        inputs=np.fromiter(chain.from_iterable([vocab.bos, *h] for h in herbs),
                           dtype=np.intp),
        targets=np.fromiter(chain.from_iterable([*h, vocab.eos] for h in herbs),
                            dtype=np.intp))


def sequence_loss(batch: SeqBatch, params: Seq2SeqParams) -> Tensor:
    """Teacher-forced cross-entropy, the mean over the batch's target
    tokens, whose decoder states run packed (``decoder_states``).  The
    output projection and the loss are one ``linear_cross_entropy`` node,
    so the (N, n_herb + 1) logits never form a tensor of their own."""
    states = decoder_states(decoder_cache(*encode_batch(batch.symptom_sets, params),
                                          params), batch.inputs, params, batch.rows)
    return linear_cross_entropy(states, params.out.weight, params.out.bias,
                                batch.targets)


def train_seq(instances, emb: UnifiedEmbedding, *, epochs: int, lr: float,
              batch_size: int | None, seed: int,
              params: Seq2SeqParams | None = None) -> TrainResult:
    """Fit ``params``, else the default head drawn from ``seed``, teacher-forced
    on [herbs..., EOS] in source order; each chunk of a batch weighs in by
    its target tokens."""
    if not instances:
        raise DataError("cannot train on an empty split")
    if params is None:
        params = Seq2SeqParams(emb, seed)
    tokens = np.array([len(inst.herbs) + 1 for inst in instances])

    def loss(sel: np.ndarray) -> Tensor:
        return sequence_loss(make_batch([instances[i] for i in sel], params.vocab),
                             params)

    return TrainResult(params, list(fit(
        params.parameters(), loss, len(instances), name="seq", epochs=epochs, lr=lr,
        batch_size=batch_size, rng=stage_rng(seed, "seq.batches"),
        share=lambda sel: int(tokens[sel].sum()))))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _masked_step_logits(cache: DecoderCache, token: int, herbs: list[int],
                        params: Seq2SeqParams) -> np.ndarray:
    """Logits of the token after ``token``, which follows the cached prefix;
    the emitted ``herbs`` get ``-inf``.  Greedy decoding only takes their
    argmax, which a log-softmax would not move."""
    logits = decoder_logits(cache, np.asarray([[token]], dtype=np.intp), params).data[0, -1]
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite sequence scores at decoding step {cache.length}")
    logits[herbs] = -np.inf
    return logits


def generate(symptom_ids, params: Seq2SeqParams, max_len: int) -> list[int]:
    """Greedy decoding from BOS; emitted herbs are masked so it never
    repeats one.  Stops at EOS, which is all that is left once every herb
    is emitted, or after ``max_len`` herbs.  Returns herb ids only.

    The symptom memory is encoded and projected once per call; each step
    runs the decoder on its one new token against the cached keys and
    values of the tokens before it.
    """
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    vocab = params.vocab
    herbs: list[int] = []
    tok = vocab.bos
    with no_grad():
        cache = decoder_cache(*encode_batch([symptom_ids], params), params)
        while len(herbs) < max_len:
            tok = int(np.argmax(_masked_step_logits(cache, tok, herbs, params)))
            if tok == vocab.eos:
                break
            herbs.append(tok)
    return herbs


def export_predictions(path, instances, params: Seq2SeqParams, max_len: int) -> None:
    """One line per instance: ``instance_id<TAB>herb_id,herb_id,...`` in
    generation order (possibly empty after the tab)."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            seq = generate(inst.symptoms, params, max_len=max_len)
            fh.write(f"{inst.instance_id}\t{','.join(str(h) for h in seq)}\n")
