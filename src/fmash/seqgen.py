"""Autoregressive herb-sequence generation.

The symptom set (canonical ascending order plus positional encodings) runs
through a two-layer transformer encoder.  On the target side, herb token
embeddings are initialized row-for-row from the unified herb table, pass an
integration layer (cross-attention onto the symptom memory), then two
stacked decoder layers (causal self-attention + cross-attention), and a
projection onto the token vocabulary.  Greedy decoding starts from BOS,
masks already-emitted herbs, and stops at EOS or the length cap.

Decoding is incremental (Vaswani et al., arXiv:1706.03762): ``decoder_cache``
projects the memory's keys and values once for every cross-attention, and
each ``decoder_logits`` call runs only its new tokens, appending their
(B, L, d) self-attention keys and values to the cache.  A one-token step
adds no causal bias: its one query sees every cached key.  Teacher-forced
training runs the whole target prefix through the same call on an empty
cache.  A cached step can differ from the same position computed over the
full prefix in the last bits, since a one-row product sums in another
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import symptom_batch
from .errors import DataError, NumericError
from .nn import (DecoderLayer, EncoderLayer, LayerNorm, Linear, Module,
                 MultiHeadAttention, TrainResult, fit, key_mask_bias, parameter,
                 sinusoidal_positions, stage_rng)
from .refine import UnifiedEmbedding
from .tape import Tensor, masked_cross_entropy, no_grad

MAX_POSITIONS = 512


@dataclass(frozen=True)
class TokenVocab:
    n_herb: int

    @property
    def bos(self) -> int:
        return self.n_herb

    @property
    def eos(self) -> int:
        return self.n_herb + 1

    @property
    def pad(self) -> int:
        return self.n_herb + 2

    @property
    def size(self) -> int:
        return self.n_herb + 3

    def is_herb(self, token: int) -> bool:
        return 0 <= token < self.n_herb


class IntegrationLayer(Module):
    """Cross-attention-only block bridging target embeddings and memory."""

    def __init__(self, d_model: int, n_heads: int, rng):
        self.ln = LayerNorm(d_model)
        self.cross = MultiHeadAttention(d_model, n_heads, rng)

    def __call__(self, x: Tensor, memory_kv: tuple[Tensor, Tensor],
                 memory_bias: np.ndarray) -> Tensor:
        return x + self.cross.attend(self.ln(x), *memory_kv, memory_bias)


class Seq2SeqParams(Module):
    def __init__(self, emb: UnifiedEmbedding, seed: int | None, n_heads: int = 4,
                 n_enc_layers: int = 2, n_dec_layers: int = 2):
        d = emb.dim
        self.vocab = TokenVocab(emb.n_herb)
        self.d = d
        rng = stage_rng(seed, "seq")
        # the frozen unified symptom table and the positional encodings are
        # plain arrays, rebuilt on load rather than checkpointed; target
        # embeddings start from the unified herb rows and stay trainable
        self.sym_table = emb.sym()
        self.tok_embed = parameter(np.concatenate(
            [emb.herb(), rng.normal(0.0, 0.1, size=(3, d))], axis=0, dtype=np.float32))
        self.positions = sinusoidal_positions(MAX_POSITIONS, d)
        self.enc_layers = [EncoderLayer(d, n_heads, 4 * d, rng)
                           for _ in range(n_enc_layers)]
        self.enc_ln = LayerNorm(d)
        self.integration = IntegrationLayer(d, n_heads, rng)
        self.dec_layers = [DecoderLayer(d, n_heads, 4 * d, rng)
                           for _ in range(n_dec_layers)]
        self.dec_ln = LayerNorm(d)
        self.out = Linear(d, self.vocab.size, rng)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def encode_batch(symptom_sets: list, params: Seq2SeqParams,
                 ) -> tuple[Tensor, np.ndarray]:
    """Memory (B, W, d) plus key validity mask (B, W)."""
    ids, mask = symptom_batch(symptom_sets, params.sym_table.shape[0])
    x = Tensor(params.sym_table[ids] + params.positions[np.arange(ids.shape[1])])
    for layer in params.enc_layers:
        x = layer(x, key_mask=mask)
    return params.enc_ln(x), mask


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

@dataclass
class DecoderCache:
    """The state a decode carries from step to step: the memory's (B, W, d)
    keys and values for ``integration.cross`` and then each decoder layer's
    ``cross_attn``, the memory mask as an additive bias, and each decoder
    layer's (B, length, d) self-attention keys and values for the
    ``length`` tokens decoded so far (None before the first)."""
    memory_kv: list[tuple[Tensor, Tensor]]
    memory_bias: np.ndarray
    self_kv: list[tuple[Tensor, Tensor] | None]
    length: int = 0


def decoder_cache(memory: Tensor, memory_mask: np.ndarray,
                  params: Seq2SeqParams) -> DecoderCache:
    """An empty cache over ``memory``: every memory projection, once."""
    attns = [params.integration.cross] + [layer.cross_attn for layer in params.dec_layers]
    return DecoderCache(memory_kv=[attn.project_kv(memory) for attn in attns],
                        memory_bias=key_mask_bias(memory_mask, memory.data.dtype),
                        self_kv=[None] * len(params.dec_layers))


def decoder_logits(cache: DecoderCache, target_tokens: np.ndarray,
                   params: Seq2SeqParams) -> Tensor:
    """Next-token logits (B, T, V) for the T target tokens that follow the
    ``cache.length`` tokens already in ``cache``, at the positions after
    theirs; appends the new tokens' self-attention keys and values to
    ``cache``.  Teacher forcing passes a whole prefix to an empty cache."""
    target_tokens = np.asarray(target_tokens, dtype=np.intp)
    start, end = cache.length, cache.length + target_tokens.shape[1]
    if end > MAX_POSITIONS:
        raise DataError(f"a target sequence of {end} tokens exceeds the "
                        f"{MAX_POSITIONS} positions")
    x = params.tok_embed[target_tokens] + params.positions[start:end]
    x = params.integration(x, cache.memory_kv[0], cache.memory_bias)
    for i, layer in enumerate(params.dec_layers):
        x, cache.self_kv[i] = layer(x, cache.memory_kv[i + 1], cache.memory_bias,
                                    cache.self_kv[i])
    cache.length = end
    return params.out(params.dec_ln(x))


@dataclass
class SeqBatch:
    symptom_sets: list
    dec_in: np.ndarray       # (B, T) tokens starting with BOS
    dec_target: np.ndarray   # (B, T) tokens ending with EOS, PAD-filled
    loss_mask: np.ndarray    # (B, T) True where the target counts


def make_batch(instances, vocab: TokenVocab) -> SeqBatch:
    width = max(len(inst.herbs) for inst in instances) + 1
    b = len(instances)
    dec_in = np.full((b, width), vocab.pad, dtype=np.intp)
    dec_target = np.full((b, width), vocab.pad, dtype=np.intp)
    loss_mask = np.zeros((b, width), dtype=bool)
    for i, inst in enumerate(instances):
        seq = list(inst.herbs)
        dec_in[i, 0] = vocab.bos
        dec_in[i, 1:len(seq) + 1] = seq
        dec_target[i, :len(seq)] = seq
        dec_target[i, len(seq)] = vocab.eos
        loss_mask[i, :len(seq) + 1] = True
    return SeqBatch(symptom_sets=[sorted(inst.symptoms) for inst in instances],
                    dec_in=dec_in, dec_target=dec_target, loss_mask=loss_mask)


def sequence_loss(batch: SeqBatch, params: Seq2SeqParams) -> Tensor:
    """Teacher-forced cross-entropy; PAD positions contribute exactly zero."""
    memory, memory_mask = encode_batch(batch.symptom_sets, params)
    logits = decoder_logits(decoder_cache(memory, memory_mask, params), batch.dec_in,
                            params)
    return masked_cross_entropy(logits, batch.dec_target, batch.loss_mask)


def train_seq(instances, emb: UnifiedEmbedding, *, epochs: int = 300,
              lr: float = 3e-3, batch_size: int | None = None, seed: int = 42,
              n_heads: int = 4, params: Seq2SeqParams | None = None,
              ) -> TrainResult:
    """Teacher-forced training on [herbs..., EOS] in source order."""
    if not instances:
        raise DataError("cannot train on an empty split")
    if params is None:
        params = Seq2SeqParams(emb, seed, n_heads=n_heads)

    def loss(sel: np.ndarray) -> Tensor:
        return sequence_loss(make_batch([instances[i] for i in sel], params.vocab),
                             params)

    return TrainResult(params, list(fit(
        params.parameters(), loss, len(instances), name="seq", epochs=epochs, lr=lr,
        batch_size=batch_size, rng=stage_rng(seed, "seq.batches"))))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _masked_step_logits(cache: DecoderCache, token: int, herbs: list[int],
                        params: Seq2SeqParams) -> np.ndarray:
    """Logits of the token after ``token``, which follows the cached prefix;
    BOS, PAD and the emitted ``herbs`` get ``-inf``.  Greedy decoding only
    takes their argmax, which a log-softmax would not move."""
    vocab = params.vocab
    logits = decoder_logits(cache, np.asarray([[token]], dtype=np.intp), params).data[0, -1]
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite sequence scores at decoding step {cache.length}")
    logits[[vocab.bos, vocab.pad, *herbs]] = -np.inf
    return logits


def generate(symptom_ids, params: Seq2SeqParams, max_len: int) -> list[int]:
    """Greedy decoding from BOS; emitted herbs are masked so it never
    repeats one, and BOS/PAD can never be produced.  Stops at EOS, after
    ``max_len`` herbs, or when no token is left.  Returns herb ids only.

    The symptom memory is encoded and projected once per call; each step
    runs the decoder on its one new token against the cached keys and
    values of the tokens before it.
    """
    if not 1 <= max_len <= MAX_POSITIONS:
        raise DataError(f"max_len must be in [1, {MAX_POSITIONS}], got {max_len}")
    vocab = params.vocab
    herbs: list[int] = []
    tok = vocab.bos
    with no_grad():
        memory, memory_mask = encode_batch([symptom_ids], params)
        cache = decoder_cache(memory, memory_mask, params)
        while len(herbs) < max_len:
            logits = _masked_step_logits(cache, tok, herbs, params)
            tok = int(np.argmax(logits))
            if tok == vocab.eos or not np.isfinite(logits[tok]):
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
