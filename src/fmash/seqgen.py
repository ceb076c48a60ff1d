"""Autoregressive herb-sequence generation.

The symptom set (canonical ascending order plus positional encodings) runs
through a two-layer transformer encoder.  On the target side, herb token
embeddings are initialized row-for-row from the unified herb table, pass an
integration layer (cross-attention onto the symptom memory), then two
stacked decoder layers (causal self-attention + cross-attention), and a
projection onto the token vocabulary.  Greedy decoding starts from BOS,
masks already-emitted herbs, and stops at EOS or the length cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import symptom_batch
from .errors import DataError
from .nn import (DecoderLayer, EncoderLayer, LayerNorm, Linear, Module,
                 MultiHeadAttention, TrainResult, fit, parameter,
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

    def __call__(self, x: Tensor, memory: Tensor,
                 memory_mask: np.ndarray | None = None) -> Tensor:
        return x + self.cross(self.ln(x), memory, key_mask=memory_mask)


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

def decoder_logits(memory: Tensor, memory_mask: np.ndarray | None,
                   target_tokens: np.ndarray, params: Seq2SeqParams) -> Tensor:
    """Next-token logits (B, T, V) for teacher-forced target prefixes."""
    target_tokens = np.asarray(target_tokens, dtype=np.intp)
    b, t = target_tokens.shape
    x = params.tok_embed[target_tokens] + params.positions[np.arange(t)]
    x = params.integration(x, memory, memory_mask=memory_mask)
    for layer in params.dec_layers:
        x = layer(x, memory, memory_mask=memory_mask)
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
    logits = decoder_logits(memory, memory_mask, batch.dec_in, params)
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

def _masked_step_logprobs(memory, memory_mask, tokens: list[int],
                          params: Seq2SeqParams) -> np.ndarray:
    vocab = params.vocab
    dec_in = np.asarray([tokens], dtype=np.intp)
    logits = decoder_logits(memory, memory_mask, dec_in, params).data[0, -1]
    shifted = logits - logits.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    logp[vocab.bos] = -np.inf
    logp[vocab.pad] = -np.inf
    for tok in tokens[1:]:
        logp[tok] = -np.inf          # duplicate-herb mask
    return logp


def generate(symptom_ids, params: Seq2SeqParams, max_len: int) -> list[int]:
    """Greedy decoding from BOS; emitted herbs are masked so it never
    repeats one, and BOS/PAD can never be produced.  Stops at EOS, after
    ``max_len`` herbs, or when no token is left.  Returns herb ids only.
    """
    if max_len < 1:
        raise DataError("max_len must be >= 1")
    vocab = params.vocab
    tokens = [vocab.bos]
    with no_grad():
        memory, memory_mask = encode_batch([symptom_ids], params)
        while len(tokens) - 1 < max_len:
            logp = _masked_step_logprobs(memory, memory_mask, tokens, params)
            tok = int(np.argsort(-logp, kind="stable")[0])
            if tok == vocab.eos or not np.isfinite(logp[tok]):
                break
            tokens.append(tok)
    return tokens[1:]


def export_predictions(path, instances, params: Seq2SeqParams,
                       max_len: int = 20) -> None:
    """One line per instance: ``instance_id<TAB>herb_id,herb_id,...`` in
    generation order (possibly empty after the tab)."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            seq = generate(inst.symptoms, params, max_len=max_len)
            fh.write(f"{inst.instance_id}\t{','.join(str(h) for h in seq)}\n")
