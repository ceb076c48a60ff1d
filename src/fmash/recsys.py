"""Ranked top-K recommendation head.

A first-pass inner-product matcher turns the aggregated symptom vector into
occurrence probabilities over herbs; the probability-weighted herb vector is
concatenated with the symptom vector, projected, and prepended as a [CLS]
position to the per-symptom token sequence.  A small transformer encoder
fuses the sequence and a per-herb sigmoid head reads the selection scores
off the [CLS] state.  The encoder's last layer attends from [CLS] only:
every position still supplies keys and values, but the query, residual
and feed-forward run on the one row the head reads.  With the fusion
encoder ablated, a trainable bilinear inner-product scorer takes its place.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import symptom_batch
from .errors import DataError, NumericError
from .nn import (EncoderLayer, Linear, Module, TrainResult, fit, key_mask_bias, parameter,
                 stage_rng)
from .refine import UnifiedEmbedding
from .tape import Tensor, concat, linear, linear_bce, no_grad, softmax


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class GelramParams(Module):
    def __init__(self, d: int, n_herb: int, seed: int, d_enc: int):
        rng = stage_rng(seed, "rs.gelram")
        self.input_proj = Linear(2 * d, d_enc, rng)
        self.tok_proj = Linear(d, d_enc, rng)
        self.layers = [EncoderLayer(d_enc, rng) for _ in range(2)]
        self.out = Linear(d_enc, n_herb, rng)


class PlainScorerParams(Module):
    """Bilinear inner-product scorer used when the fusion encoder is off."""

    def __init__(self, d: int, n_herb: int, seed: int):
        rng = stage_rng(seed, "rs.plain")
        self.bilinear = Linear(d, d, rng)
        self.bias = parameter(np.zeros(n_herb))


RsParams = GelramParams | PlainScorerParams


def make_rs_params(emb: UnifiedEmbedding, seed: int, *, gelram: bool = True,
                   d_enc: int = 64) -> RsParams:
    """A fresh ranked head: the fusion encoder, or the plain scorer if ablated."""
    if gelram:
        return GelramParams(emb.dim, emb.n_herb, seed, d_enc=d_enc)
    return PlainScorerParams(emb.dim, emb.n_herb, seed)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def weighted_herb(s: Tensor, herb_t: Tensor) -> Tensor:
    """The first-pass matcher: the (B, d) summed symptom vectors ``s`` give
    occurrence probabilities ``softmax(s · Hᵀ / √d)`` over the herb rows
    ``H``, and the result is the probability-weighted herb vector
    ``h_w = p @ H``, (B, d)."""
    logits = (s @ herb_t.transpose(1, 0)) / math.sqrt(herb_t.shape[1])
    return softmax(logits) @ herb_t


def rs_logits(symptom_sets: list, emb: UnifiedEmbedding, params: RsParams,
              sym_table: Tensor | None = None, herb_table: Tensor | None = None,
              targets: np.ndarray | None = None) -> Tensor:
    """Batched pre-sigmoid scores, one row per symptom set; with (B, H)
    multi-hot ``targets``, their mean binary cross-entropy instead, the
    training loss, as one ``linear_bce`` node over the output projection's
    input, so the scores never form a tensor of their own.

    ``sym_table`` / ``herb_table`` default to the tables of ``emb``, wrapped
    as constants.  The float64 gradient checks pass them as float64 leaves,
    so that the check covers the tables' gradients too (the acceptance gate
    checks ``[sym_t, herb_t] + rs.parameters()``).
    """
    sym_t = sym_table if sym_table is not None else Tensor(emb.sym())
    herb_t = herb_table if herb_table is not None else Tensor(emb.herb())
    ids, mask = symptom_batch(symptom_sets, sym_t.shape[0])
    b = ids.shape[0]

    tokens = sym_t[ids]                                   # (B, W, d)
    s = (tokens * mask[:, :, None]).sum(axis=1)           # (B, d)

    if isinstance(params, PlainScorerParams):
        x, w, bias = params.bilinear(s), herb_t.transpose(1, 0), params.bias
    else:
        cls = params.input_proj(concat([weighted_herb(s, herb_t), s], axis=1))  # (B, d_enc)
        seq = concat([cls.reshape(b, 1, -1), params.tok_proj(tokens)], axis=1)
        key_bias = key_mask_bias(np.concatenate([np.ones((b, 1), dtype=bool), mask],
                                                axis=1), seq.data.dtype)
        for layer in params.layers[:-1]:
            seq = layer(seq, key_bias)
        # the [CLS] state (B, d_enc) through the output projection; the last
        # layer computes that row alone
        x = params.layers[-1](seq, key_bias, first_only=True)
        w, bias = params.out.weight, params.out.bias
    if targets is None:
        return linear(x, w, bias)
    return linear_bce(x, w, bias, targets)


@dataclass
class RecommendationResult:
    scores: np.ndarray    # (H,), each in [0, 1]
    ranking: np.ndarray   # herb ids by descending logit, ties by id

    def topk(self, k: int) -> list[tuple[int, float]]:
        return [(int(h), float(self.scores[h])) for h in self.ranking[:k]]


def gelram_score(symptom_ids, emb: UnifiedEmbedding, params: RsParams,
                 ) -> RecommendationResult:
    """Sigmoid scores of every herb for one symptom set, ranked by logit:
    in float32 the sigmoid rounds every logit above about 17 to 1.0, which
    would turn the top of the ranking into ties."""
    with no_grad():
        logits = rs_logits([list(symptom_ids)], emb, params)
        scores = logits.sigmoid().data[0]
    if not np.isfinite(logits.data).all():
        raise NumericError("non-finite recommendation scores")
    ranking = np.argsort(-logits.data[0], kind="stable")
    return RecommendationResult(scores=scores, ranking=ranking)


def recommend(symptom_ids, k: int, params: RsParams, emb: UnifiedEmbedding,
              ) -> list[tuple[int, float]]:
    n_herb = emb.n_herb
    if not 1 <= k <= n_herb:
        raise ValueError(f"k must be in [1, {n_herb}], got {k}")
    return gelram_score(symptom_ids, emb, params).topk(k)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def multi_hot(herb_lists: list[list[int]], n_herb: int) -> np.ndarray:
    """(B, n_herb) float32 targets: 1 at each listed herb of each row."""
    t = np.zeros((len(herb_lists), n_herb), dtype=np.float32)
    rows = np.repeat(np.arange(len(herb_lists)), [len(herbs) for herbs in herb_lists])
    t[rows, list(itertools.chain.from_iterable(herb_lists))] = 1.0
    return t


def train_rs(instances, emb: UnifiedEmbedding, *, epochs: int, lr: float,
             batch_size: int | None, seed: int,
             params: RsParams | None = None) -> TrainResult:
    """Fit ``params``, else the default fusion head drawn from ``seed``, with
    multi-label binary cross-entropy over all herbs; each chunk of a batch
    builds its own multi-hot targets, and weighs in by its instances."""
    if not instances:
        raise DataError("cannot train on an empty split")
    if params is None:
        params = make_rs_params(emb, seed)

    def loss(sel: np.ndarray) -> Tensor:
        targets = multi_hot([instances[i].herbs for i in sel], emb.n_herb)
        return rs_logits([instances[i].symptoms for i in sel], emb, params,
                         targets=targets)

    return TrainResult(params, list(fit(
        params.parameters(), loss, len(instances), name="rs", epochs=epochs, lr=lr,
        batch_size=batch_size, rng=stage_rng(seed, "rs.batches"), share=len)))


def export_predictions(path, instances, emb: UnifiedEmbedding, params: RsParams,
                       ) -> None:
    """One line per instance: ``instance_id<TAB>herb_id:score,...`` descending."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            result = gelram_score(inst.symptoms, emb, params)
            pairs = ",".join(f"{int(h)}:{result.scores[h]:.6g}"
                             for h in result.ranking)
            fh.write(f"{inst.instance_id}\t{pairs}\n")
