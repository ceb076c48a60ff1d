"""Memory of training each head at full-scale shapes.

Two tracemalloc peaks, each above what was allocated before it:

- ``step_peak_per_instance(head, batch)``: one training loss of ``head``
  ("rs": ``recsys.rs_logits`` with targets, "seq": ``seqgen.sequence_loss``)
  plus its ``backward()``, divided by the batch size;
- ``fit_step_peak(head, batch)``: one full-batch epoch of ``train_rs`` or
  ``train_seq`` on ``batch`` instances, that is one whole step of
  ``nn.fit``: every chunk's loss and ``backward()``, then the Adam step.

The shapes are those of a full-scale run: instances drawn as the full-scale
benchmark corpus draws them (400 symptoms, 800 herbs, 40 syndromes), a
random (1200, 64) unified table and each head at its default dimensions.

Run directly, it prints both heads' figures, the single loss at B = 256,
512 and 1024 with what one loss over the 23,635-instance train split of the
33,765-prescription corpus would need, extrapolated from the largest batch,
and the fit step at B = 256, 1024 and 4096::

    PYTHONPATH=src python tests/memory_probe.py
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from fmash.dataio import generate_synthetic
from fmash.recsys import make_rs_params, multi_hot, rs_logits, train_rs
from fmash.refine import UNIFIED_DIM, UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, make_batch, sequence_loss, train_seq

N_SYM, N_HERB, N_SYNDROMES = 400, 800, 40
FULL_TRAIN_SPLIT = 23_635
MIB, GIB = 2 ** 20, 2 ** 30


def _setup(head: str, batch: int, seed: int):
    """``batch`` full-scale instances, a random unified table and a fresh
    ``head``."""
    _, _, instances = generate_synthetic(N_SYM, N_HERB, N_SYNDROMES, batch, seed=seed,
                                         unique_symptom_sets=False)
    emb = UnifiedEmbedding(np.random.default_rng(seed).normal(
        size=(N_SYM + N_HERB, UNIFIED_DIM)), n_sym=N_SYM)
    params = Seq2SeqParams(emb, seed) if head == "seq" else make_rs_params(emb, seed)
    return instances, emb, params


def _traced_peak(fn) -> int:
    """tracemalloc's peak over ``fn()`` above what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def _loss_fn(head: str, instances, emb: UnifiedEmbedding, params):
    """A closure computing one training loss of ``head`` over ``instances``;
    the batch and its targets are built up front."""
    if head == "seq":
        seq_batch = make_batch(instances, params.vocab)
        return lambda: sequence_loss(seq_batch, params)
    sets = [sorted(inst.symptoms) for inst in instances]
    targets = multi_hot([inst.herbs for inst in instances], emb.n_herb)
    return lambda: rs_logits(sets, emb, params, targets=targets)


def step_peak_per_instance(head: str, batch: int, seed: int = 0) -> float:
    """Peak bytes of one ``head`` loss plus ``backward()`` per instance."""
    loss_fn = _loss_fn(head, *_setup(head, batch, seed))
    return _traced_peak(lambda: loss_fn().backward()) / batch


def fit_step_peak(head: str, batch: int, seed: int = 0) -> int:
    """Peak bytes of one full-batch training step of ``head`` on ``batch``
    instances, Adam included."""
    instances, emb, params = _setup(head, batch, seed)
    train = train_seq if head == "seq" else train_rs
    return _traced_peak(lambda: train(instances, emb, epochs=1, params=params))


def main() -> None:
    for head in ("seq", "rs"):
        per = {b: step_peak_per_instance(head, b) for b in (256, 512, 1024)}
        cells = ", ".join(f"B={b}: {v * b / MIB:.1f} MiB ({v / MIB:.3f} MiB/instance)"
                          for b, v in per.items())
        print(f"{head} loss + backward: {cells}; one loss over the train split "
              f"({FULL_TRAIN_SPLIT:,}): about {per[1024] * FULL_TRAIN_SPLIT / GIB:.1f} GiB")
        steps = ", ".join(f"B={b}: {fit_step_peak(head, b) / MIB:.1f} MiB"
                          for b in (256, 1024, 4096))
        print(f"{head} fit step: {steps}")


if __name__ == "__main__":
    main()
