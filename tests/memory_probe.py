"""Memory of one training step of each head, per instance.

``step_peak_per_instance(head, batch)`` is tracemalloc's peak over one
training loss of ``head`` ("rs": ``recsys.rs_logits`` with targets, "seq":
``seqgen.sequence_loss``) plus its ``backward()``, above what was allocated
before the loss, divided by the batch size.  The shapes are those of a
full-scale run: instances drawn as the full-scale benchmark corpus draws
them (400 symptoms, 800 herbs, 40 syndromes), a random (1200, 64) unified
table and each head at its default dimensions.

Run directly, it prints both heads' figures at B = 256, 512 and 1024 and
the memory a full-batch epoch would need on the 23,635-instance train split
of the 33,765-prescription corpus, extrapolated from the largest batch::

    PYTHONPATH=src python tests/memory_probe.py
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from fmash.dataio import generate_synthetic
from fmash.recsys import make_rs_params, multi_hot, rs_logits
from fmash.refine import UNIFIED_DIM, UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, make_batch, sequence_loss

N_SYM, N_HERB, N_SYNDROMES = 400, 800, 40
FULL_TRAIN_SPLIT = 23_635
MIB, GIB = 2 ** 20, 2 ** 30


def _loss_fn(head: str, batch: int, seed: int):
    """A closure computing one training loss of ``head`` over ``batch``
    full-scale instances; the batch and its targets are built up front."""
    _, _, instances = generate_synthetic(N_SYM, N_HERB, N_SYNDROMES, batch, seed=seed,
                                         unique_symptom_sets=False)
    emb = UnifiedEmbedding(np.random.default_rng(seed).normal(
        size=(N_SYM + N_HERB, UNIFIED_DIM)), n_sym=N_SYM)
    if head == "seq":
        params = Seq2SeqParams(emb, seed)
        seq_batch = make_batch(instances, params.vocab)
        return lambda: sequence_loss(seq_batch, params)
    params = make_rs_params(emb, seed)
    sets = [sorted(inst.symptoms) for inst in instances]
    targets = multi_hot([inst.herbs for inst in instances], emb.n_herb)
    return lambda: rs_logits(sets, emb, params, targets=targets)


def step_peak_per_instance(head: str, batch: int, seed: int = 0) -> float:
    """Peak bytes of one ``head`` loss plus ``backward()`` per instance."""
    loss_fn = _loss_fn(head, batch, seed)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss_fn().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / batch


def main() -> None:
    for head in ("seq", "rs"):
        per = {b: step_peak_per_instance(head, b) for b in (256, 512, 1024)}
        cells = ", ".join(f"B={b}: {v * b / MIB:.1f} MiB ({v / MIB:.3f} MiB/instance)"
                          for b, v in per.items())
        print(f"{head}: {cells}; full-batch train split ({FULL_TRAIN_SPLIT:,}): "
              f"about {per[1024] * FULL_TRAIN_SPLIT / GIB:.1f} GiB")


if __name__ == "__main__":
    main()
