"""Memory of a full-scale run: each head's training step, the corpus
records and phase 1's graph pass.

tracemalloc figures, each above what was allocated before it:

- ``step_peak_per_instance(head, batch)``: the peak of one training loss of
  ``head`` ("rs": ``recsys.rs_logits`` with targets, "seq":
  ``seqgen.sequence_loss``) plus its ``backward()``, divided by the batch
  size;
- ``fit_step_peak(head, batch)``: the peak of one full-batch epoch of
  ``train_rs`` or ``train_seq`` on ``batch`` instances, that is one whole
  step of ``nn.fit``: every chunk's loss and ``backward()``, then the Adam
  step;
- ``hgre_peak(graph)``: the peak of phase 1's untrained HGRE pass (under
  ``no_grad``) over ``graph`` with random 64-d float32 features;
- ``traced(fn)``: what ``fn()`` keeps (its result) and its peak, as
  ``corpus_memory`` reports for ``generate_synthetic`` and ``load_corpus``.

The shapes are those of a full-scale run: the full-scale benchmark corpus
(``FULL_CORPUS``: 400 symptoms, 800 herbs, 40 syndromes, 33,765
prescriptions), its 1200-node graph, a random (1200, 64) unified table and
each head at its default dimensions.

Run directly, it prints the corpus and graph-pass figures, then both heads'
figures: the single loss at B = 256, 512 and 1024 with what one loss over
the 23,635-instance train split would need, extrapolated from the largest
batch, and the fit step at B = 256, 1024 and 4096::

    PYTHONPATH=src python tests/memory_probe.py
"""

from __future__ import annotations

import gc
import tempfile
import tracemalloc

import numpy as np

from fmash.dataio import build_graph, generate_synthetic, load_corpus, save_corpus
from fmash.hgre import HgreParams, hgre_forward
from fmash.recsys import make_rs_params, multi_hot, rs_logits, train_rs
from fmash.refine import UNIFIED_DIM, UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, make_batch, sequence_loss, train_seq
from fmash.tape import Tensor, no_grad

N_SYM, N_HERB, N_SYNDROMES = 400, 800, 40
FULL_CORPUS = dict(n_sym=N_SYM, n_herb=N_HERB, n_syndromes=N_SYNDROMES,
                   n_prescriptions=33_765, unique_symptom_sets=False)
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


def traced(fn) -> tuple[int, int]:
    """tracemalloc's figures for ``fn()`` above what was allocated before
    it: the bytes still held when it returns (its result included), and its
    peak."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()                     # held until measured
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held - base, peak - base


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
    return traced(lambda: loss_fn().backward())[1] / batch


def fit_step_peak(head: str, batch: int, seed: int = 0) -> int:
    """Peak bytes of one full-batch training step of ``head`` on ``batch``
    instances, Adam included."""
    instances, emb, params = _setup(head, batch, seed)
    train = train_seq if head == "seq" else train_rs
    return traced(lambda: train(instances, emb, epochs=1, params=params))[1]


def hgre_peak(graph, seed: int = 0) -> int:
    """Peak bytes of one untrained HGRE pass over ``graph``, under
    ``no_grad`` as phase 1 runs it, on random 64-d float32 features."""
    params = HgreParams(UNIFIED_DIM, seed)
    x = Tensor(np.random.default_rng(seed).normal(
        size=(graph.n_sym + graph.n_herb, UNIFIED_DIM)).astype(np.float32))

    def run():
        with no_grad():
            hgre_forward(x, graph, params)
    return traced(run)[1]


def corpus_memory(seed: int = 1) -> dict[str, tuple[int, int]]:
    """Bytes kept and peak bytes of ``generate_synthetic`` drawing the
    full-scale corpus and of ``load_corpus`` reading it back."""
    figures = {"generate_synthetic": traced(
        lambda: generate_synthetic(**FULL_CORPUS, seed=seed))}
    with tempfile.TemporaryDirectory() as corpus:
        save_corpus(corpus, *generate_synthetic(**FULL_CORPUS, seed=seed))
        figures["load_corpus"] = traced(lambda: load_corpus(corpus))
    return figures


def main() -> None:
    n = FULL_CORPUS["n_prescriptions"]
    for name, (held, peak) in corpus_memory().items():
        print(f"{name}, full-scale corpus ({n:,} prescriptions): keeps "
              f"{held / MIB:.1f} MiB ({held / n:.0f} bytes/prescription), "
              f"peak {peak / MIB:.1f} MiB")
    _, _, prescriptions = generate_synthetic(**FULL_CORPUS, seed=1)
    graph = build_graph(prescriptions, N_SYM, N_HERB)
    print(f"untrained HGRE pass, full-scale graph ({N_SYM + N_HERB} nodes): "
          f"peak {hgre_peak(graph) / MIB:.1f} MiB")
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
