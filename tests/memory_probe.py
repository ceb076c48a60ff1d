"""Memory of a full-scale run: each head's training step, the corpus
records and phase 1's graph pass.

tracemalloc figures, each above what was allocated before it:

- ``graph_held(head, batch)``: the bytes one training loss of ``head``
  still holds after its forward, before its ``backward()``: its graph's
  slots and what their closures keep;

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

On glibc, ``fit_step_heap(head, batch)`` reads the heap arena with
``mallinfo2`` after one fit step.  ``tape._keep_freed_memory`` keeps
freed heap in the process, so the arena is the heap's high-water, and it,
not tracemalloc's peak above a baseline, is what moves a run's peak RSS.

The shapes are those of a full-scale run: the full-scale benchmark corpus
(``FULL_CORPUS``: 400 symptoms, 800 herbs, 40 syndromes, 33,765
prescriptions), its 1200-node graph, a random (1200, 64) unified table and
each head at its default dimensions.

Run directly, it prints the corpus and graph-pass figures, then both heads'
figures: the graph one loss holds after its forward at B = 128 (one
chunk), the heap arena after a fit step at B = 256, each in a fresh
process, the single loss at B = 256, 512 and 1024 with what one loss over
the 23,635-instance train split would need, extrapolated from the largest
batch, and the fit step at B = 256, 1024 and 4096::

    PYTHONPATH=src python tests/memory_probe.py
"""

from __future__ import annotations

import ctypes
import gc
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np

from fmash.dataio import build_graph, generate_synthetic, load_corpus, save_corpus
from fmash.hgre import HgreParams, hgre_forward
from fmash.nn import CHUNK
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


class MallInfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2``."""
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def mallinfo2() -> MallInfo2 | None:
    """glibc's heap statistics now; None without glibc 2.33 or later."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError, TypeError):
        return None
    fn.argtypes = []
    fn.restype = MallInfo2
    return fn()


def graph_held(head: str, batch: int, seed: int = 0) -> int:
    """Bytes one ``head`` loss over ``batch`` instances holds after its
    forward: its graph, before ``backward()``."""
    return traced(_loss_fn(head, *_setup(head, batch, seed)))[0]


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


def fit_step_heap(head: str, batch: int, seed: int = 0) -> int | None:
    """glibc's heap arena, in bytes, after one full-batch training step of
    ``head`` on ``batch`` instances in this process: the heap's high-water
    so far.  None without glibc 2.33 or later."""
    instances, emb, params = _setup(head, batch, seed)
    (train_seq if head == "seq" else train_rs)(instances, emb, epochs=1, params=params)
    info = mallinfo2()
    return None if info is None else info.arena


def _fresh_fit_step_heap(head: str, batch: int) -> int | None:
    """``fit_step_heap`` in a fresh interpreter, whose heap nothing else
    has grown."""
    out = subprocess.run([sys.executable, __file__, "heap", head, str(batch)],
                         check=True, capture_output=True, text=True).stdout
    return None if out.strip() == "None" else int(out)


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
        print(f"{head} loss graph after the forward, B={CHUNK}: "
              f"{graph_held(head, CHUNK) / MIB:.2f} MiB")
        heap = _fresh_fit_step_heap(head, 256)
        print(f"{head} heap arena after a B=256 fit step (fresh process): "
              + ("no mallinfo2 (needs glibc 2.33+)" if heap is None
                 else f"{heap / 1e6:.1f} MB"))
        per = {b: step_peak_per_instance(head, b) for b in (256, 512, 1024)}
        cells = ", ".join(f"B={b}: {v * b / MIB:.1f} MiB ({v / MIB:.3f} MiB/instance)"
                          for b, v in per.items())
        print(f"{head} loss + backward: {cells}; one loss over the train split "
              f"({FULL_TRAIN_SPLIT:,}): about {per[1024] * FULL_TRAIN_SPLIT / GIB:.1f} GiB")
        steps = ", ".join(f"B={b}: {fit_step_peak(head, b) / MIB:.1f} MiB"
                          for b in (256, 1024, 4096))
        print(f"{head} fit step: {steps}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["heap"]:
        print(fit_step_heap(sys.argv[2], int(sys.argv[3])))
    else:
        main()
