"""Memorization quality of both heads on the acceptance gate's setups, across
training seeds and BLAS thread counts, for one source tree or two.

For each training seed in ``SEEDS`` and each BLAS thread count in
``THREADS``, one subprocess per tree builds the planted corpus, its split
and its phase-1 table as ``tests/test_acceptance.py`` does, then runs:

- c4: ``train_rs`` for 300 epochs at lr 1e-2, then train containment and
  train P@5 (gate: each >= 0.9);
- c5: ``train_seq`` for 300 epochs at lr 3e-3, then greedy decoding of
  every train instance: exact match (gate: >= 0.9), BMP@5 (gate: >= 0.95)
  and formulas with a repeated herb or a special token (gate: 0); test
  BMP@5 is printed beside them, ungated;
- c6: ``train_seq`` on the conflicting corpus at the gate's own seed, once
  per tree and thread count: ambiguous inputs whose formula stays pure.

Each subprocess gets its thread count in its environment, so BLAS reads
it when numpy loads.  With two trees the order alternates per seed, so
slow drift of the machine does not land on one tree.  The table gives the
loss at epochs 150 and 200 and the final one, each gated metric, and its
margin to the gate's bound (negative: the gate fails).  Not part of the
test suite; a run of both trees takes about 6 minutes on 2 cores::

    python tests/quality_probe.py PARENT_TREE [CHANGED_TREE]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (42, 43, 44, 45, 46)
THREADS = (1, 2)
C6_SEED = 5
GATES = {"containment": 0.9, "p5": 0.9, "exact": 0.9, "bmp5": 0.95}


def _losses(losses: list[float]) -> list[float]:
    return [losses[149], losses[199], losses[-1]]


def _memorization(seed: int) -> dict:
    """c4 and c5 at training seed ``seed`` (runs inside the tree's process)."""
    from fmash.config import RunConfig
    from fmash.dataio import build_graph, generate_synthetic, split_dataset
    from fmash.evalkit import bmp_at_k, group_instances, topk_metrics
    from fmash.pipeline import run_phase1
    from fmash.recsys import gelram_score, train_rs
    from fmash.seqgen import generate, train_seq

    symptoms, herbs, prescriptions = generate_synthetic(40, 60, 5, 200, seed=7)
    split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=42)
    cfg = RunConfig()
    graph = build_graph(split.train, len(symptoms), len(herbs),
                        tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
    unified = run_phase1(symptoms, herbs, graph, cfg).unified
    train = split.train

    rs = train_rs(train, unified, epochs=300, lr=1e-2, seed=seed)
    contained, p5 = 0, 0.0
    for inst in train:
        ranking = gelram_score(inst.symptoms, unified, rs.params).ranking
        truth = set(inst.herbs)
        contained += set(ranking[:len(truth)].tolist()) == truth
        p5 += topk_metrics(ranking.tolist(), truth, 5)[0]

    seq = train_seq(train, unified, epochs=300, lr=3e-3, seed=seed)
    vocab = seq.params.vocab

    def decoded(instances):
        return {i.instance_id: generate(i.symptoms, seq.params, max_len=20)
                for i in instances}

    def bmp5(instances, predictions):
        groups = group_instances(instances, predictions)
        return sum(bmp_at_k(g.prediction, g, 5) for g in groups) / len(groups)

    on_train = decoded(train)
    return {
        "rs_loss": _losses(rs.losses), "containment": contained / len(train),
        "p5": p5 / len(train),
        "seq_loss": _losses(seq.losses),
        "exact": sum(on_train[i.instance_id] == list(i.herbs) for i in train) / len(train),
        "bmp5": bmp5(train, on_train),
        "violations": sum(len(f) != len(set(f)) or not all(map(vocab.is_herb, f))
                          for f in on_train.values()),
        "test_bmp5": bmp5(split.test, decoded(split.test)),
    }


def _no_mixing() -> dict:
    """c6 (runs inside the tree's process)."""
    from fmash.dataio import generate_conflicting_corpus
    from fmash.nn import stage_rng
    from fmash.refine import UnifiedEmbedding
    from fmash.seqgen import generate, train_seq

    symptoms, herbs, prescriptions = generate_conflicting_corpus(10, 6, seed=3)
    emb = UnifiedEmbedding(matrix=stage_rng(3, "acc.conflict.emb").normal(
        size=(len(symptoms) + len(herbs), 64)), n_sym=len(symptoms))
    params = train_seq(prescriptions, emb, epochs=250, lr=3e-3, seed=C6_SEED).params
    pure = 0
    for a, b in zip(prescriptions[::2], prescriptions[1::2]):
        formula = set(generate(a.symptoms, params, max_len=15))
        pure += bool(formula) and (formula <= set(a.herbs) or formula <= set(b.herbs))
    return {"pure": pure, "pairs": len(prescriptions) // 2}


def _run(tree: Path, threads: int, job: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, __file__, "--job", job], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _margin(row: dict, key: str) -> str:
    return f"{row[key]:.3f} ({row[key] - GATES[key]:+.3f})"


def main(trees: list[Path]) -> None:
    print("tree | thr | seed | rs loss @150/@200/final | containment | P@5 | "
          "seq loss @150/@200/final | exact | BMP@5 | viol | test BMP@5")
    for i, seed in enumerate(SEEDS):
        for threads in THREADS:
            order = trees if i % 2 == 0 else trees[::-1]
            rows = {tree: _run(tree, threads, f"memorization:{seed}") for tree in order}
            for tree in trees:
                row = rows[tree]
                rs_loss = "/".join(f"{v:.4f}" for v in row["rs_loss"])
                seq_loss = "/".join(f"{v:.4f}" for v in row["seq_loss"])
                print(f"{tree.name} | {threads} | {seed} | {rs_loss} | "
                      f"{_margin(row, 'containment')} | {_margin(row, 'p5')} | {seq_loss} | "
                      f"{_margin(row, 'exact')} | {_margin(row, 'bmp5')} | "
                      f"{row['violations']} | {row['test_bmp5']:.3f}", flush=True)
    for threads in THREADS:
        for tree in trees:
            row = _run(tree, threads, "no_mixing")
            print(f"{tree.name} | {threads} | c6 seed {C6_SEED} | "
                  f"{row['pure']}/{row['pairs']} pure", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--job"]:
        name, _, seed = sys.argv[2].partition(":")
        print(json.dumps(_memorization(int(seed)) if name == "memorization"
                         else _no_mixing()))
    elif 1 <= len(sys.argv) - 1 <= 2:
        main([Path(arg).resolve() for arg in sys.argv[1:]])
    else:
        sys.exit(__doc__)
