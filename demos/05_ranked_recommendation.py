#!/usr/bin/env python3
"""Train the ranked recommendation head and query it.

The head aggregates the symptom embeddings, soft-matches them against the
herb table to get a probability-weighted herb vector, fuses everything
through a small transformer encoder via a [CLS] position, and reads one
sigmoid score per herb.  Training is multi-label binary cross-entropy.

Runs in about a minute on one core.
"""

from fmash.config import RunConfig
from fmash.dataio import build_graph, generate_synthetic, split_dataset
from fmash.evalkit import evaluate_run
from fmash.pipeline import run_phase1
from fmash.recsys import export_predictions, gelram_score, recommend, train_rs

symptoms, herbs, prescriptions = generate_synthetic(40, 60, 5, 200, seed=7)
split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=42)
graph = build_graph(split.train, 40, 60, tau_s=2, tau_h=2)
phase1 = run_phase1(symptoms, herbs, graph, RunConfig())
emb = phase1.unified

print("-- training (multi-label BCE) --")
result = train_rs(split.train, emb, epochs=200, lr=1e-2, batch_size=None, seed=42)
print(f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f} "
      f"over {len(result.losses)} epochs")

print("\n-- querying --")
query = sorted(split.test[0].symptoms)
names = [symptoms[i].name for i in query]
print(f"symptoms: {', '.join(names)}")
for rank, (herb_id, score) in enumerate(recommend(query, 8, result.params, emb), 1):
    marker = "*" if herb_id in split.test[0].herbs else " "
    print(f"  {rank}. {herbs[herb_id].name}  {score:.3f} {marker}")
print("(* = in this instance's ground-truth formula)")

scored = gelram_score(query, emb, result.params)
top5 = scored.ranking[:5].tolist()
assert [h for h, _ in recommend(query, 5, result.params, emb)] == top5

print("\n-- test-split evaluation --")
export_predictions("/tmp/demo_rs_predictions.tsv", split.test, emb, result.params)
report = evaluate_run("/tmp/demo_rs_predictions.tsv", split.test,
                      ks=[5, 10, 20], head="rs", model="demo_rs")
for line in report.summary_lines():
    print(line)
