#!/usr/bin/env python3
"""Top-K metrics and best-matched precision with identical-input grouping.

P@K divides hits by K, R@K by the truth size, F1 is their harmonic mean.
When several test instances share one symptom set, best-matched precision
credits the prediction with the best ground truth it matches: a generator
that commits to one valid formula is not punished for skipping the others.
"""

import tempfile
from pathlib import Path

import numpy as np

from fmash.dataio import PrescriptionInstance
from fmash.evalkit import (EvalGroup, bmp_at_k, evaluate_run, group_instances,
                           topk_metrics)

print("-- classic top-K metrics --")
ranking = [4, 17, 2, 31, 9, 12, 40, 3]
truth = {17, 31, 12, 55, 60, 61, 62, 63}
for k in (3, 5, 8):
    p, r, f = topk_metrics(ranking, truth, k)
    print(f"k={k}: P={p:.3f} R={r:.3f} F1={f:.3f}")

print("\n-- best matched precision --")
pred = [0, 1, 2, 3, 4]
group = EvalGroup(key=(7, 9), ground_truths=[{0, 10, 11, 12, 13},
                                             {0, 1, 2, 3, 4}])
scores = [topk_metrics(pred, t, 5)[0] for t in group.ground_truths]
print(f"prediction {pred} scores {scores} against the two truths")
print(f"BMP@5 takes the max: {bmp_at_k(pred, group, 5)}")

print("\n-- grouping instances that share an input --")
instances = [
    PrescriptionInstance(0, frozenset({1, 2}), [10, 11, 12]),
    PrescriptionInstance(1, frozenset({2, 1}), [20, 21, 22]),
    PrescriptionInstance(2, frozenset({5}), [30, 31]),
]
predictions = {0: [10, 11, 20], 1: [10, 11, 20], 2: [30, 31]}
groups = group_instances(instances, predictions)
for g in groups:
    print(f"input {g.key}: {len(g.ground_truths)} ground truths, "
          f"BMP@3 = {bmp_at_k(g.prediction, g, 3):.3f}")

print("\n-- a full report from a prediction file --")
with tempfile.TemporaryDirectory() as tmp:
    pred_path, report_path = Path(tmp, "predictions.tsv"), Path(tmp, "report.json")
    with open(pred_path, "w") as fh:
        for iid, herbs in predictions.items():
            fh.write(f"{iid}\t" + ",".join(f"{h}:0.5" for h in herbs) + "\n")
    report = evaluate_run(pred_path, instances, ks=[1, 3], head="rs", model="demo")
    for line in report.summary_lines():
        print(line)
    report.save(report_path)
    roundtrip = report.load(report_path)
print(f"report round-trips: {roundtrip.bmp == report.bmp}")

print("\n-- sanity: random rankings score at chance level --")
rng = np.random.default_rng(0)
h, k = 60, 5
ps = [topk_metrics(rng.permutation(h).tolist(),
                   set(rng.choice(h, 8, replace=False).tolist()), k)[0]
      for _ in range(2000)]
print(f"mean P@5 of random rankings: {np.mean(ps):.4f} "
      f"(hypergeometric expectation {8 / h:.4f})")
