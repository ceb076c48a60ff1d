#!/usr/bin/env python3
"""Build a synthetic prescription corpus and its heterogeneous graph.

The generator plants latent syndromes: each owns a symptom cluster and a
herb cluster, and every prescription draws 2-4 symptoms plus an ordered
list of 5-10 herbs from a single syndrome.  Co-occurrence counts over the
prescriptions then define three edge sets (symptom-symptom, herb-herb,
symptom-herb).
"""

import numpy as np

from fmash import build_graph, generate_synthetic, split_dataset

symptoms, herbs, prescriptions = generate_synthetic(
    n_sym=40, n_herb=60, n_syndromes=5, n_prescriptions=200, seed=7)

print(f"corpus: {len(symptoms)} symptoms, {len(herbs)} herbs, "
      f"{len(prescriptions)} prescriptions")
sizes = [len(p.herbs) for p in prescriptions]
print(f"formula lengths: min {min(sizes)}, max {max(sizes)}, "
      f"mean {np.mean(sizes):.1f}")
missing = [h.name for h in herbs if not h.molecules]
print(f"herbs without molecular data: {len(missing)} "
      f"(e.g. {', '.join(missing[:4])})")

split = split_dataset(prescriptions, ratio=(0.7, 0.1, 0.2), seed=42)
print(f"\nsplit 7:1:2 -> {len(split.train)} train / {len(split.valid)} valid "
      f"/ {len(split.test)} test")

# thresholded co-occurrence edges; tau controls sparsity
for tau in (1, 2, 4):
    g = build_graph(split.train, len(symptoms), len(herbs), tau_s=tau, tau_h=tau)
    print(f"tau={tau}: ss={len(g.edges_ss)} hh={len(g.edges_hh)} "
          f"sh={len(g.edges_sh)} edges")

# the graph is its edge lists; HGRE counts degrees from them, herbs after
# symptoms in the full graph
g = build_graph(split.train, len(symptoms), len(herbs), tau_s=2, tau_h=2)
s = g.n_sym
full = np.concatenate([g.edges_ss, g.edges_hh + s, g.edges_sh + (0, s)])
degrees = np.bincount(full.ravel(), minlength=s + g.n_herb)
print(f"\nfull-graph degrees: min {degrees.min()}, max {degrees.max()}")
print("herb-herb subgraph degree of first five herbs:",
      np.bincount(g.edges_hh.ravel(), minlength=g.n_herb)[:5].tolist())

# the clusters are visible in the graph: herbs of one syndrome co-occur,
# herbs of different syndromes never do
same = cross = 0
for u, v in g.edges_hh:
    if u // 12 == v // 12:
        same += 1
    else:
        cross += 1
print(f"herb-herb edges within a planted cluster: {same}, across: {cross}")
