#!/usr/bin/env python3
"""Assemble multiscale node features and compress them to 64 dimensions.

Herb rows concatenate [graph embedding | molecular vector | properties],
symptom rows [graph embedding | text embedding]; a small autoencoder per
node type learns to reconstruct the assembled rows and its encoder yields
the unified embeddings both recommendation heads share.
"""

import numpy as np

from fmash.config import RunConfig
from fmash.dataio import build_graph, generate_synthetic, split_dataset
from fmash.pipeline import run_phase1
from fmash.refine import (AutoencoderParams, compress, reconstruction_mse,
                          train_autoencoder)
from fmash.nn import stage_rng

symptoms, herbs, prescriptions = generate_synthetic(40, 60, 5, 200, seed=7)
split = split_dataset(prescriptions, seed=42)
graph = build_graph(split.train, 40, 60, tau_s=2, tau_h=2)

cfg = RunConfig()
result = run_phase1(symptoms, herbs, graph, cfg)

print("assembled widths per node type (graph d=64, molecular d_m=32, P=23):")
print(f"  symptoms: 64 + {cfg.dims.d_text} text dims")
print(f"  herbs:    64 + 32 + 23 = 119 dims")
print(f"compressed to a unified {result.unified.matrix.shape} table "
      f"({result.unified.n_sym} symptom rows first)")

for node_type in ("sym", "herb"):
    initial = result.fr_initial_mse[node_type]
    final = result.fr_final_mse[node_type]
    print(f"{node_type}: reconstruction MSE {initial:.4f} -> {final:.6f} "
          f"({100 * (1 - final / initial):.1f}% reduction)")

print("\ncompression is row-wise and deterministic:")
matrix = stage_rng(0, "demo.fr").normal(size=(30, 80))
params = AutoencoderParams(80, stage_rng(1, "refine.ae"))
losses = train_autoencoder(matrix, params, epochs=200, lr=1e-2)
z = compress(matrix, params)
perm = np.random.default_rng(0).permutation(30)
print(f"  shuffle-then-compress equals compress-then-shuffle: "
      f"{np.allclose(compress(matrix[perm], params), z[perm])}")
# each epoch's loss is taken before that epoch's Adam step, so the curve
# ends one step short of the trained autoencoder
print(f"  MSE after the last step: {reconstruction_mse(matrix, params):.3g}; "
      f"the curve's last entry, {losses[-1]:.3g}, is the MSE before it")

print("\nwith refinement ablated, a trained linear projection stands in:")
linear = AutoencoderParams(80, stage_rng(1, "refine.ae"), hidden=None)
train_autoencoder(matrix, linear, epochs=200, lr=1e-2)
print(f"  linear variant: hidden={linear.hidden}, "
      f"output {compress(matrix, linear).shape}")
