#!/usr/bin/env python3
"""Molecular-level herb features, including imputation for missing data.

Herbs with known molecules: each molecule string is embedded (here by the
deterministic stub encoder), pooled by property-guided attention, and fused
with the herb's learnable holistic embedding through a sigmoid gate.
Herbs with no molecular data: a VAE trained on (property, pooled-vector)
pairs of complete herbs decodes the missing vector from properties alone.
"""

import numpy as np

from fmash.dataio import generate_synthetic
from fmash.mlfie import (MlfieParams, aggregate_attention_batch,
                         all_herb_representations, attention_weights_batch,
                         complete_pairs, fuse_gate_batch, impute_missing,
                         molecule_batch, stub_encode_molecule,
                         train_property_alignment, train_vae)
from fmash.tape import Tensor, no_grad

symptoms, herbs, _ = generate_synthetic(10, 60, 5, 40, seed=7,
                                        missing_mol_fraction=0.2,
                                        unique_symptom_sets=False)
params = MlfieParams(n_herb=60, p_dim=23, d_m=32, d_k=16, d_z=16, seed=7)

print("-- stub molecule encoder --")
for s in ("CCO", "CCN", "c1ccccc1"):
    v = stub_encode_molecule(s, 8)
    print(f"{s:10s} -> {np.round(v, 2)}  (|v| = {np.linalg.norm(v):.3f})")

print("\n-- property-guided attention pooling --")
# the batched functions pool many herbs at once; here the batch is one herb
herb = next(h for h in herbs if len(h.molecules) >= 3)
one = molecule_batch([herb], 32)
embs, p_h = Tensor(one.embs), Tensor(one.props)
with no_grad():
    alpha = attention_weights_batch(embs, p_h, params.attention, one.mask).data[0]
    pooled = aggregate_attention_batch(embs, p_h, params.attention, one.mask)
print(f"{herb.name}: {len(herb.molecules)} molecules, attention weights "
      f"{np.round(alpha, 3)} (sum {alpha.sum():.6f})")
print(f"pooled vector stays inside the componentwise hull: "
      f"{bool(np.all(pooled.data >= one.embs[0].min(0) - 1e-12))}")

print("\n-- gated fusion with the holistic embedding --")
with no_grad():
    fused = fuse_gate_batch(pooled, params.latent.weight[one.ids],
                            params.gate).data[0]
print(f"fused representation, first 5 dims: {np.round(fused[:5], 3)}")

print("\n-- pretraining: align fused vectors with herb properties --")
# every herb with molecules, as one batch that each step below reuses
batch = molecule_batch([h for h in herbs if h.molecules], 32)
align = train_property_alignment(batch, params, epochs=60, lr=1e-2)
print(f"probe regression loss {align[0]:.3f} -> {align[-1]:.3f}")

print("\n-- VAE imputation for herbs without molecules --")
props, targets = complete_pairs(batch, params)
print(f"{len(batch.ids)} complete herbs provide (property, pooled-vector) pairs")
vae = params.vae
vae_losses = train_vae((props, targets), vae, epochs=250, lr=5e-3, seed=7)
print(f"VAE loss {vae_losses[0]:.3f} -> {vae_losses[-1]:.3f}")

missing = next(h for h in herbs if not h.molecules)
imputed = impute_missing(missing.properties[None], vae)[0]
print(f"{missing.name} (no molecules): imputed vector, first 5 dims "
      f"{np.round(imputed[:5], 3)}")

# both paths end in the same gate, so every herb gets one d_m vector; the
# complete herbs reuse their pooled vectors
reprs = all_herb_representations(herbs, targets, params)
print(f"\nall {len(herbs)} herbs represented: matrix {reprs.shape}, "
      f"finite={np.isfinite(reprs).all()}")

# sanity: imputation error on held-out complete herbs is train-like
with no_grad():
    errs = [float(((impute_missing(p[None], vae)[0] - t) ** 2).sum())
            for p, t in zip(props, targets)]
print(f"median squared reconstruction error over complete herbs: "
      f"{np.median(errs):.3f}")
