#!/usr/bin/env python3
"""Generate ordered herb formulas autoregressively, with a stopping rule.

The decoder's token embeddings start from the unified herb table, attend to
the encoded symptom set, and emit herbs one at a time until the
end-of-sequence token.  Because continuations condition on what was already
emitted, an input that maps to two different valid formulas in the data
yields one coherent formula, never a blend - the property this script
demonstrates last.

Runs in a few minutes on one core.
"""

from fmash.config import RunConfig
from fmash.dataio import (build_graph, generate_conflicting_corpus,
                          generate_synthetic, split_dataset)
from fmash.nn import stage_rng
from fmash.pipeline import run_phase1
from fmash.refine import UnifiedEmbedding
from fmash.seqgen import generate, train_seq

symptoms, herbs, prescriptions = generate_synthetic(40, 60, 5, 200, seed=7)
split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=42)
graph = build_graph(split.train, 40, 60, tau_s=2, tau_h=2)
phase1 = run_phase1(symptoms, herbs, graph, RunConfig())

print("-- teacher-forced training on [herbs..., EOS] --")
result = train_seq(split.train, phase1.unified, epochs=300, lr=3e-3, batch_size=None,
                   seed=42)
print(f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}")

inst = split.train[0]
seq = generate(inst.symptoms, result.params, max_len=20)
print(f"\ninput symptoms: {sorted(inst.symptoms)}")
print(f"generated ({len(seq)} herbs, stopped by EOS): "
      f"{[herbs[h].name for h in seq]}")
print(f"ground truth ({len(inst.herbs)} herbs):        "
      f"{[herbs[h].name for h in inst.herbs]}")

exact = sum(generate(p.symptoms, result.params, max_len=20) == list(p.herbs)
            for p in split.train[:40])
print(f"\nexact-sequence reproduction on 40 training instances: {exact}/40")

print("\n-- the length cap and the duplicate mask --")
capped = generate(inst.symptoms, result.params, max_len=3)
print(f"max_len=3 -> {capped}, the first {len(capped)} herbs of the uncapped "
      f"formula: {capped == seq[:3]}; all distinct: {len(set(seq)) == len(seq)}")

print("\n-- no mixing of alternative formulas --")
csym, cherbs, cpres = generate_conflicting_corpus(6, seed=3)
cemb = UnifiedEmbedding(
    matrix=stage_rng(3, "demo.conflict").normal(size=(len(csym) + len(cherbs), 64)),
    n_sym=len(csym))
conflict = train_seq(cpres, cemb, epochs=250, lr=3e-3, batch_size=None, seed=5)
for a, b in list(zip(cpres[::2], cpres[1::2]))[:3]:
    out = generate(a.symptoms, conflict.params, max_len=15)
    which = "A" if set(out) <= set(a.herbs) else ("B" if set(out) <= set(b.herbs)
                                                  else "MIXED!")
    print(f"input {sorted(a.symptoms)}: formulas A={a.herbs} B={b.herbs}")
    print(f"  generated {out} -> pure formula {which}")
