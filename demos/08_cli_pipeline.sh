#!/usr/bin/env bash
# End-to-end command-line run, each command its own `fmash` process:
# synthesize a corpus; prepare the splits, the graph and phase 1 (saved as
# splits.json, phase1.ckpt and unified.csv); export the VAE imputations phase 1
# used; train both heads on that one phase-1 result; query them, reading the
# names from the corpus; and evaluate the exports.
set -euo pipefail

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/run.json" <<CFG
{
  "paths": {"corpus": "$WORK/corpus", "workdir": "$WORK/artifacts"},
  "graph": {"tau_s": 1, "tau_h": 1},
  "train": {"epochs": 60, "lr": 0.005, "seed": 11,
            "mlfie_epochs": 30, "vae_epochs": 60, "fr_epochs": 100}
}
CFG

fmash synth --out "$WORK/corpus" --n-sym 12 --n-herb 12 --n-syndromes 2 \
    --n-prescriptions 30 --seed 5
fmash prepare --config "$WORK/run.json"
fmash impute-mol --config "$WORK/run.json" --out "$WORK/imputed.tsv"
fmash train-rs --config "$WORK/run.json"
fmash train-seq --config "$WORK/run.json"

echo
echo "== top-5 recommendation for two symptoms =="
fmash recommend --config "$WORK/run.json" --symptoms "sym-001,sym-003" --k 5

echo
echo "== generated formula for the same symptoms =="
fmash generate --config "$WORK/run.json" --symptoms "sym-001,sym-003"

echo
echo "== ranked-head report =="
fmash evaluate --config "$WORK/run.json" \
    --pred "$WORK/artifacts/rs_predictions.tsv" --k 5,10
echo
echo "== sequence-head report (best-matched precision only) =="
fmash evaluate --config "$WORK/run.json" \
    --pred "$WORK/artifacts/seq_predictions.tsv" --k 5,10 --head seq
