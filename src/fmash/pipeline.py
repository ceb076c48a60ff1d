"""Stage wiring: initial features -> graph embedding -> molecular features
-> assembly -> compression -> unified table, with every stage behind its
ablation switch.

Each stage draws from its own named RNG stream, so switching one stage off
never changes how any other stage initializes.

``Phase1Result.histories`` holds the per-epoch losses of every fit.  Each
compression fit is full batch and records its loss before each step, so
``histories["fr_sym"][0]`` is the reconstruction MSE before training.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash
from .dataio import HERBS_FILE, SYMPTOMS_FILE, HerbRecord, HeteroGraph, SymptomRecord
from .errors import DataError, NumericError
from .hgre import HgreParams, hgre_forward
from .mlfie import MlfieParams, fit_mlfie
from .nn import stage_rng
from .refine import (AutoencoderParams, UnifiedEmbedding, assemble_features,
                     compress, reconstruction_mse, text_rows, train_autoencoder)
from .tape import Tensor, no_grad

# config keys only the heads read; every other key is a phase-1 input
HEAD_ONLY_KEYS = ("train.epochs", "train.batch", "train.seq_max_len",
                  "ablation.gelram", "dims.d_enc")
# config keys that say where the phase-1 inputs are, not what they are; a
# caller that keys on the inputs digests the files themselves
PATH_KEYS = ("paths.corpus", "paths.workdir")


@dataclass
class Phase1Result:
    unified: UnifiedEmbedding
    mlfie_params: MlfieParams | None
    fr_final_mse: dict[str, float]
    histories: dict[str, list[float]]


def run_phase1(symptoms: list[SymptomRecord], herbs: list[HerbRecord],
               graph: HeteroGraph, cfg: RunConfig) -> Phase1Result:
    """Phase 1 over the records of the corpus at ``cfg.paths.corpus``; a
    stage that cannot train on them names the file they came from."""
    seed = cfg.train.seed
    corpus = Path(cfg.paths.corpus)
    n_sym, n_herb = len(symptoms), len(herbs)
    if graph.n_sym != n_sym or graph.n_herb != n_herb:
        raise DataError("graph and vocabulary sizes disagree")
    d = cfg.dims.d
    init = stage_rng(seed, "init_features").normal(
        size=(n_sym + n_herb, d)).astype(np.float32)

    if cfg.ablation.hgre:
        hgre_params = HgreParams(d, seed, d_state=cfg.dims.d_state)
        with no_grad():
            graph_features = hgre_forward(Tensor(init), graph, hgre_params).data
    else:
        graph_features = init

    histories: dict[str, list[float]] = {}
    mlfie_params = None
    herb_reprs = None
    if cfg.ablation.mlfie:
        try:
            mlfie_params, herb_reprs, fit_histories = fit_mlfie(herbs, cfg)
        except DataError as exc:
            raise DataError(f"{corpus / HERBS_FILE}: {exc}; `ablation.mlfie: false` "
                            f"skips the molecular stage") from exc
        histories.update(fit_histories)

    sym_matrix, herb_matrix = assemble_features(
        graph_features, symptoms, herbs, text_rows(symptoms), herb_reprs)

    hidden = 128 if cfg.ablation.fr else None
    fr_final: dict[str, float] = {}
    compressed = {}
    for name, matrix, source in (("sym", sym_matrix, SYMPTOMS_FILE),
                                 ("herb", herb_matrix, HERBS_FILE)):
        params = AutoencoderParams(matrix.shape[1],
                                   stage_rng(seed, f"refine.ae.{name}"),
                                   hidden=hidden)
        key = f"fr_{name}"
        try:
            histories[key] = train_autoencoder(
                matrix, params, epochs=cfg.train.fr_epochs, lr=cfg.train.lr, name=key)
        except DataError as exc:
            raise DataError(f"{corpus / source}: {exc}") from exc
        fr_final[name] = reconstruction_mse(matrix, params)
        compressed[name] = compress(matrix, params)
        # a fit checks each loss before its step, not the step after its last
        if not np.isfinite(compressed[name]).all():
            raise NumericError(f"{key}: non-finite features after training")

    unified = UnifiedEmbedding(
        matrix=np.concatenate([compressed["sym"], compressed["herb"]], axis=0),
        n_sym=n_sym)
    return Phase1Result(unified=unified, mlfie_params=mlfie_params,
                        fr_final_mse=fr_final, histories=histories)


def phase1_state(result: Phase1Result) -> dict[str, np.ndarray]:
    """Named tensors of phase 1 that a later command loads: the unified table
    (``train-rs``, ``train-seq``) and, when the molecular stage ran, its
    imputation VAE (``impute-mol``)."""
    state: dict[str, np.ndarray] = {
        "unified.matrix": result.unified.matrix.copy(),
        "unified.n_sym": np.asarray(result.unified.n_sym, dtype=np.float32),
    }
    if result.mlfie_params is not None:
        state.update({f"mlfie.vae.{k}": v for k, v in
                      result.mlfie_params.vae.state_dict().items()})
    return state


def phase1_key(cfg: RunConfig) -> str:
    """Hash of the phase-1 config: the config hash with every key in
    ``HEAD_ONLY_KEYS`` and ``PATH_KEYS`` held at its default, so a project
    moved to another directory keeps its key."""
    keyed, default = copy.deepcopy(cfg), RunConfig()
    for dotted in HEAD_ONLY_KEYS + PATH_KEYS:
        section, key = dotted.split(".")
        setattr(getattr(keyed, section), key, getattr(getattr(default, section), key))
    return config_hash(keyed)
