"""Stage wiring: initial features -> graph embedding -> molecular features
-> assembly -> compression -> unified table, with every stage behind its
ablation switch.

Each stage draws from its own named RNG stream, so switching one stage off
never changes how any other stage initializes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, config_hash
from .dataio import HerbRecord, HeteroGraph, SymptomRecord
from .errors import DataError
from .hgre import HgreParams, hgre_forward
from .mlfie import MlfieParams, all_herb_representations, fit_mlfie
from .nn import stage_rng
from .refine import (AutoencoderParams, SymptomTextTable, UnifiedEmbedding,
                     assemble_features, compress, reconstruction_mse,
                     train_autoencoder)
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
    init_features: np.ndarray
    hgre_params: HgreParams | None
    mlfie_params: MlfieParams | None
    text_table: SymptomTextTable
    fr_sym: AutoencoderParams
    fr_herb: AutoencoderParams
    herb_reprs: np.ndarray | None
    imputed_ids: list[int] = field(default_factory=list)
    fr_initial_mse: dict[str, float] = field(default_factory=dict)
    fr_final_mse: dict[str, float] = field(default_factory=dict)
    histories: dict[str, list[float]] = field(default_factory=dict)


def _text_dim(symptoms: list[SymptomRecord], cfg: RunConfig) -> int:
    for rec in symptoms:
        if rec.text_embedding is not None:
            return int(rec.text_embedding.shape[0])
    return cfg.dims.d_text


def run_phase1(symptoms: list[SymptomRecord], herbs: list[HerbRecord],
               graph: HeteroGraph, cfg: RunConfig) -> Phase1Result:
    seed = cfg.train.seed
    n_sym, n_herb = len(symptoms), len(herbs)
    if graph.n_sym != n_sym or graph.n_herb != n_herb:
        raise DataError("graph and vocabulary sizes disagree")
    d = cfg.dims.d
    init = stage_rng(seed, "init_features").normal(
        size=(n_sym + n_herb, d)).astype(np.float32)

    hgre_params = None
    if cfg.ablation.hgre:
        hgre_params = HgreParams(d, seed, d_state=cfg.dims.d_state)
        with no_grad():
            graph_features = hgre_forward(Tensor(init), graph, hgre_params).data
    else:
        graph_features = init

    histories: dict[str, list[float]] = {}
    mlfie_params = None
    herb_reprs = None
    imputed_ids: list[int] = []
    if cfg.ablation.mlfie:
        mlfie_params, fit_histories = fit_mlfie(herbs, cfg)
        histories.update(fit_histories)
        herb_reprs = all_herb_representations(herbs, mlfie_params)
        imputed_ids = [h.id for h in herbs if not h.molecules]

    text_table = SymptomTextTable(n_sym, _text_dim(symptoms, cfg), seed)
    sym_matrix, herb_matrix = assemble_features(
        graph_features, symptoms, herbs, text_table.rows(symptoms), herb_reprs)

    hidden = 128 if cfg.ablation.fr else None
    fr_initial: dict[str, float] = {}
    fr_final: dict[str, float] = {}
    compressed = {}
    fr_params = {}
    for name, matrix in (("sym", sym_matrix), ("herb", herb_matrix)):
        params = AutoencoderParams(matrix.shape[1],
                                   stage_rng(seed, f"refine.ae.{name}"),
                                   hidden=hidden)
        fr_initial[name] = reconstruction_mse(matrix, params)
        key = f"fr_{name}"
        histories[key] = train_autoencoder(
            matrix, params, epochs=cfg.train.fr_epochs, lr=cfg.train.lr, name=key)
        fr_final[name] = reconstruction_mse(matrix, params)
        compressed[name] = compress(matrix, params)
        fr_params[name] = params

    unified = UnifiedEmbedding(
        matrix=np.concatenate([compressed["sym"], compressed["herb"]], axis=0),
        n_sym=n_sym)
    return Phase1Result(unified=unified, init_features=init,
                        hgre_params=hgre_params, mlfie_params=mlfie_params,
                        text_table=text_table, fr_sym=fr_params["sym"],
                        fr_herb=fr_params["herb"], herb_reprs=herb_reprs,
                        imputed_ids=imputed_ids, fr_initial_mse=fr_initial,
                        fr_final_mse=fr_final, histories=histories)


def phase1_state(result: Phase1Result) -> dict[str, np.ndarray]:
    """Named tensors of every trained/initialized phase-1 component."""
    state: dict[str, np.ndarray] = {
        "init_features": result.init_features.copy(),
        "unified.matrix": result.unified.matrix.copy(),
        "unified.n_sym": np.asarray(result.unified.n_sym, dtype=np.float32),
    }
    if result.hgre_params is not None:
        state.update({f"hgre.{k}": v for k, v in
                      result.hgre_params.state_dict().items()})
    if result.mlfie_params is not None:
        state.update({f"mlfie.{k}": v for k, v in
                      result.mlfie_params.state_dict().items()})
    state.update({f"refine.text.{k}": v for k, v in
                  result.text_table.state_dict().items()})
    state.update({f"refine.sym.{k}": v for k, v in result.fr_sym.state_dict().items()})
    state.update({f"refine.herb.{k}": v for k, v in result.fr_herb.state_dict().items()})
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
