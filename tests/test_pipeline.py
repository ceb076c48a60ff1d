import numpy as np
import pytest

from fmash import mlfie
from fmash.config import config_from_dict
from fmash.dataio import build_graph, generate_synthetic, split_dataset
from fmash.errors import DataError
from fmash.pipeline import phase1_state, run_phase1


@pytest.fixture(scope="module")
def small_corpus():
    symptoms, herbs, prescriptions = generate_synthetic(12, 14, 2, 30, seed=9)
    split = split_dataset(prescriptions, seed=9)
    graph = build_graph(split.train, 12, 14, tau_s=1, tau_h=1)
    return symptoms, herbs, graph


def _cfg(**ablation):
    # zero training epochs isolate the initialization draws
    return config_from_dict({
        "ablation": ablation,
        "dims": {"d": 16, "d_m": 8, "d_k": 4, "d_z": 4, "d_text": 4,
                 "d_state": 4, "d_enc": 16},
        "train": {"epochs": 0, "mlfie_epochs": 0, "vae_epochs": 0,
                  "fr_epochs": 0},
    })


def test_phase1_produces_64d_unified(small_corpus):
    symptoms, herbs, graph = small_corpus
    result = run_phase1(symptoms, herbs, graph, _cfg())
    assert result.unified.matrix.shape == (26, 64)
    assert result.unified.n_sym == 12
    assert np.isfinite(result.unified.matrix).all()


def test_phase1_encodes_each_molecule_once_and_pools_once(small_corpus, monkeypatch):
    symptoms, herbs, graph = small_corpus
    encoded, pools = [], []
    encode, pool = mlfie.stub_encode_molecule, mlfie.aggregate_attention_batch
    monkeypatch.setattr(mlfie, "stub_encode_molecule",
                        lambda s, d: encoded.append(s) or encode(s, d))
    monkeypatch.setattr(mlfie, "aggregate_attention_batch",
                        lambda *args: pools.append(args) or pool(*args))
    cfg = _cfg()
    cfg.train.mlfie_epochs = 2
    run_phase1(symptoms, herbs, graph, cfg)
    assert sorted(encoded) == sorted({m for h in herbs for m in h.molecules})
    # one recorded pool per alignment epoch, then one unrecorded pool
    assert len(pools) == 2 + 1


def test_disabling_graph_stage_leaves_other_initializations_untouched(small_corpus):
    symptoms, herbs, graph = small_corpus
    with_graph = phase1_state(run_phase1(symptoms, herbs, graph, _cfg(hgre=True)))
    without = phase1_state(run_phase1(symptoms, herbs, graph, _cfg(hgre=False)))
    assert any(k.startswith("hgre.") for k in with_graph)
    assert not any(k.startswith("hgre.") for k in without)
    shared = [k for k in with_graph if k.startswith(("mlfie.", "refine."))
              or k == "init_features"]
    assert shared
    for k in shared:
        np.testing.assert_array_equal(with_graph[k], without[k])


def test_disabling_molecular_stage_shrinks_herb_assembly(small_corpus):
    symptoms, herbs, graph = small_corpus
    result = run_phase1(symptoms, herbs, graph, _cfg(mlfie=False))
    assert result.mlfie_params is None
    assert result.herb_reprs is None
    # graph 16 + properties 23 without the 8-wide molecular block
    assert result.fr_herb.enc1.weight.data.shape[0] == 16 + 23


def test_fr_off_uses_linear_projection(small_corpus):
    symptoms, herbs, graph = small_corpus
    result = run_phase1(symptoms, herbs, graph, _cfg(fr=False))
    assert result.fr_sym.hidden is None
    assert result.unified.matrix.shape[1] == 64


def test_graph_vocab_mismatch_rejected(small_corpus):
    symptoms, herbs, graph = small_corpus
    with pytest.raises(DataError):
        run_phase1(symptoms[:-1], herbs, graph, _cfg())
