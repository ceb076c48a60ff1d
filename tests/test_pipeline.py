import numpy as np
import pytest

from fmash import mlfie, pipeline
from fmash.config import config_from_dict
from fmash.dataio import build_graph, generate_synthetic, split_dataset
from fmash.errors import DataError
from fmash.pipeline import run_phase1
from phase1_calls import initial_features, record_calls


@pytest.fixture(scope="module")
def small_corpus():
    symptoms, herbs, prescriptions = generate_synthetic(12, 14, 2, 30, seed=9)
    split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=9)
    graph = build_graph(split.train, 12, 14, tau_s=1, tau_h=1)
    return symptoms, herbs, graph


def _cfg(**ablation):
    # zero training epochs isolate the initialization draws
    return config_from_dict({
        "ablation": ablation,
        "dims": {"d": 16, "d_m": 8, "d_k": 4, "d_z": 4, "d_state": 4,
                 "d_enc": 16},
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


def _recorded_phase1(monkeypatch, corpus, **ablation):
    """The phase-1 result under ``ablation`` and the stage calls it made."""
    with monkeypatch.context() as mp:
        calls = record_calls(mp, pipeline)
        return run_phase1(*corpus, _cfg(**ablation)), calls


def test_disabling_graph_stage_leaves_other_initializations_untouched(
        small_corpus, monkeypatch):
    with_graph, on = _recorded_phase1(monkeypatch, small_corpus, hgre=True)
    without, off = _recorded_phase1(monkeypatch, small_corpus, hgre=False)
    assert len(on["HgreParams"]) == len(on["hgre_forward"]) == 1
    assert off["HgreParams"] == off["hgre_forward"] == []
    np.testing.assert_array_equal(initial_features(on), initial_features(off))
    # the herb rows past the graph block: molecular stage and properties
    (_, (_, herbs_on)), = on["assemble_features"]
    (_, (_, herbs_off)), = off["assemble_features"]
    np.testing.assert_array_equal(herbs_on[:, 16:], herbs_off[:, 16:])
    shared = [(with_graph.mlfie_params, without.mlfie_params)] + [
        (ae_on, ae_off) for (_, ae_on), (_, ae_off)
        in zip(on["AutoencoderParams"], off["AutoencoderParams"], strict=True)]
    assert len(shared) == 3
    for module_on, module_off in shared:
        state_on, state_off = module_on.state_dict(), module_off.state_dict()
        assert state_on.keys() == state_off.keys()
        for k in state_on:
            np.testing.assert_array_equal(state_on[k], state_off[k])


def test_disabling_molecular_stage_shrinks_herb_assembly(small_corpus, monkeypatch):
    result, calls = _recorded_phase1(monkeypatch, small_corpus, mlfie=False)
    assert result.mlfie_params is None
    (args, _), = calls["assemble_features"]
    assert args[4] is None    # no fused herb representations
    # graph 16 + properties 23 without the 8-wide molecular block
    (_, fr_herb) = calls["AutoencoderParams"][1]
    assert fr_herb.enc[0].weight.data.shape[0] == 16 + 23


def test_fr_off_uses_linear_projection(small_corpus, monkeypatch):
    result, calls = _recorded_phase1(monkeypatch, small_corpus, fr=False)
    (_, fr_sym), _ = calls["AutoencoderParams"]
    assert len(fr_sym.enc) == len(fr_sym.dec) == 1
    assert result.unified.matrix.shape[1] == 64


def test_graph_vocab_mismatch_rejected(small_corpus):
    symptoms, herbs, graph = small_corpus
    with pytest.raises(DataError):
        run_phase1(symptoms[:-1], herbs, graph, _cfg())
