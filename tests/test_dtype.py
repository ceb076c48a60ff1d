"""float32 is the one run dtype: one stray float64 constant promotes every
array downstream of it (numpy keeps the wider type), gradients and Adam
moments included, and silently undoes the float32 speed-up.  These checks
train each component for one step at tiny dims and fail on any float64."""

import numpy as np
import pytest

from fmash import nn, pipeline
from fmash.config import config_from_dict
from fmash.dataio import build_graph, generate_synthetic, split_dataset
from fmash.pipeline import run_phase1
from fmash.recsys import gelram_score, make_rs_params, train_rs
from fmash.seqgen import decoder_cache, decoder_logits, encode_batch, train_seq
from fmash.tape import no_grad
from phase1_calls import initial_features, record_calls

F32 = np.dtype(np.float32)


@pytest.fixture(scope="module")
def one_step_run():
    """Phase 1 and both heads, one full-batch Adam step each, with every
    optimizer that stepped and the phase-1 stage calls."""
    optimizers = []
    step = nn.Adam.step

    def recording_step(self):
        if self not in optimizers:
            optimizers.append(self)
        step(self)

    symptoms, herbs, prescriptions = generate_synthetic(12, 14, 2, 30, seed=9)
    split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=9)
    graph = build_graph(split.train, 12, 14, tau_s=1, tau_h=1)
    cfg = config_from_dict({
        "dims": {"d": 16, "d_m": 8, "d_k": 4, "d_z": 4, "d_state": 4,
                 "d_enc": 16},
        "train": {"epochs": 1, "mlfie_epochs": 1, "vae_epochs": 1, "fr_epochs": 1},
    })
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn.Adam, "step", recording_step)
        calls = record_calls(mp, pipeline)
        phase1 = run_phase1(symptoms, herbs, graph, cfg)
        rs = train_rs(split.train, phase1.unified, epochs=1, lr=3e-3, batch_size=None,
                      seed=42, params=make_rs_params(phase1.unified, 42, d_enc=16)).params
        seq = train_seq(split.train, phase1.unified, epochs=1, lr=3e-3, batch_size=None,
                        seed=42).params
    return phase1, rs, seq, split.test, optimizers, calls


def test_every_trained_tensor_and_adam_moment_is_float32(one_step_run):
    phase1, rs, seq, _, optimizers, calls = one_step_run
    mlfie = phase1.mlfie_params
    (_, fr_sym), (_, fr_herb) = calls["AutoencoderParams"]
    components = {
        "mlfie_alignment": (mlfie.attention.parameters() + mlfie.gate.parameters()
                            + mlfie.latent.parameters() + mlfie.probe.parameters()),
        "vae": mlfie.vae.parameters(),
        "fr_sym": fr_sym.parameters(),
        "fr_herb": fr_herb.parameters(),
        "rs": rs.parameters(),
        "seq": seq.parameters(),
    }
    by_params = {tuple(map(id, params)): name for name, params in components.items()}
    stepped = [by_params.get(tuple(map(id, opt.params))) for opt in optimizers]
    assert sorted(stepped) == sorted(components)
    for name, opt in zip(stepped, optimizers):
        assert opt.t == 1, name
        for i, p in enumerate(opt.params):
            assert p.grad is not None, name
            assert (p.data.dtype, p.grad.dtype, opt.m[i].dtype, opt.v[i].dtype) \
                == (F32,) * 4, f"{name}: parameter {i}"


def test_phase1_table_and_served_outputs_are_float32(one_step_run):
    phase1, rs, seq, test, _, calls = one_step_run
    assert phase1.unified.matrix.dtype == F32
    assert initial_features(calls).dtype == F32
    (args, _), = calls["assemble_features"]
    assert args[4].dtype == F32    # the fused herb representations
    inst = test[0]
    assert gelram_score(inst.symptoms, phase1.unified, rs).scores.dtype == F32
    with no_grad():
        memory, bias = encode_batch([inst.symptoms], seq)
        logits = decoder_logits(decoder_cache(memory, bias, seq),
                                np.array([[seq.vocab.bos]]), seq)
    assert memory.data.dtype == logits.data.dtype == F32
