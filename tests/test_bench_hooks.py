"""The benchmark in ``bench/`` wraps fmash functions by module and name.

Renaming or removing one of them breaks the benchmark, so these tests
install every patch it uses and run a small phase 1 under them.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from decode_reference import full_prefix_generate  # noqa: E402

from fmash import cli, mlfie, pipeline, recsys, seqgen  # noqa: E402
from fmash.config import RunConfig  # noqa: E402
from fmash.dataio import PrescriptionInstance, build_graph, generate_synthetic  # noqa: E402
from fmash.refine import UnifiedEmbedding  # noqa: E402


def test_every_benchmark_patch_installs_and_restores():
    originals = (pipeline.run_phase1, mlfie.train_property_alignment)
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=True)
        assert pipeline.run_phase1 is not originals[0]
    finally:
        rec.close()
    assert (pipeline.run_phase1, mlfie.train_property_alignment) == originals


def test_molecular_stage_spans_nest_under_phase1():
    sym, herbs, pres = generate_synthetic(10, 30, 3, 30, seed=3,
                                        unique_symptom_sets=False)
    graph = build_graph(pres, len(sym), len(herbs), tau_s=2, tau_h=2)
    cfg = RunConfig()
    cfg.dims.d, cfg.dims.d_m, cfg.dims.d_k, cfg.dims.d_z = 16, 8, 4, 4
    cfg.train.mlfie_epochs = cfg.train.vae_epochs = cfg.train.fr_epochs = 2
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=True)
        pipeline.run_phase1(sym, herbs, graph, cfg)
    finally:
        rec.close()
    for name in ("mlfie.align", "mlfie.complete_pairs", "mlfie.vae", "mlfie.herb_repr"):
        assert len(rec.named(name, under="pipeline.phase1")) == 1, name


def _tiny_run(tmp_path) -> Path:
    """A small synthetic corpus and a two-epoch config over it; returns the
    config's path."""
    corpus, work = tmp_path / "corpus", tmp_path / "work"
    assert cli.execute_command(["synth", "--out", str(corpus), "--n-sym", "10",
                                "--n-herb", "10", "--n-syndromes", "2",
                                "--n-prescriptions", "30"]) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "paths": {"corpus": str(corpus), "workdir": str(work)},
        "dims": {"d": 16, "d_m": 8, "d_k": 4, "d_enc": 16, "d_z": 4, "d_state": 4},
        "train": {"epochs": 2, "mlfie_epochs": 2, "vae_epochs": 2,
                  "fr_epochs": 2}}))
    return cfg_path


def test_phase1_span_only_in_prepare(tmp_path):
    cfg_path = _tiny_run(tmp_path)
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=False)
        assert cli.execute_command(["prepare", "--config", str(cfg_path)]) == 0
        assert len(rec.named("pipeline.phase1")) == 1
        assert cli.execute_command(["train-rs", "--config", str(cfg_path)]) == 0
    finally:
        rec.close()
    assert len(rec.named("pipeline.phase1")) == 1


def test_cli_training_records_one_train_span_per_head(tmp_path):
    """``train-rs`` and ``train-seq`` call the trainers through the module
    names the benchmark wraps, so its training-rate metrics see them."""
    cfg_path = _tiny_run(tmp_path)
    assert cli.execute_command(["prepare", "--config", str(cfg_path)]) == 0
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=False)
        for command in ("train-rs", "train-seq"):
            assert cli.execute_command([command, "--config", str(cfg_path)]) == 0
    finally:
        rec.close()
    assert len(rec.named("recsys.train")) == len(rec.named("seqgen.train")) == 1


def test_training_runs_the_forward_spans_the_traced_benchmark_reads():
    """The traced benchmark takes the median of the ``recsys.forward`` and
    ``seqgen.forward`` spans inside each head's training, so each training
    loss goes through ``rs_logits`` and ``sequence_loss``."""
    emb = UnifiedEmbedding(np.random.default_rng(0).normal(size=(16, 8)), n_sym=6)
    instances = [PrescriptionInstance(0, frozenset({0, 2}), [1, 3]),
                 PrescriptionInstance(1, frozenset({1, 4}), [0, 2, 7])]
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=True)
        recsys.train_rs(instances, emb, epochs=2, lr=3e-3, batch_size=None, seed=0,
                        params=recsys.GelramParams(emb.dim, emb.n_herb, 0, d_enc=8))
        seqgen.train_seq(instances, emb, epochs=2, lr=3e-3, batch_size=None, seed=0,
                         params=seqgen.Seq2SeqParams(emb, 0))
    finally:
        rec.close()
    assert len(rec.named("recsys.forward", under="recsys.train")) == 2
    assert len(rec.named("seqgen.forward", under="seqgen.train")) == 2


@pytest.mark.parametrize("eos_bias, n_formula", [(1e3, 0), (0.5, None), (-1e3, 6)],
                         ids=["forced-eos", "eos-stop", "max-len"])
def test_generate_calls_the_decoder_once_per_step(eos_bias, n_formula):
    """The traced benchmark checks decoder calls against this count."""
    max_len = 6
    emb = UnifiedEmbedding(np.random.default_rng(0).normal(size=(16, 8)), n_sym=6)
    params = seqgen.Seq2SeqParams(emb, 0)
    params.out.bias.data[params.vocab.eos] = eos_bias
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=True)
        formula = seqgen.generate([0, 2], params, max_len=max_len)
    finally:
        rec.close()
    assert formula == full_prefix_generate([0, 2], params, max_len)
    if n_formula is not None:    # set by the EOS bias, whatever the weights
        assert len(formula) == n_formula
    assert len(rec.named("seqgen.decoder", under="seqgen.generate")) \
        == len(formula) + (len(formula) < max_len)
